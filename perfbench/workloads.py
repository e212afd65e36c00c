"""The four benchmark workloads: seeded corpora, timed cases, checks.

Each workload is a closed loop over a corpus built from the seed during
set-up.  A workload supplies

  build(rng)          the corpus, a list of cases (set-up work);
  run(case)           the timed calls into the library's public functions;
  check(case, out)    an exact check of one result, independent of the
                      library's own cross-checks; returns an error or None;
  render(case, out)   the formatted output that goes into the digest.

Library functions are always reached through their module attribute
(``autmap.expand``, never a name bound at import), so that the traced run,
which rebinds those attributes, sees every call.

The corpora are built on fixed shape schedules (which generators, which
degrees) with the seed choosing the details (targets, monomials, signs,
matrices).  Every seed then has the same cost profile, which keeps the
seed-to-seed spread of the end-to-end metrics small; fully random words of
the ``verify`` family have a heavy cost tail (a few words cost 50x the
median), and 200 of them spread the mean case time by 30% between seeds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from fractions import Fraction

import polyaut.autmap as autmap
import polyaut.classify3 as classify3
import polyaut.cli as cli
import polyaut.derivation as derivation
import polyaut.jvdk as jvdk
import polyaut.polycore as polycore
import polyaut.relations as relations
from polyaut.autmap import Affine, AutWord, Elementary
from polyaut.polycore import Polynomial, WeightVector

F = Fraction


# -- exact helpers of the benchmark's own -------------------------------------


def std_degree(p: Polynomial) -> int:
    return max(sum(mono) for mono in p.terms)


def weighted_degrees(p: Polynomial, ws) -> set:
    return {sum(e * w for e, w in zip(mono, ws)) for mono in p.terms}


def evaluate(p: Polynomial, point) -> Fraction:
    total = F(0)
    for mono, c in p.terms.items():
        term = c
        for x, e in zip(point, mono):
            if e:
                term *= x ** e
        total += term
    return total


def evaluate_word(word: AutWord, point) -> tuple:
    """word(point), generator by generator: expand(word) = G1 o .. o Gk, so
    the last generator acts first."""
    x = tuple(point)
    for g in reversed(word.gens):
        if isinstance(g, Affine):
            x = tuple(
                sum((a * xi for a, xi in zip(row, x)), s)
                for row, s in zip(g.matrix, g.shift)
            )
        elif isinstance(g, Elementary):
            y = list(x)
            y[g.target - 1] += evaluate(g.addend, x)
            x = tuple(y)
        else:
            y = list(x)
            y[g.i - 1], y[g.j - 1] = x[g.j - 1], x[g.i - 1]
            x = tuple(y)
    return x


def affine(matrix, shift=None) -> Affine:
    n = len(matrix)
    shift = shift or (0,) * n
    return Affine(tuple(tuple(F(a) for a in row) for row in matrix),
                  tuple(F(s) for s in shift))


def monomial_in(rng, n: int, others, degree: int) -> tuple:
    mono = [0] * n
    for _ in range(degree):
        mono[rng.choice(others) - 1] += 1
    return tuple(mono)


def roundtrip_error(text: str, n: int, var: str = "x"):
    """None when the polynomial text re-parses and formats back to itself."""
    try:
        p = polycore.parse_poly(text.replace(var, "x"), n)
    except ValueError as exc:
        return f"{text!r} does not parse: {exc}"
    back = polycore.format_poly(p, var=var)
    if back != text:
        return f"{text!r} re-formats as {back!r}"
    return None


def word_roundtrip_error(lines, n: int):
    text = "\n".join(lines)
    try:
        word = autmap.parse_word(text, n)
    except ValueError as exc:
        return f"word {lines!r} does not parse: {exc}"
    if autmap.format_word(word) != text:
        return f"word {lines!r} does not re-format to itself"
    return None


# -- plane-decompose ------------------------------------------------------------


PLANE_MATRICES = (((1, 1), (1, 2)), ((2, 1), (1, 1)))


def plane_affine(rng) -> Affine:
    return affine(rng.choice(PLANE_MATRICES), (rng.choice((-1, 1)), rng.choice((-1, 1))))


def plane_word(rng, degrees) -> AutWord:
    """A; E; A; .. ; A with one elementary per entry of degrees.

    The elementaries all add a polynomial in the other variable to the same
    target, and every affine map has a dense matrix of nonzero entries, so
    no affine map is triangular for that target and the coordinate degree
    is exactly the product of the addend degrees.  Each addend is
    +-x^e +- x^(e-1); each shift is +-1 per coordinate.
    """
    target = rng.choice((1, 2))
    other = 3 - target
    gens = [plane_affine(rng)]
    for e in degrees:
        terms = {}
        for k in (e, e - 1):
            mono = [0, 0]
            mono[other - 1] = k
            terms[tuple(mono)] = F(rng.choice((-1, 1)))
        gens += [Elementary(target, Polynomial(2, terms)), plane_affine(rng)]
    return AutWord(2, tuple(gens))


class PlaneDecompose:
    """n = 2 tame words (plane_word) with coordinate degree <= 16."""

    name = "plane-decompose"
    # Addend degrees of one round of the schedule, 40 words.  Sorted by
    # cost: 30% one-step words, 12.5% (2, 2), 20% (3, 2) and (2, 3), 15%
    # (4, 2) and (2, 4), 20% (3, 3) and (2, 2, 2), which cost about the
    # same, and 2.5% (4, 4).  p50 and p90 each fall well inside a group of
    # like words, not near the edge between two groups, so they do not
    # jump with the seed.
    SHAPES = ((2,),) * 4 + ((3,),) * 4 + ((4,),) * 4 + ((2, 2),) * 5 \
        + ((3, 2),) * 4 + ((2, 3),) * 4 + ((4, 2),) * 3 + ((2, 4),) * 3 \
        + ((3, 3),) * 4 + ((2, 2, 2),) * 4 + ((4, 4),)
    ROUNDS = 4
    POINTS = ((F(1, 3), F(-2, 5)), (F(3, 2), F(5, 7)))

    def build(self, rng):
        return [plane_word(rng, shape) for shape in self.SHAPES * self.ROUNDS]

    def run(self, word):
        m = autmap.expand(word)
        return m, jvdk.decompose2(m)

    def check(self, word, out):
        m, dec = out
        if not isinstance(dec, jvdk.Decomposition):
            return f"not decomposed: {dec}"
        if autmap.expand(dec.word) != m:
            return "decomposition does not recompose exactly"
        for point in self.POINTS:
            want = evaluate_word(word, point)
            if tuple(evaluate(c, point) for c in m.coords) != want:
                return f"expanded map disagrees with the word at {point}"
            if evaluate_word(dec.word, point) != want:
                return f"decomposition disagrees with the word at {point}"
        sums = [s.degree_sum_before for s in dec.steps]
        sums += [dec.steps[-1].degree_sum_after] if dec.steps else []
        if sums and sums[0] != sum(std_degree(c) for c in m.coords):
            return f"first degree sum {sums[0]} is not deg f1 + deg f2"
        if any(a <= b for a, b in zip(sums, sums[1:])):
            return f"degree sums do not fall strictly: {sums}"
        if any(s.r < 1 for s in dec.steps):
            return "reduction step with r < 1"
        elementaries = sum(isinstance(g, Elementary) for g in dec.word.gens)
        if elementaries != len(dec.steps):
            return f"{elementaries} elementaries for {len(dec.steps)} steps"
        return None

    def render(self, word, out):
        m, dec = out
        steps = [(str(s.c), s.r, s.swapped, s.degree_sum_before, s.degree_sum_after)
                 for s in dec.steps]
        return "\n".join([autmap.format_map(m), autmap.format_word(dec.word), repr(steps)])


# -- relations-kernel -------------------------------------------------------------


def _det3(m) -> int:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


# The 72 unimodular 0/1 matrices of size 3 with five nonzero entries.
UNIMODULAR3 = tuple(
    m for m in (
        (bits[0:3], bits[3:6], bits[6:9])
        for bits in itertools.product((0, 1), repeat=9) if sum(bits) == 5
    )
    if abs(_det3(m)) == 1
)


class RelationsKernel:
    """n = 3 words A1; E; A2 whose relation ideal is principal.

    A1 and A2 are unimodular 0/1 matrices with five nonzero entries, and A1
    has a single nonzero entry in the target's column, so exactly one
    coordinate of the map carries the addend.  The addend's degree (2 or
    3) and number of terms (1 or 2), which set the cost of a word, follow a
    fixed cycle; the target, A1, A2, the monomials (in the other two
    variables) and the coefficients (+-1..3) are drawn, and a word whose
    ideal is not principal is drawn again during set-up.  Each case carries
    5 query polynomials P, each with one term of each degree 1, 2 and 3.
    """

    name = "relations-kernel"
    SIZE = 160
    QUERIES = 5
    ADDENDS = tuple(itertools.product((2, 3), (1, 2)))  # (degree, terms)

    def _word(self, rng, degree, nterms) -> AutWord:
        target = rng.randint(1, 3)
        others = [i for i in (1, 2, 3) if i != target]
        terms = {}
        while len(terms) < nterms:
            terms[monomial_in(rng, 3, others, degree)] = F(rng.choice((1, -1, 2, -2, 3, -3)))
        outer = rng.choice([m for m in UNIMODULAR3
                            if sum(row[target - 1] for row in m) == 1])
        return AutWord(3, (affine(outer), Elementary(target, Polynomial(3, terms)),
                           affine(rng.choice(UNIMODULAR3))))

    def _query(self, rng) -> Polynomial:
        return Polynomial(3, {monomial_in(rng, 3, (1, 2, 3), degree):
                              F(rng.choice((1, -1, 2, -2, 3, -3, 5, -7)))
                              for degree in (1, 2, 3)})

    def build(self, rng):
        corpus = []
        for i in range(self.SIZE):
            while True:
                word = self._word(rng, *self.ADDENDS[i % len(self.ADDENDS)])
                report = relations.relation_report(word, oracle_shadow=False)
                if report.principal and report.R is not None and not report.R.is_zero():
                    break
            corpus.append((word, tuple(self._query(rng) for _ in range(self.QUERIES))))
        return corpus

    def run(self, case):
        word, queries = case
        report = relations.relation_report(word, oracle_shadow=True)
        lemmas = [relations.check_degree_lemma(word, report.w1, p, report=report)
                  for p in queries]
        return report, lemmas

    def check(self, case, out):
        word, _ = case
        report, lemmas = out
        m = autmap.expand(word)
        d = [std_degree(c) for c in m.coords]
        fbars = []
        for c, dc in zip(m.coords, d):
            fbars.append(Polynomial(3, {mono: v for mono, v in c.terms.items()
                                        if sum(mono) == dc}))
        if list(report.fbars) != fbars:
            return "leading forms differ from the top-degree parts of the map"
        if not report.ideal.gens:
            return "empty relation ideal"
        for g in report.ideal.gens:
            if not polycore.compose(g, fbars).is_zero():
                return f"basis element {g} does not vanish on the leading forms"
        if not (report.principal and report.R is not None and not report.R.is_zero()):
            return "relation ideal is not principal"
        nabla = sum(d) - 3
        deg2 = weighted_degrees(report.R, d)
        if max(deg2) > nabla + 1:
            return f"deg2(R) = {max(deg2)} exceeds nabla + 1 = {nabla + 1}"
        for lhs, rhs, strict, in_ideal in lemmas:
            if not lhs <= rhs or strict != in_ideal:
                return f"degree lemma fails: {lhs} {rhs} {strict} {in_ideal}"
        return None

    def render(self, case, out):
        report, lemmas = out
        return json.dumps(report.to_dict(), sort_keys=True) + "\n" + repr(
            [(str(a), str(b), s, t) for a, b, s, t in lemmas])


# -- lnd-ladder -------------------------------------------------------------------


def _permuted_matrices(base):
    rows = range(len(base))
    return tuple(sorted({
        tuple(tuple(base[p[i]][q[j]] for j in rows) for i in rows)
        for p in itertools.permutations(rows)
        for q in itertools.permutations(rows)
    }))


class LndLadder:
    """n = 3 affine-mixed ladders A; E; A; E; A[; E; A].

    A is a row and column permutation of [[1,1,0],[0,1,1],[1,0,1]] (six
    matrices, determinant +-2, so the ladder's Jacobian is +-2^(k+1)); each
    elementary adds a degree-2 monomial in the other two variables to a
    random coordinate: a square x_j^2 of a random other variable, or the
    product of both.  k = 2 for 98 cases, cycling through the four
    square/product patterns, which fix the cost class of a ladder; k = 3
    for 2 cases at fixed positions, all squares on the three coordinates in
    random order (as in x1 += x2^2; x2 += x3^2; x3 += x1^2).  The k = 3
    share stays well below 10% so that p90 lies among the k = 2 cases.
    """

    name = "lnd-ladder"
    MATRICES = _permuted_matrices(((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    SIZE = 100
    K3_POSITIONS = (25, 75)
    PATTERNS = ((True, True), (True, False), (False, True), (False, False))  # square?

    def _ladder(self, rng, targets, squares) -> AutWord:
        gens = [affine(rng.choice(self.MATRICES))]
        for target, square in zip(targets, squares):
            others = [i for i in (1, 2, 3) if i != target]
            mono = [0, 0, 0]
            for j in [rng.choice(others)] * 2 if square else others:
                mono[j - 1] += 1
            addend = Polynomial(3, {tuple(mono): F(1)})
            gens += [Elementary(target, addend), affine(rng.choice(self.MATRICES))]
        return AutWord(3, tuple(gens))

    def build(self, rng):
        corpus = []
        for i in range(self.SIZE):
            if i in self.K3_POSITIONS:
                corpus.append(self._ladder(rng, rng.sample((1, 2, 3), 3), (True,) * 3))
            else:
                pattern = self.PATTERNS[len(corpus) % len(self.PATTERNS)]
                corpus.append(self._ladder(rng, (rng.randint(1, 3), rng.randint(1, 3)), pattern))
        return corpus

    def run(self, word):
        i, dbar = derivation.lnd_witness(word, WeightVector.standard(3))
        return i, dbar, derivation.is_locally_nilpotent(dbar)

    def check(self, word, out):
        i, dbar, verdict = out
        if not isinstance(verdict, derivation.LocallyNilpotent):
            return f"verdict {verdict}"
        if not 1 <= i <= 3:
            return f"witness index {i}"
        if dbar.is_zero():
            return "zero leading derivation"
        d = [std_degree(c) for c in autmap.expand(word).coords]
        shifts = set()
        for a, dj in zip(dbar.coeffs, d):
            if a.is_zero():
                continue
            degs = weighted_degrees(a, d)
            if len(degs) != 1:
                return "a coefficient of the leading derivation is not d-homogeneous"
            shifts.add(degs.pop() - dj)
        if len(shifts) != 1:
            return f"coefficients have different degrees {sorted(shifts)}"
        return None

    def render(self, word, out):
        i, dbar, verdict = out
        return f"{i}\n{derivation.format_derivation(dbar)}\n{verdict.orders}"


# -- cli-mix ------------------------------------------------------------------------


class CliMix:
    """In-process ``cli.main([.., "--json"])`` calls with stdout captured.

    One round is 32 calls: classify3 on sample_classified for the 13 nonzero
    tags and on sample_forbidden for entries 1..6, then the COMMANDS below
    on small words (n = 2: A; E; A with a degree-2 addend; n = 3: A; E; A
    with a degree-2 monomial addend).  The slowest commands, relations at
    n = 3 and lnd-witness, make up 19% of the calls, so p90 falls inside
    that group.  A forbidden input must exit 1; everything else 0.
    """

    name = "cli-mix"
    ROUNDS = 20
    COMMANDS = (("relations", 2), ("relations", 3), ("relations", 3),
                ("decompose2", 2), ("decompose2", 2),
                ("lnd-witness", 2), ("lnd-witness", 2), ("lnd-witness", 3), ("lnd-witness", 3),
                ("compose", 2), ("compose", 3), ("invert", 2), ("invert", 3))

    def _small_word(self, rng, n):
        if n == 2:
            return plane_word(rng, (2,))
        target = rng.randint(1, 3)
        others = [i for i in (1, 2, 3) if i != target]
        addend = Polynomial(3, {monomial_in(rng, 3, others, 2): F(rng.choice((1, -1, 2)))})
        return AutWord(3, (affine(rng.choice(UNIMODULAR3)), Elementary(target, addend),
                           affine(rng.choice(UNIMODULAR3))))

    def _round(self, rng):
        cases = []
        for tag in classify3.NONZERO_TAGS:
            R, d = classify3.sample_classified(tag, rng)
            cases.append(self._classify_case(R, d, 0, ("tag", tag.value)))
        for entry in classify3.FORBIDDEN_ENTRIES:
            R, d = classify3.sample_forbidden(entry, rng)
            cases.append(self._classify_case(R, d, 1, ("entry", entry)))
        for command, n in self.COMMANDS:
            word = self._small_word(rng, n)
            if command == "decompose2":
                source = ["--map", ";".join(autmap.format_map(autmap.expand(word)).splitlines())]
            else:
                source = ["--word", ";".join(autmap.format_word(word).splitlines())]
            cases.append((["--json", command] + source, 0, (command, n)))
        return cases

    @staticmethod
    def _classify_case(R, d, status, expect):
        weights = ",".join(str(w) for w in d)
        argv = ["--json", "classify3", "--rel=" + polycore.format_poly(R), "--weights", weights]
        return argv, status, expect

    def build(self, rng):
        return [case for _ in range(self.ROUNDS) for case in self._round(rng)]

    def run(self, case):
        argv = case[0]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
        return status, buf.getvalue()

    def check(self, case, out):
        argv, want_status, (kind, value) = case
        status, text = out
        if status != want_status:
            return f"{argv[1]} exited {status}, expected {want_status}"
        try:
            payload = json.loads(text)
        except ValueError:
            return f"{argv[1]} printed no JSON document"
        if kind == "tag":
            if payload.get("tag") != value:
                return f"classified as {payload.get('tag')}, sample is {value}"
            polys = [payload["h"], *payload["params"].values()]
            nf = payload["normal_form"]
            if "canonical_poly" in nf:
                polys.append(nf["canonical_poly"])
                if "fiber" in nf:
                    polys.append(nf["fiber"])
                err = word_roundtrip_error(nf["witness"], 3)
                if err:
                    return err
            return self._first_error(polys, 3)
        if kind == "entry":
            if payload.get("status") != "forbidden" or payload.get("entry") != value:
                return f"forbidden sample {value} reported as {payload}"
            return None
        n = value
        if kind == "relations":
            err = self._first_error(payload["fbars"], n)
            return err or self._first_error(payload["ideal"] + [payload["R"] or "0"], n, "z")
        if kind == "decompose2":
            return word_roundtrip_error(payload["word"], 2)
        if kind == "lnd-witness":
            if payload["verdict"] != "LocallyNilpotent":
                return f"lnd-witness verdict {payload['verdict']}"
            err = self._first_error(payload["leading_derivation"], n)
            return err or self._first_error([payload["R"] or "0"], n, "z")
        if kind == "compose":
            return self._first_error(payload["map"], n)
        err = word_roundtrip_error(payload["word"], n)
        return err or self._first_error(payload["map"], n)

    @staticmethod
    def _first_error(texts, n, var="x"):
        for text in texts:
            err = roundtrip_error(text, n, var)
            if err:
                return err
        return None

    def render(self, case, out):
        status, text = out
        return f"{status}\n{text}"


WORKLOADS = {w.name: w for w in (PlaneDecompose(), RelationsKernel(), LndLadder(), CliMix())}
