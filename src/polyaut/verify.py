"""Seeded property suites over randomly generated tame words.

Each suite draws a deterministic corpus from an explicit seed and checks
one family of exact identities or inequalities case by case:

  jvdk-roundtrip     decompose, recompose exactly, strict degree descent
  lemma-1<2          deg1(P o F) <= deg2(P), strict iff the leading term
                     of P is a relation
  parachute          the k-fold degree minoration
  lnd-witness        witness index inequality, the same leading derivation
                     by the chain rule and by Laplace cofactors, local
                     nilpotence of it, annihilation of principal R
  lnd01              the intertwining Delta_i(P) o F = mu^-1 * d(P o F)/dx_i
  degree-bound       deg2(R) <= d1+..+dn-n+1 for principal kernels
  oracle-agreement   Buchberger kernel == graded linear-algebra oracle up
                     to degree max(nabla+1, top deg2 of a basis member)
  affine-ideal       zero relation ideal exactly for affine words
  classify-soundness classifier round-trip, witness verification, kernel
                     membership of the canonical forms

All verification is exact rational arithmetic; a suite fails only when a
checked identity genuinely fails.  Suites are pure functions of
(seed, count) and independent cases may be sharded freely; results merge
by case index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import classify3
from .autmap import (
    Affine,
    AutWord,
    Elementary,
    Transposition,
    certify,
    expand,
)
from .classify3 import (
    Classified,
    NeedsExtension,
    Tag,
    canonical_lnd,
    classify,
    normalize,
    reconstruct,
    sample_classified,
)
from .derivation import (
    LocallyNilpotent,
    apply,
    delta_derivation,
    derivation_degree,
    is_locally_nilpotent,
    leading_derivation,
    lnd_witness,
)
from .jvdk import decompose2, Decomposition
from .polycore import (
    MINUS_INFINITY,
    Polynomial,
    compose,
    partial,
)
from .relations import (
    _shadow_check,
    check_degree_lemma,
    check_parachute,
    relation_report,
)


@dataclass(frozen=True)
class CaseResult:
    index: int
    ok: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    name: str
    seed: int
    cases: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cases)

    @property
    def failures(self):
        return [c for c in self.cases if not c.ok]


# -- random corpora ----------------------------------------------------------


def random_polynomial(rng: random.Random, n: int, max_terms: int = 4,
                      max_deg: int = 3, coeff_bound: int = 9, *,
                      variables=None, min_deg: int = 0) -> Polynomial:
    """A random nonzero polynomial with small integer coefficients.

    Each term has between min_deg and max_deg variable factors, drawn from
    the 0-based indices in variables (default: all n variables).
    """
    if variables is None:
        variables = range(n)
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            mono = [0] * n
            for _ in range(rng.randint(min_deg, max_deg)):
                mono[rng.choice(variables)] += 1
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                terms[tuple(mono)] = Fraction(c)
        p = Polynomial(n, terms)
        if not p.is_zero():
            return p


def _random_affine(rng: random.Random, n: int) -> Affine:
    while True:
        matrix = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n))
        try:
            return Affine(matrix, tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)))
        except ValueError:
            continue


def _random_generator(rng: random.Random, n: int, mode: str, max_addend_deg: int):
    r = rng.random()
    if mode == "affine":
        kind = "affine" if r < 0.7 else "transposition"
    elif r < 0.6:
        kind = "elementary"
    elif r < 0.85:
        kind = "transposition"
    else:
        kind = "affine"
    if kind == "elementary":
        # The addend is nonconstant and free of the target variable.
        target = rng.randint(1, n)
        others = [i for i in range(n) if i != target - 1]
        return Elementary(target, random_polynomial(
            rng, n, 3, max_addend_deg, variables=others, min_deg=1))
    if kind == "transposition":
        i = rng.randint(1, n)
        j = rng.randint(1, n - 1)
        return Transposition(i, j if j < i else j + 1, n)
    return _random_affine(rng, n)


def random_tame_word(rng: random.Random, n: int, max_gens: int = 6,
                     max_addend_deg: int = 4, max_coord_deg: int = 16,
                     mode: str = "any") -> AutWord:
    """A random word of tame generators whose expansion stays within a
    degree budget; mode selects 'any', 'affine' or 'nonaffine' corpora.

    Outside 'affine' mode the word drawn so far is expanded after each
    draw and abandoned as soon as a coordinate degree leaves the budget, so
    rejected draws never pay for a large expansion.
    """
    for _ in range(2000):
        target_len = rng.randint(1, max_gens)
        word = AutWord(n, ())
        ok = True
        for _ in range(target_len):
            g = _random_generator(rng, n, mode, max_addend_deg)
            word = AutWord(n, word.gens + (g,))
            if mode != "affine":
                m = expand(word)
                degs = [c.total_degree() for c in m.coords]
                if any(d is MINUS_INFINITY or d > max_coord_deg for d in degs):
                    ok = False
                    break
        if not ok:
            continue
        if mode == "affine":
            return word
        if mode == "nonaffine" and max(c.total_degree() for c in m.coords) < 2:
            continue
        return word
    raise RuntimeError("failed to sample a word within the degree budget")


@lru_cache(maxsize=8)
def plane_corpus(seed: int, count: int):
    """The seeded n = 2 corpus, coordinate degree at most 16, shared by the
    decomposition, bound, witness and oracle suites."""
    rng = random.Random(seed)
    return tuple(random_tame_word(rng, 2) for _ in range(count))


@lru_cache(maxsize=8)
def space_corpus_principal(seed: int, count: int):
    """Seeded n = 3 words, coordinate degree at most 6, whose relation ideal
    has a singleton basis."""
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        word = random_tame_word(rng, 3, max_gens=5, max_addend_deg=3,
                                max_coord_deg=6, mode="nonaffine")
        report = relation_report(word, oracle_shadow=False)
        if report.principal and not report.R.is_zero():
            words.append(word)
    return tuple(words)


def _mixed_corpus(seed: int, count: int) -> tuple:
    """The plane corpus followed by max(1, count // 5) principal n = 3 words."""
    return plane_corpus(seed, count) + space_corpus_principal(seed + 3, max(1, count // 5))


def _word_batches(rng: random.Random, count: int, per_word: int, budgets,
                  max_addend_deg: int):
    """Yield (word, case indices) until count cases are covered: each word
    (n = 2 or 3, coordinate degree at most budgets[n - 2]) serves up to
    per_word consecutive cases, which draw from rng before the next word."""
    idx = 0
    while idx < count:
        n = rng.choice([2, 3])
        word = random_tame_word(rng, n, max_gens=4, max_addend_deg=max_addend_deg,
                                max_coord_deg=budgets[n - 2])
        stop = min(idx + per_word, count)
        yield word, range(idx, stop)
        idx = stop


# -- the suites --------------------------------------------------------------


def run_jvdk_roundtrip(seed: int, count: int) -> SuiteResult:
    def cases():
        for idx, word in enumerate(plane_corpus(seed, count)):
            m = expand(word)
            dec = decompose2(m)
            if not isinstance(dec, Decomposition):
                yield CaseResult(idx, False, f"decomposition failed: {dec}")
                continue
            if expand(dec.word) != m:
                yield CaseResult(idx, False, "recomposition mismatch")
                continue
            sums = [s.degree_sum_before for s in dec.steps] + (
                [dec.steps[-1].degree_sum_after] if dec.steps else []
            )
            if any(a <= b for a, b in zip(sums, sums[1:])):
                yield CaseResult(idx, False, f"degree sums not strictly decreasing: {sums}")
                continue
            bad = [
                s for s in dec.steps
                if s.degree_sum_before - s.degree_sum_after <= 0 or s.r < 1
            ]
            if bad:
                yield CaseResult(idx, False, f"bad reduction step {bad[0]}")
                continue
            yield CaseResult(idx, True, f"{len(dec.steps)} steps")

    return SuiteResult("jvdk-roundtrip", seed, tuple(cases()))


def run_lemma_1_2(seed: int, count: int) -> SuiteResult:
    def cases():
        rng = random.Random(seed + 1)
        for word, indices in _word_batches(rng, count, 5, (8, 5), 3):
            n = word.n
            report = relation_report(word)
            for idx in indices:
                p = random_polynomial(rng, n)
                lhs, rhs, strict, tilde_in = check_degree_lemma(
                    word, report.w1, p, report=report
                )
                ok = lhs <= rhs and (strict == tilde_in)
                detail = f"n={n} lhs={lhs} rhs={rhs} strict={strict} in_I={tilde_in}"
                yield CaseResult(idx, ok, detail)

    return SuiteResult("lemma-1<2", seed, tuple(cases()))


def run_parachute(seed: int, count: int) -> SuiteResult:
    def cases():
        rng = random.Random(seed + 2)
        for word, indices in _word_batches(rng, count, 5, (8, 5), 3):
            n = word.n
            cert = certify(word)
            for idx in indices:
                p = random_polynomial(rng, n)
                k = rng.randint(0, 3)
                var = rng.randint(1, n)
                ok = check_parachute(cert, p, k, var=var)
                yield CaseResult(idx, ok, f"n={n} k={k} var={var}")

    return SuiteResult("parachute", seed, tuple(cases()))


def run_lnd_witness(seed: int, count: int) -> SuiteResult:
    def cases():
        for idx, word in enumerate(_mixed_corpus(seed, count)):
            n = word.n
            cert = certify(word)
            report = relation_report(cert)
            try:
                i, dbar = lnd_witness(cert, report.w1)
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                yield CaseResult(idx, False, f"witness failed: {exc}")
                continue
            # The Laplace route, independent of lnd_witness's chain rule.
            delta = delta_derivation(cert.inverse, i, cert.mu)
            if not derivation_degree(delta, report.d) >= -report.w1[i]:
                yield CaseResult(idx, False, "witness inequality fails")
                continue
            if leading_derivation(delta, report.d) != dbar:
                yield CaseResult(idx, False, "leading derivation differs from the Laplace route")
                continue
            verdict = is_locally_nilpotent(dbar)
            if not isinstance(verdict, LocallyNilpotent):
                yield CaseResult(idx, False, f"leading derivation verdict {verdict}")
                continue
            if report.principal and not report.R.is_zero():
                if not apply(dbar, report.R).is_zero():
                    yield CaseResult(idx, False, "leading derivation does not kill R")
                    continue
            yield CaseResult(idx, True, f"n={n} index={i}")

    return SuiteResult("lnd-witness", seed, tuple(cases()))


def run_lnd01(seed: int, count: int) -> SuiteResult:
    def cases():
        rng = random.Random(seed + 4)
        for word, indices in _word_batches(rng, count, 2, (4, 3), 2):
            n = word.n
            cert = certify(word)
            m, mu, inv = cert.m, cert.mu, cert.inverse
            deltas = [delta_derivation(inv, i, mu) for i in range(1, n + 1)]
            for idx in indices:
                p = random_polynomial(rng, n, max_deg=3)
                ok = True
                detail = f"n={n}"
                for i, delta in enumerate(deltas, start=1):
                    lhs = compose(apply(delta, p), m.coords)
                    rhs = partial(compose(p, m.coords), i) * (Fraction(1) / mu)
                    if lhs != rhs:
                        ok = False
                        detail = f"n={n} forward identity fails at i={i}"
                        break
                    lhs2 = apply(delta, compose(p, inv.coords))
                    rhs2 = compose(partial(p, i) * (Fraction(1) / mu), inv.coords)
                    if lhs2 != rhs2:
                        ok = False
                        detail = f"n={n} inverse identity fails at i={i}"
                        break
                yield CaseResult(idx, ok, detail)

    return SuiteResult("lnd01", seed, tuple(cases()))


def run_degree_bound(seed: int, count: int) -> SuiteResult:
    def cases():
        for idx, word in enumerate(_mixed_corpus(seed, count)):
            report = relation_report(word)
            if not report.principal:
                yield CaseResult(idx, True, "kernel not principal; bound vacuous")
                continue
            if report.R.is_zero():
                yield CaseResult(idx, True, "zero ideal")
                continue
            deg = report.deg2_of_R
            ok = (
                deg is not MINUS_INFINITY
                and Fraction(deg).denominator == 1
                and deg <= report.parachute + 1
            )
            yield CaseResult(
                idx, ok, f"deg2(R)={deg} <= nabla+1={report.parachute + 1}"
            )

    return SuiteResult("degree-bound", seed, tuple(cases()))


def run_oracle_agreement(seed: int, count: int) -> SuiteResult:
    def cases():
        for idx, word in enumerate(_mixed_corpus(seed, count)):
            try:
                oracle = _shadow_check(relation_report(word, oracle_shadow=False))
            except Exception as exc:  # noqa: BLE001
                yield CaseResult(idx, False, f"oracle mismatch: {exc}")
                continue
            yield CaseResult(idx, True, f"n={word.n} oracle elements={len(oracle)}")

    return SuiteResult("oracle-agreement", seed, tuple(cases()))


def run_affine_ideal(seed: int, count: int) -> SuiteResult:
    def cases():
        rng = random.Random(seed + 5)
        half = count // 2
        for idx in range(count):
            mode = "affine" if idx < half else "nonaffine"
            n = rng.choice([2, 3])
            budget = 8 if n == 2 else 5
            word = random_tame_word(rng, n, max_gens=4, max_addend_deg=3,
                                    max_coord_deg=budget, mode=mode)
            report = relation_report(word)
            if mode == "affine":
                ok = report.ideal.is_zero_ideal()
                yield CaseResult(idx, ok, f"affine n={n}: ideal zero={ok}")
            else:
                ok = not report.ideal.is_zero_ideal()
                yield CaseResult(idx, ok, f"nonaffine n={n}: ideal nonzero={ok}")

    return SuiteResult("affine-ideal", seed, tuple(cases()))


def run_classify_soundness(seed: int, count: int) -> SuiteResult:
    def cases():
        rng = random.Random(seed + 6)
        tags = [t for t in classify3.NONZERO_TAGS]
        for idx in range(count):
            tag = tags[idx % len(tags)]
            R, d = sample_classified(tag, rng)
            out = classify(R, d)
            if not isinstance(out, Classified) or out.info.tag is not tag:
                yield CaseResult(idx, False, f"{tag.value}: classified as {out}")
                continue
            if reconstruct(out.info) != R:
                yield CaseResult(idx, False, f"{tag.value}: reconstruction mismatch")
                continue
            nf = normalize(out.info)
            if isinstance(nf, NeedsExtension):
                ok = tag in (Tag.T9, Tag.T11)
                yield CaseResult(idx, ok, f"{tag.value}: {nf.reason}")
                continue
            lnd = canonical_lnd(nf)
            if not apply(lnd, nf.canonical_poly).is_zero():
                yield CaseResult(idx, False, f"{tag.value}: canonical LND fails")
                continue
            yield CaseResult(idx, True, f"{tag.value} -> {type(nf.canonical).__name__}")

    return SuiteResult("classify-soundness", seed, tuple(cases()))


SUITES = {
    "jvdk-roundtrip": run_jvdk_roundtrip,
    "lemma-1<2": run_lemma_1_2,
    "lemma-1-2": run_lemma_1_2,  # shell-friendly alias
    "parachute": run_parachute,
    "lnd-witness": run_lnd_witness,
    "lnd01": run_lnd01,
    "degree-bound": run_degree_bound,
    "oracle-agreement": run_oracle_agreement,
    "affine-ideal": run_affine_ideal,
    "classify-soundness": run_classify_soundness,
}


def run_suite(name: str, seed: int, count: int) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(
            f"unknown suite {name!r}; available: {', '.join(sorted(set(SUITES)))}"
        )
    return SUITES[name](seed, count)
