"""Exact Buchberger engine with block elimination orders.

Provides reduced Groebner bases over the rationals, multivariate division
(normal forms), and the two relation-ideal workhorses:

  * kernel_ideal: the kernel of the ring map z_i -> image_i, computed by
    eliminating the x-block from the ideal (z_i - image_i).  When the images
    are the weighted leading terms of an automorphism's coordinates, this
    kernel is the ideal of relations between those leading terms.  Both
    changes of ring (into Q[x, z] and back to Q[z]) are compose calls.
  * graded_kernel_oracle: an independent degree-by-degree linear-algebra
    recomputation of the kernel's graded slices, used to cross-check the
    Buchberger route.  The kernel is homogeneous for the weights d, so each
    slice can be solved as one exact linear system.

A basis member's leading monomial is computed once and travels with it:
buchberger keeps a list beside its working basis, and every IdealBasis is
built with them as lms, which normal_form reads.  Interreduction is one
pass: in a minimal basis no leading monomial divides another, so dividing
a member by the others keeps its leading monomial.  relation_report reads
principality off the reduced basis: it is principal iff it has <= 1 member.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .polycore import Polynomial, WeightVector, _rref, compose


class ResourceCapExceeded(RuntimeError):
    """The S-pair reduction budget was exhausted before the basis stabilized."""


DEFAULT_PAIR_CAP = 100_000


# -- monomial orders ---------------------------------------------------------


@dataclass(frozen=True)
class GradedLex:
    """Weighted degree first, ties broken lexicographically.

    weights = None means the standard grading (all weights 1).  Like every
    monomial order here, monomial a is greater than b iff key(a) > key(b)
    as Python tuples.
    """

    weights: tuple | None = None

    def key(self, exp):
        if self.weights is None:
            return (sum(exp), exp)
        return (sum(e * w for e, w in zip(exp, self.weights)), exp)


@dataclass(frozen=True)
class BlockElimination:
    """Front block of variables dominates: eliminate the first `front` variables.

    The front block is graded by total degree with ties broken
    lexicographically, so any monomial containing a front variable ranks
    above every monomial in the back variables alone.
    """

    front: int
    back_order: GradedLex

    def key(self, exp):
        x = exp[: self.front]
        return ((sum(x), x), self.back_order.key(exp[self.front :]))


MonomialOrder = GradedLex | BlockElimination


def leading_monomial(p: Polynomial, order: MonomialOrder):
    if p.is_zero():
        raise ValueError("zero polynomial has no leading monomial")
    return max(p.support(), key=order.key)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_quot(a, b):
    return tuple(x - y for x, y in zip(a, b))


def monic(p: Polynomial, order: MonomialOrder) -> Polynomial:
    if p.is_zero():
        return p
    return p * (Fraction(1) / p.coeff(leading_monomial(p, order)))


@dataclass(frozen=True)
class IdealBasis:
    """A reduced Groebner basis (monic, pairwise fully reduced, minimal)
    with its monomial order and the leading monomial of each member, which
    its producers already hold and pass as lms.  No member is zero."""

    gens: tuple
    order: MonomialOrder
    n: int
    lms: tuple = field(repr=False, compare=False)

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)


def normal_form(p: Polynomial, basis: IdealBasis) -> Polynomial:
    """Remainder of multivariate division of p by the basis.

    No term of the result is divisible by any basis leading monomial.  The
    basis is a Groebner basis, so the remainder is 0 iff p lies in the ideal.
    """
    return _divide(p, basis.gens, basis.lms, basis.order)


def _divide(p: Polynomial, gens, lms, order: MonomialOrder) -> Polynomial:
    """normal_form's division loop over nonzero gens whose leading monomials
    lms the caller already holds."""
    if not gens:
        return p
    lcs = [g.coeff(lm) for g, lm in zip(gens, lms)]
    remainder = Polynomial.zero(p.n)
    work = p
    while not work.is_zero():
        mono = leading_monomial(work, order)
        coeff = work.coeff(mono)
        for g, lm, lc in zip(gens, lms, lcs):
            if _divides(lm, mono):
                quot = _mono_quot(mono, lm)
                factor = Polynomial.monomial(quot, coeff / lc, p.n)
                work = work - factor * g
                break
        else:
            remainder = remainder + Polynomial.monomial(mono, coeff, p.n)
            work = work - Polynomial.monomial(mono, coeff, p.n)
    return remainder


def divmod_single(p: Polynomial, d: Polynomial,
                  order: MonomialOrder | None = None):
    """Division with remainder by a single divisor: p = q*d + r.

    r is 0 exactly when d divides p (single-divisor division is exact
    membership for principal ideals).
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if order is None:
        order = GradedLex()
    lm = leading_monomial(d, order)
    lc = d.coeff(lm)
    q = Polynomial.zero(p.n)
    r = Polynomial.zero(p.n)
    work = p
    while not work.is_zero():
        mono = leading_monomial(work, order)
        coeff = work.coeff(mono)
        if _divides(lm, mono):
            factor = Polynomial.monomial(_mono_quot(mono, lm), coeff / lc, p.n)
            q = q + factor
            work = work - factor * d
        else:
            t = Polynomial.monomial(mono, coeff, p.n)
            r = r + t
            work = work - t
    return q, r


def _s_pair(f: Polynomial, lf, g: Polynomial, lg) -> Polynomial:
    """The S-polynomial of f and g with leading monomials lf and lg."""
    l = _mono_lcm(lf, lg)
    mf = Polynomial.monomial(_mono_quot(l, lf), 1 / f.coeff(lf), f.n)
    mg = Polynomial.monomial(_mono_quot(l, lg), 1 / g.coeff(lg), g.n)
    return mf * f - mg * g


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder,
               pair_cap: int = DEFAULT_PAIR_CAP) -> IdealBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Deterministic given the input order.  Pairs are processed smallest lcm
    first; the coprime-lcm and chain criteria discard pairs; every
    intermediate polynomial is content-normalized.  Raises
    ResourceCapExceeded after pair_cap S-pair reductions.
    """
    G = [g.primitive() for g in gens if not g.is_zero()]
    if not G:
        n = gens[0].n if gens else 1
        return IdealBasis((), order, n, ())
    n = G[0].n
    lms = [leading_monomial(g, order) for g in G]
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    done = set()
    reductions = 0
    while pairs:
        i, j = min(pairs, key=lambda ij: order.key(_mono_lcm(lms[ij[0]], lms[ij[1]])))
        pairs.remove((i, j))
        done.add((i, j))
        li, lj = lms[i], lms[j]
        l = _mono_lcm(li, lj)
        # Coprime-lcm criterion: S-polynomial reduces to zero automatically.
        if l == tuple(a + b for a, b in zip(li, lj)):
            continue
        # Chain criterion: some k with lm(k) | lcm and both flank pairs done.
        if any(k not in (i, j) and _divides(lms[k], l)
               and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               for k in range(len(G))):
            continue
        reductions += 1
        if reductions > pair_cap:
            raise ResourceCapExceeded(
                f"buchberger exceeded {pair_cap} S-pair reductions"
            )
        rem = _divide(_s_pair(G[i], li, G[j], lj), G, lms, order)
        if rem.is_zero():
            continue
        rem = rem.primitive()
        G.append(rem)
        lms.append(leading_monomial(rem, order))
        new = len(G) - 1
        for k in range(new):
            pairs.add((k, new))
    return _reduce_basis(G, lms, order, n)


def _reduce_basis(G, lms, order, n) -> IdealBasis:
    """Interreduce G, whose leading monomials are lms, to the unique reduced
    (monic) Groebner basis.

    One pass suffices: no kept leading monomial divides another, so dividing
    a member by the others keeps its leading term (it cannot reduce to 0),
    the leading monomials never change, and a reduced member stays reduced.
    """
    # Drop members whose leading monomial is divisible by another's.
    keep, keep_lms = [], []
    for i, g in enumerate(G):
        li = lms[i]
        redundant = any(
            j != i and _divides(lms[j], li) and (lms[j] != li or j < i)
            for j in range(len(G))
        )
        if not redundant:
            keep.append(g)
            keep_lms.append(li)
    # Fully reduce each member against the others, once each, in order.
    if len(keep) > 1:
        for i, g in enumerate(keep):
            others = keep[:i] + keep[i + 1 :]
            keep[i] = _divide(g, others, keep_lms[:i] + keep_lms[i + 1 :], order).primitive()
    ranked = sorted(zip(keep_lms, keep), key=lambda lg: order.key(lg[0]), reverse=True)
    return IdealBasis(tuple(g * (1 / g.coeff(lm)) for lm, g in ranked), order, n,
                      tuple(lm for lm, _ in ranked))


# -- kernels of ring maps ----------------------------------------------------


def kernel_ideal(images: Sequence[Polynomial], dweights: WeightVector,
                 pair_cap: int = DEFAULT_PAIR_CAP) -> IdealBasis:
    """Reduced Groebner basis (in the relation variables z1..zn, graded by
    dweights) of the kernel of z_i -> images[i].

    Computed by eliminating the x-block from the ideal (z_i - images[i]) in
    the combined ring Q[x1..xn, z1..zn]; compose moves the images into that
    ring and the kept members back to Q[z1..zn].  Every returned generator
    G satisfies G(images) = 0 exactly.  A member is x-free iff its leading
    monomial is: under the block order any monomial with an x-part ranks
    above every x-free one.  The x-free members of the reduced block-order
    basis are already monic and sorted for the z-order, with lms the z-parts
    of their block leading monomials: on x-free monomials the block key
    compares by the z-order alone.  relation_report reads principality off
    the size of the result.
    """
    images = list(images)
    if not images:
        raise ValueError("empty image list")
    nx = images[0].n
    nz = len(images)
    if len(dweights) != nz:
        raise ValueError("dweights length must match image count")
    total = nx + nz
    order = BlockElimination(nx, GradedLex(tuple(dweights.weights)))
    xs = [Polynomial.variable(j, total) for j in range(1, nx + 1)]
    gens = [
        Polynomial.variable(nx + i, total) - compose(img, xs)
        for i, img in enumerate(images, start=1)
    ]
    gb = buchberger(gens, order, pair_cap=pair_cap)
    to_z = [Polynomial.zero(nz)] * nx + [Polynomial.variable(i, nz) for i in range(1, nz + 1)]
    kept = [(g, lm) for g, lm in zip(gb.gens, gb.lms) if not any(lm[:nx])]
    return IdealBasis(tuple(compose(g, to_z) for g, _ in kept), order.back_order, nz,
                      tuple(lm[nx:] for _, lm in kept))


# -- independent graded oracle ----------------------------------------------


def _exponents_up_to(d, budget):
    """All exponent tuples a with a . d <= budget (weights d positive)."""
    n = len(d)

    def rec(i, remaining):
        if i == n:
            yield ()
            return
        e = 0
        while e * d[i] <= remaining:
            for rest in rec(i + 1, remaining - e * d[i]):
                yield (e,) + rest
            e += 1

    yield from rec(0, budget)


def graded_kernel_oracle(images: Sequence[Polynomial], dweights: WeightVector,
                         dmax) -> list:
    """Degree-by-degree linear-algebra recomputation of the kernel.

    For each weighted degree D <= dmax, enumerates the monomials z^a with
    a . d = D, expands sum(c_a * images^a) = 0 as an exact linear system and
    returns a basis of solutions as polynomials in the z-variables (monic
    for the dweights-graded lex order).  Independent of the Buchberger route.
    """
    images = list(images)
    nz = len(images)
    if len(dweights) != nz:
        raise ValueError("dweights length must match image count")
    d = list(dweights.weights)
    dmax = Fraction(dmax)
    by_degree: dict = {}
    for alpha in _exponents_up_to(d, dmax):
        deg = sum(e * w for e, w in zip(alpha, d))
        by_degree.setdefault(deg, []).append(alpha)
    # Power caches for the images.
    caches = [[Polynomial.constant(1, images[0].n)] for _ in images]

    def image_power(i, e):
        cache = caches[i]
        while len(cache) <= e:
            cache.append(cache[-1] * images[i])
        return cache[e]

    back = GradedLex(tuple(dweights.weights))
    found = []
    for deg in sorted(by_degree):
        alphas = sorted(by_degree[deg])
        if deg == 0:
            continue  # only the constant monomial; no nonzero relation
        expansions = []
        support = set()
        for alpha in alphas:
            prod = Polynomial.constant(1, images[0].n)
            for i, e in enumerate(alpha):
                if e:
                    prod = prod * image_power(i, e)
            expansions.append(prod)
            support.update(prod.support())
        # One matrix column per candidate monomial, one row per x-monomial.
        columns = _coefficient_rows(expansions, sorted(support))
        rows = list(zip(*columns))
        if not rows:
            rows = [[Fraction(0)] * len(columns)]
        # The nullspace, read from the RREF: one vector per free column.
        reduced, pivots, _ = _rref(rows)
        for fc in range(len(columns)):
            if fc in pivots:
                continue
            vec = [Fraction(0)] * len(columns)
            vec[fc] = Fraction(1)
            for row, pc in zip(reduced, pivots):
                vec[pc] = -row[fc]
            poly = Polynomial(nz, {alpha: c for alpha, c in zip(alphas, vec) if c})
            found.append(monic(poly, back))
    return found


def _coefficient_rows(polys, support) -> list:
    """One dense row of Fraction coefficients per polynomial, over the sorted
    monomial list support (which holds every monomial of every polynomial)."""
    index = {m: i for i, m in enumerate(support)}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(support)
        for m in p.support():
            row[index[m]] = p.coeff(m)
        rows.append(row)
    return rows


def span_contains(vectors: Sequence[Polynomial], target: Polynomial) -> bool:
    """Exact linear-span membership test for polynomials (as coefficient vectors)."""
    support = sorted(set(itertools.chain(target.support(), *(v.support() for v in vectors))))
    *rows, tvec = _coefficient_rows((*vectors, target), support)
    # Reduce tvec against the pivot rows of the RREF.
    reduced, pivots, _ = _rref(rows)
    for row, col in zip(reduced, pivots):
        f = tvec[col]
        if f != 0:
            tvec = [a - f * b for a, b in zip(tvec, row)]
    return all(a == 0 for a in tvec)
