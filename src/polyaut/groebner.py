"""Exact Buchberger engine with block elimination orders.

Provides reduced Groebner bases over the rationals, multivariate division
(normal forms), and the two relation-ideal workhorses:

  * kernel_ideal: the kernel of the ring map z_i -> image_i, computed by
    eliminating the x-block from the ideal (z_i - image_i).  When the images
    are the weighted leading terms of an automorphism's coordinates, this
    kernel is the ideal of relations between those leading terms.  Both
    changes of ring (into Q[x, z] and back to Q[z]) move packed exponents
    by a shift: the x fields sit above the z fields.
  * graded_kernel_oracle: an independent degree-by-degree linear-algebra
    recomputation of the kernel's graded slices, used to cross-check the
    Buchberger route.  The kernel is homogeneous for the weights d, so each
    slice can be solved as one exact linear system, of compose's power
    products.  Its matrices and span_contains' [vectors | target] come from
    one builder, _coefficient_matrix, of int entries, and each ends in one
    polycore._rref.

A monomial order is a WeightVector (weighted degree, ties broken
lexicographically) or a BlockElimination over one.  It ranks packed
exponents (polycore's one int per monomial) by one int key, built by
_packed_key(order, n) from the weights the WeightVector scaled to ints
once.  The key is additive, key(a + b) = key(a) + key(b), and keeps the
packed exponent in its low FIELD_BITS * n bits.  Division
therefore runs in place on one dict {key: int numerator} over one
denominator: each step pops the largest key and subtracts a fraction-free
multiple of a divisor shifted by adding keys, and no Polynomial or Fraction
is built per step.

A basis member's leading monomial is computed once and travels with it:
buchberger keeps a list beside its working basis, and every IdealBasis is
built with them as lms.  An IdealBasis builds its division form (the order
key and one _Divisor per member) from them on its first normal_form and
keeps it for every later one.  Interreduction is one
pass: in a minimal basis no leading monomial divides another, so dividing
a member by the others keeps its leading monomial.  relation_report reads
principality off the reduced basis: it is principal iff it has <= 1 member.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, lcm
from operator import add, le, mul, sub
from typing import NamedTuple, Sequence

from .polycore import (
    FIELD_BITS,
    MAX_EXPONENT,
    Polynomial,
    ResourceCapExceeded,
    WeightVector,
    _canon,
    _check_exponents,
    _degrees,
    _pack,
    _poly,
    _power_products,
    _rref,
    _unpacker,
)


#: The most S-pair reductions one buchberger call makes; ResourceCapExceeded past it.
MAX_S_PAIRS = 100_000


# -- monomial orders ---------------------------------------------------------


def _linear_key(prefix, n: int):
    """The key sum(a_i * prefix_i) << FIELD_BITS * n | a of a packed exponent
    a = (a_1..a_n); additive because the packed exponent is."""
    unpack = _unpacker(n)
    shift = FIELD_BITS * n
    return lambda a: sum(map(mul, unpack(a), prefix)) << shift | a


@dataclass(frozen=True)
class BlockElimination:
    """Front block of variables dominates: eliminate the first `front` variables.

    The front block is graded by total degree with ties broken
    lexicographically, so any monomial containing a front variable ranks
    above every monomial in the back variables alone.  Monomials with equal
    front parts compare by back_order.
    """

    front: int
    back_order: WeightVector


#: A WeightVector orders monomials by weighted degree, ties broken
#: lexicographically.
MonomialOrder = WeightVector | BlockElimination


def _packed_key(order: MonomialOrder, n: int):
    """The int key of order on n variables: monomial a is greater than b
    iff key(a) > key(b) for their packed exponents.  For a front part x
    and weights d on the back part z (all n variables for a WeightVector,
    x empty) the key is ((sum x, x), (wdeg z, z)) as one int: the fields
    sum x, x and the scaled wdeg z above the packed exponent, whose low
    bits are z."""
    nx, back = (0, order) if isinstance(order, WeightVector) else (order.front, order.back_order)
    ws = back._int_form[1]
    if len(ws) != n - nx:
        raise ValueError(f"order has {len(ws)} weights, not {n - nx}")
    wbits = (MAX_EXPONENT * sum(ws)).bit_length()
    xs = [(1 << FIELD_BITS * nx | 1 << FIELD_BITS * (nx - 1 - i)) << wbits
          for i in range(nx)]
    return _linear_key(xs + list(ws), n)


def _divides(a, b) -> bool:
    return all(map(le, a, b))


def _mono_lcm(a, b):
    return tuple(map(max, a, b))


@dataclass(frozen=True)
class IdealBasis:
    """A reduced Groebner basis (monic, pairwise fully reduced, minimal)
    with its monomial order and the leading monomial of each member, which
    its producers already hold and pass as lms.  No member is zero.

    _division, the basis as division reads it (the order key and one
    _Divisor per member), is a memo: built from the fields on the first
    normal_form and kept for every later one.  It is not a field, so it is
    neither compared nor hashed."""

    gens: tuple
    order: MonomialOrder
    n: int
    lms: tuple = field(repr=False, compare=False)

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def __len__(self):
        return len(self.gens)

    @cached_property
    def _division(self) -> tuple:
        key = _packed_key(self.order, self.n)
        return key, [_divisor(g, key, lm) for g, lm in zip(self.gens, self.lms)]


# -- division on order keys ---------------------------------------------------


class _Divisor(NamedTuple):
    """A nonzero polynomial g as division reads it, through its integer
    multiple with content 1 and a positive leading coefficient: the leading
    monomial lm, its key, that leading coefficient lead, and the other
    terms of the multiple as (key, numerator) pairs."""

    lm: tuple
    key: int
    lead: int
    tail: list
    g: Polynomial


def _divisor(g: Polynomial, key, lm=None) -> _Divisor:
    """g read for division under the order key; lm is g's leading monomial
    when the caller holds it."""
    if lm is None:
        k = max(g._nums, key=key)
        lm = _unpacker(g.n)(k)
    else:
        k = _pack(lm, g.n)
    content = gcd(*g._nums.values())
    if g._nums[k] < 0:
        content = -content
    tail = [(key(t), c // content) for t, c in g._nums.items() if t != k]
    return _Divisor(lm, key(k), g._nums[k] // content, tail, g)


def _check_shift(mono, div: _Divisor):
    """Raise ExponentOverflow when x^(mono - div.lm) * div.g has an exponent
    above MAX_EXPONENT."""
    if max(mono) + div.g._ebound > MAX_EXPONENT:
        _check_exponents(map(add, map(sub, mono, div.lm), _degrees(div.g)))


def _reduce(work: dict, den: int, divisors, n: int, quotient=None) -> Polynomial:
    """The remainder of dividing work / den by the divisors, consuming work.

    work maps order keys to nonzero int numerators.  Each step pops the
    largest key; the first divisor whose leading monomial divides it
    cancels it, scaling work and den by lead / gcd(c, lead) first when that
    is not 1, and otherwise the term joins the remainder with the
    denominator of that step.  When quotient is a list, each step appends
    (key of x^q, b, den) for the subtracted (b / den) * x^q times the
    integer multiple of g of a single divisor.
    """
    mask = (1 << FIELD_BITS * n) - 1
    unpack = _unpacker(n)
    rest = []
    top = 0
    while work:
        k = max(work)
        c = work.pop(k)
        mono = unpack(k & mask)
        for div in divisors:
            if all(map(le, div.lm, mono)):
                break
        else:
            rest.append((k & mask, c, den))
            top = max(top, *mono)
            continue
        _check_shift(mono, div)
        h = gcd(c, div.lead)
        if h != div.lead:
            s = div.lead // h
            den *= s
            for t in work:
                work[t] *= s
        b = c // h
        q = k - div.key
        if quotient is not None:
            quotient.append((q, b, den))
        get = work.get
        for kt, ct in div.tail:
            t = q + kt
            v = get(t, 0) - b * ct
            if v:
                work[t] = v
            else:
                del work[t]
    return _collect(rest, den, n, top)


def _collect(terms, den: int, n: int, ebound: int) -> Polynomial:
    """The polynomial sum(num / d * x^a) of (packed a, num, d) terms with
    distinct a, each d dividing den."""
    if not terms:
        return _poly(n, {}, 1, 0)
    return _canon(n, {a: c * (den // d) for a, c, d in terms}, den, ebound)


def _remainder(p: Polynomial, divisors, key, quotient=None) -> Polynomial:
    return _reduce({key(a): c for a, c in p._nums.items()}, p.den, divisors, p.n, quotient)


def normal_form(p: Polynomial, basis: IdealBasis) -> Polynomial:
    """Remainder of multivariate division of p by the basis.

    No term of the result is divisible by any basis leading monomial.  The
    basis is a Groebner basis, so the remainder is 0 iff p lies in the ideal.
    The division reads the basis's kept division form.
    """
    if p.n != basis.n:
        raise ValueError(f"polynomial has {p.n} variables, the basis {basis.n}")
    if not basis.gens:
        return p
    key, divisors = basis._division
    return _remainder(p, divisors, key)


def _divide(p: Polynomial, gens, lms, order: MonomialOrder) -> Polynomial:
    """The remainder of p by nonzero gens that no IdealBasis holds, whose
    leading monomials lms the caller already holds."""
    if not gens:
        return p
    key = _packed_key(order, p.n)
    return _remainder(p, [_divisor(g, key, lm) for g, lm in zip(gens, lms)], key)


def divmod_single(p: Polynomial, d: Polynomial,
                  order: MonomialOrder | None = None):
    """Division with remainder by a single divisor: p = q*d + r, under
    order, by default the standard grading WeightVector.standard(p.n).

    r is 0 exactly when d divides p (single-divisor division is exact
    membership for principal ideals).  The division runs on the integer
    multiple c*d of _divisor, and q is scaled by c once at the end.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if order is None:
        order = WeightVector.standard(p.n)
    key = _packed_key(order, p.n)
    div = _divisor(d, key)
    steps = []
    r = _remainder(p, [div], key, steps)
    mask = (1 << FIELD_BITS * p.n) - 1
    unpack = _unpacker(p.n)
    terms = [(k & mask, b, e) for k, b, e in steps]
    ebound = max((max(unpack(a)) for a, _, _ in terms), default=0)
    # The steps subtracted sum((b / den) * x^q) * c * d, and c * d has the
    # leading coefficient div.lead where d has d._nums[lm] / d.den.
    q = _collect(terms, steps[-1][2] if steps else 1, p.n, ebound)
    return q * Fraction(d.den * div.lead, d._nums[div.key & mask]), r


def _s_pair(f: _Divisor, g: _Divisor, kl: int, l) -> dict:
    """A positive integer multiple of the S-polynomial of f and g, whose
    leading monomials have lcm l with key kl, as {key: numerator} without
    the cancelled leading terms."""
    _check_shift(l, f)
    _check_shift(l, g)
    qf, qg = kl - f.key, kl - g.key
    work = {qf + kt: g.lead * c for kt, c in f.tail}
    get = work.get
    for kt, c in g.tail:
        t = qg + kt
        v = get(t, 0) - f.lead * c
        if v:
            work[t] = v
        else:
            del work[t]
    return work


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder) -> IdealBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Deterministic given the input order.  Pairs are processed smallest lcm
    first; the coprime-lcm and chain criteria discard pairs; every
    intermediate polynomial is content-normalized.  Raises
    ResourceCapExceeded past MAX_S_PAIRS S-pair reductions (read per call).
    """
    G = [g.primitive() for g in gens if not g.is_zero()]
    if not G:
        n = gens[0].n if gens else 1
        return IdealBasis((), order, n, ())
    n = G[0].n
    key = _packed_key(order, n)
    divs = [_divisor(g, key) for g in G]
    # The lcm of each pair's leading monomials, with its key.
    lcms = {}

    def add_lcms(j):
        for i in range(j):
            l = _mono_lcm(divs[i].lm, divs[j].lm)
            lcms[i, j] = (key(_pack(l, n)), l)

    for j in range(len(divs)):
        add_lcms(j)
    pairs = {(i, j) for i in range(len(divs)) for j in range(i + 1, len(divs))}
    done = set()
    reductions = 0
    while pairs:
        i, j = min(pairs, key=lambda ij: lcms[ij][0])
        pairs.remove((i, j))
        done.add((i, j))
        kl, l = lcms[i, j]
        li, lj = divs[i].lm, divs[j].lm
        # Coprime-lcm criterion: S-polynomial reduces to zero automatically.
        if l == tuple(map(add, li, lj)):
            continue
        # Chain criterion: some k with lm(k) | lcm and both flank pairs done.
        if any(k not in (i, j) and _divides(divs[k].lm, l)
               and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               for k in range(len(divs))):
            continue
        reductions += 1
        if reductions > MAX_S_PAIRS:
            raise ResourceCapExceeded(
                f"buchberger exceeded {MAX_S_PAIRS} S-pair reductions"
            )
        rem = _reduce(_s_pair(divs[i], divs[j], kl, l), 1, divs, n)
        if rem.is_zero():
            continue
        divs.append(_divisor(rem.primitive(), key))
        new = len(divs) - 1
        add_lcms(new)
        for k in range(new):
            pairs.add((k, new))
    return _reduce_basis(divs, order, key, n)


def _reduce_basis(divs, order, key, n) -> IdealBasis:
    """Interreduce the divisors of a Groebner basis to the unique reduced
    (monic) Groebner basis.

    One pass suffices: no kept leading monomial divides another, so dividing
    a member by the others keeps its leading term (it cannot reduce to 0),
    the leading monomials never change, and a reduced member stays reduced.
    """
    # Drop members whose leading monomial is divisible by another's.
    keep = [
        d for i, d in enumerate(divs)
        if not any(j != i and _divides(e.lm, d.lm) and (e.lm != d.lm or j < i)
                   for j, e in enumerate(divs))
    ]
    # Fully reduce each member against the others, once each, in order.
    if len(keep) > 1:
        for i, d in enumerate(keep):
            g = _remainder(d.g, keep[:i] + keep[i + 1 :], key).primitive()
            keep[i] = _divisor(g, key, d.lm)
    keep.sort(key=lambda d: d.key, reverse=True)
    return IdealBasis(tuple(d.g * (1 / d.g.coeff(d.lm)) for d in keep), order, n,
                      tuple(d.lm for d in keep))


# -- kernels of ring maps ----------------------------------------------------


def kernel_ideal(images: Sequence[Polynomial], dweights: WeightVector) -> IdealBasis:
    """Reduced Groebner basis (in the relation variables z1..zn, graded by
    dweights) of the kernel of z_i -> images[i].

    Computed by eliminating the x-block from the ideal (z_i - images[i]) in
    the combined ring Q[x1..xn, z1..zn], whose packed exponents hold the x
    fields above the z fields.  An image enters that ring with its packed
    exponents shifted up past the z fields, and a kept member leaves for
    Q[z1..zn] with its packed exponents as they are, since its x fields are
    zero.  Every returned generator G satisfies G(images) = 0 exactly.  A
    member is x-free iff its leading monomial is: under the block order any
    monomial with an x-part ranks above every x-free one.  The x-free
    members of the reduced block-order basis are already monic and sorted
    for the z-order, with lms the z-parts of their block leading monomials:
    on x-free monomials the block key compares by the z-order alone.
    relation_report reads principality off the size of the result.
    """
    images = list(images)
    if not images:
        raise ValueError("empty image list")
    nx = images[0].n
    if any(img.n != nx for img in images):
        raise ValueError("images have inconsistent variable counts")
    nz = len(images)
    total = nx + nz
    shift = FIELD_BITS * nz
    gens = [
        Polynomial.variable(nx + i, total)
        - _poly(total, {k << shift: c for k, c in img._nums.items()}, img.den, img._ebound)
        for i, img in enumerate(images, start=1)
    ]
    gb = buchberger(gens, BlockElimination(nx, dweights))
    kept = [(g, lm) for g, lm in zip(gb.gens, gb.lms) if not any(lm[:nx])]
    return IdealBasis(tuple(_poly(nz, g._nums, g.den, g._ebound) for g, _ in kept),
                      dweights, nz, tuple(lm[nx:] for _, lm in kept))


# -- independent graded oracle ----------------------------------------------


def _exponents_up_to(d, budget):
    """All exponent tuples a with a . d <= budget (weights d positive ints)."""
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
    returns a basis of solutions as polynomials in the z-variables, monic
    for the dweights-graded lex order by construction: a slice has one
    weighted degree, and a solution's lex largest monomial is its free
    column's, with coefficient 1.  The images^a are compose's cached power
    products (polycore._power_products).  Independent of the Buchberger route.
    """
    images = list(images)
    nz = len(images)
    if len(dweights) != nz:
        raise ValueError("dweights length must match image count")
    # Degrees scaled to ints by the common denominator s of the weights.
    s, d = dweights._int_form
    by_degree: dict = {}
    for alpha in _exponents_up_to(d, floor(Fraction(dmax) * s)):
        by_degree.setdefault(sum(map(mul, alpha, d)), []).append(alpha)
    # Degree 0 holds only the constant monomial: no nonzero relation.
    slices = [sorted(by_degree[deg]) for deg in sorted(by_degree) if deg]
    products = _power_products(itertools.chain.from_iterable(slices), images)
    found = []
    for alphas in slices:
        # One matrix column per candidate monomial, one row per x-monomial.
        reduced, pivots, _ = _rref(_coefficient_matrix(
            list(itertools.islice(products, len(alphas)))))
        keys = [_pack(alpha, nz) for alpha in alphas]
        ebound = max(map(max, alphas))
        # The nullspace, read from the RREF: one vector per free column fc,
        # with 1 at fc and nonzero entries only at pivot columns left of fc,
        # as int numerators over the lcm of the entries' denominators (so
        # already canonical).
        for fc in range(len(alphas)):
            if fc in pivots:
                continue
            entries = [(keys[pc], row[fc]) for row, pc in zip(reduced, pivots) if row[fc]]
            den = lcm(*[e.denominator for _, e in entries])
            nums = {k: -e.numerator * (den // e.denominator) for k, e in entries}
            nums[keys[fc]] = den
            found.append(_poly(nz, nums, den, ebound))
    return found


def _coefficient_matrix(polys) -> list:
    """The dense matrix of the polynomials' coefficients, times the lcm L
    of their denominators: one row per monomial of their joint support, in
    increasing packed (lex) order, and one column per polynomial.  The
    entries are ints; the scaling by L leaves the reduced form unchanged."""
    support = sorted(set().union(*(p._nums for p in polys)))
    l = lcm(*[p.den for p in polys])
    columns = [(p._nums, l // p.den) for p in polys]
    return [[nums.get(k, 0) * f for nums, f in columns] for k in support]


def span_contains(vectors: Sequence[Polynomial], target: Polynomial) -> bool:
    """Exact linear-span membership test for polynomials (as coefficient
    vectors): target lies in the span iff the target column of the
    augmented matrix [vectors | target] has no pivot."""
    vectors = list(vectors)
    return len(vectors) not in _rref(_coefficient_matrix(vectors + [target]))[1]
