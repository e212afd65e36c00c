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
exponents (polycore's one int per monomial, a 64-bit field per variable
holding an exponent below 2^32) by one int key, built by _packed_key(order,
n).  The key is additive, key(a + b) = key(a) + key(b), and keeps the
packed exponent in its low FIELD_BITS * n bits.  Its fields above those
are linear forms of the exponent, each the WeightVector's own _form (the
total degree of the front block, the weighted degree of the back block).
Division therefore runs in place on one dict {key: int numerator} over one
denominator: each step pops the largest key and subtracts a fraction-free
multiple of a divisor shifted by adding keys, and no Polynomial or Fraction
is built per step.  Whether a leading monomial divides the popped one is a
borrow test on the two packed exponents (_divides), exact for every
exponent because each field has 32 bits of headroom.  The headroom also
holds a shifted term past MAX_EXPONENT exactly; its guard bits
(polycore._overflow_mask) raise ExponentOverflow when it is popped.

A leading monomial is one packed int: a _Divisor holds it as mono, the
low bits of its largest key.  A pair's lcm is the field-wise maximum of
the two (polycore._join), a borrow test like _divides, and its key is the
order key of that packed exponent.  An IdealBasis builds its division form
(the order key and one _Divisor per member) on its first normal_form and
keeps it for every later one.  Interreduction is one pass on the members'
keyed integer form (_reduce_basis): in a minimal basis no leading monomial
divides another, so dividing a member's tail by the others keeps its
leading term, a member with no tail term to divide is kept as it is, and
each monic generator is the integer multiple over its leading
coefficient, with no Fraction.  relation_report reads principality off the
reduced basis: it is principal iff it has <= 1 member.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .polycore import (
    FIELD_BITS,
    MAX_EXPONENT,
    Polynomial,
    ResourceCapExceeded,
    WeightVector,
    _canon,
    _check_exponents,
    _join,
    _overflow_mask,
    _pack,
    _poly,
    _power_products,
    _rref,
    _top_bits,
    _unpacker,
)


#: The most S-pair reductions one buchberger call makes; ResourceCapExceeded past it.
MAX_S_PAIRS = 100_000
#: The most monomials z^a one graded_kernel_oracle call enumerates, counted
#: before any slice is eliminated; ResourceCapExceeded past it.  No test,
#: demo, verify suite or benchmark corpus needs more than 24.
MAX_ORACLE_MONOMIALS = 100_000
#: The most division steps (terms cancelled by a divisor) one _reduce call
#: takes, in Buchberger's S-pair reductions, interreduction and
#: normal_form; ResourceCapExceeded past it.  No test, demo, default verify
#: suite or seed-1 benchmark corpus takes more than 27 in one call.
MAX_DIVISION_STEPS = 100_000


# -- monomial orders ---------------------------------------------------------


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
    bits are z.  wdeg z is the back order's _form of z, and sum x the
    standard WeightVector's of x, the packed exponent shifted down past z."""
    nx, back = (0, order) if isinstance(order, WeightVector) else (order.front, order.back_order)
    ws = back._int_form[1]
    nz = len(ws)
    if nz != n - nx:
        raise ValueError(f"order has {nz} weights, not {n - nx}")
    wdeg = back._form
    shift = FIELD_BITS * n
    if not nx:
        return lambda a: wdeg(a) << shift | a
    total = WeightVector.standard(nx)._form
    wbits = (MAX_EXPONENT * sum(ws)).bit_length()
    zbits = FIELD_BITS * nz
    zmask = (1 << zbits) - 1

    def key(a):
        x = a >> zbits
        front = total(x) << FIELD_BITS * nx | x
        return (front << wbits | wdeg(a & zmask)) << shift | a

    return key


def _divides(lm: int, a: int, n: int) -> bool:
    """Whether the packed exponent lm divides a: lm | a iff ((a | H) - lm)
    & H == H for H the top bit of each field (polycore._top_bits).  Every
    exponent is below that bit, so a field of (a | H) - lm keeps it iff
    a_i >= lm_i and never borrows from the next."""
    high = _top_bits(n)
    return (a | high) - lm & high == high


@dataclass(frozen=True)
class IdealBasis:
    """A reduced Groebner basis (monic, pairwise fully reduced, minimal)
    with its monomial order, sorted by descending leading monomial.  No
    member is zero.

    _division, the basis as division reads it (the order key and one
    _Divisor per member, each finding its leading monomial as its largest
    key), is a memo: built from the fields on the first normal_form and
    kept for every later one.  It is not a field, so it is neither
    compared nor hashed."""

    gens: tuple
    order: MonomialOrder
    n: int

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def __len__(self):
        return len(self.gens)

    @cached_property
    def _division(self) -> tuple:
        key = _packed_key(self.order, self.n)
        return key, [_divisor(g, key) for g in self.gens]


# -- division on order keys ---------------------------------------------------


class _Divisor(NamedTuple):
    """A nonzero polynomial g as division reads it, through its integer
    multiple with content 1 and a positive leading coefficient: the packed
    leading monomial mono, its key, that leading coefficient lead, and the
    other terms of the multiple as (key, numerator) pairs."""

    mono: int
    key: int
    lead: int
    tail: list


def _divisor(g: Polynomial, key) -> _Divisor:
    """g read for division under the order key: its leading term is at
    the largest of the keys of its terms."""
    keyed = {key(t): c for t, c in g._nums.items()}
    k = max(keyed)
    lead = keyed.pop(k)
    return _primitive_divisor(k, lead, keyed.items(), g.n)


def _primitive_divisor(k: int, lead: int, tail, n: int) -> _Divisor:
    """The _Divisor of the integer polynomial with leading term lead at key
    k and the other terms tail, (key, numerator) pairs, divided by its
    content and signed so that lead is positive."""
    content = gcd(lead, *(c for _, c in tail))
    if lead < 0:
        content = -content
    mono = k & (1 << FIELD_BITS * n) - 1
    return _Divisor(mono, k, lead // content, [(t, c // content) for t, c in tail])


def _reduce(work: dict, den: int, divisors, n: int, quotient=None):
    """Divide work / den by the divisors, consuming work; return the
    remainder as (terms, den): its terms (key, numerator, d), each worth
    numerator / d, in decreasing key order, and the final denominator
    (every d divides it).

    work maps order keys to nonzero int numerators.  Each step pops the
    largest key, raising ExponentOverflow for a guard bit (_overflow_mask)
    in its packed exponent; the first divisor whose leading monomial
    divides it cancels it, scaling work and den by lead / gcd(c, lead)
    first when that is not 1, and otherwise the term joins the remainder
    with the denominator of that step.  Divisibility is the borrow test of
    _divides on the packed exponent.  When quotient is a list, each step
    appends (key of x^q, b, den) for the subtracted (b / den) * x^q times
    the integer multiple of g of a single divisor.  A step past
    MAX_DIVISION_STEPS (read per call) raises ResourceCapExceeded.
    """
    mask = (1 << FIELD_BITS * n) - 1
    high = _top_bits(n)
    guard = _overflow_mask(n)
    rest = []
    steps = MAX_DIVISION_STEPS
    while work:
        k = max(work)
        c = work.pop(k)
        a = k & mask
        if a & guard:
            _check_exponents(_unpacker(n)(a))
        probe = a | high
        for div in divisors:
            if probe - div.mono & high == high:
                break
        else:
            rest.append((k, c, den))
            continue
        if not steps:
            raise ResourceCapExceeded(f"a division exceeded {MAX_DIVISION_STEPS} steps")
        steps -= 1
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
    return rest, den


def _collect(terms, den: int, n: int) -> Polynomial:
    """The polynomial sum(num / d * x^a) of (key, num, d) terms whose
    packed exponents a, the low FIELD_BITS * n bits of the keys, are
    distinct, each d dividing den."""
    mask = (1 << FIELD_BITS * n) - 1
    return _canon(n, {k & mask: c * (den // d) for k, c, d in terms}, den)


def _remainder(p: Polynomial, divisors, key, quotient=None) -> Polynomial:
    work = {key(a): c for a, c in p._nums.items()}
    return _collect(*_reduce(work, p.den, divisors, p.n, quotient), p.n)


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


def divmod_single(p: Polynomial, d: Polynomial,
                  order: MonomialOrder | None = None):
    """Division with remainder by a single divisor: p = q*d + r, under
    order, by default the standard grading WeightVector.standard(p.n).

    r is 0 exactly when d divides p (single-divisor division is exact
    membership for principal ideals).  The division runs on the integer
    multiple c*d of _divisor, and q is scaled by c once at the end.
    """
    if p.n != d.n:
        raise ValueError(f"polynomial has {p.n} variables, the divisor {d.n}")
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if order is None:
        order = WeightVector.standard(p.n)
    key = _packed_key(order, p.n)
    div = _divisor(d, key)
    steps = []
    r = _remainder(p, [div], key, steps)
    # The steps subtracted sum((b / den) * x^q) * c * d, and c * d has the
    # leading coefficient div.lead where d has d._nums[lm] / d.den.
    q = _collect(steps, steps[-1][2] if steps else 1, p.n)
    return q * Fraction(d.den * div.lead, d._nums[div.mono]), r


def _s_pair(f: _Divisor, g: _Divisor, kl: int) -> dict:
    """A positive integer multiple of the S-polynomial of f and g, whose
    leading monomials have an lcm with key kl, as {key: numerator} without
    the cancelled leading terms; _reduce finds an exponent past MAX_EXPONENT."""
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
    intermediate polynomial is content-normalized: each generator and each
    nonzero S-pair remainder becomes a _Divisor, the remainder straight
    from the keyed terms of _reduce, whose first is the leading one.
    Raises ResourceCapExceeded past MAX_S_PAIRS S-pair reductions, or
    past MAX_DIVISION_STEPS steps in one division (each read per call).
    """
    n = gens[0].n if gens else 1
    if any(g.n != n for g in gens):
        raise ValueError("generators have inconsistent variable counts")
    G = [g for g in gens if not g.is_zero()]
    if not G:
        return IdealBasis((), order, n)
    key = _packed_key(order, n)
    divs = [_divisor(g, key) for g in G]
    # The lcm of each pair's leading monomials: its key and packed form.
    lcms = {}

    def add_lcms(j):
        for i in range(j):
            packed = _join((divs[i].mono, divs[j].mono), n)
            lcms[i, j] = (key(packed), packed)

    for j in range(len(divs)):
        add_lcms(j)
    pairs = {(i, j) for i in range(len(divs)) for j in range(i + 1, len(divs))}
    reductions = 0
    while pairs:
        i, j = min(pairs, key=lambda ij: lcms[ij][0])
        pairs.remove((i, j))
        kl, packed = lcms[i, j]
        # Coprime-lcm criterion: S-polynomial reduces to zero automatically.
        if packed == divs[i].mono + divs[j].mono:
            continue
        # Chain criterion: some k with lm(k) | lcm and both flank pairs
        # processed; every pair of existing members is pending until then.
        if any(k not in (i, j) and _divides(divs[k].mono, packed, n)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k in range(len(divs))):
            continue
        reductions += 1
        if reductions > MAX_S_PAIRS:
            raise ResourceCapExceeded(
                f"buchberger exceeded {MAX_S_PAIRS} S-pair reductions"
            )
        rest, den = _reduce(_s_pair(divs[i], divs[j], kl), 1, divs, n)
        if not rest:
            continue
        (klead, lead), *tail = [(kt, c * (den // d)) for kt, c, d in rest]
        divs.append(_primitive_divisor(klead, lead, tail, n))
        new = len(divs) - 1
        add_lcms(new)
        for k in range(new):
            pairs.add((k, new))
    return _reduce_basis(divs, order, n)


def _reduce_basis(divs, order, n) -> IdealBasis:
    """Interreduce the divisors of a Groebner basis to the unique reduced
    (monic) Groebner basis, on their keyed integer form.

    One pass suffices: no kept leading monomial divides another, so dividing
    a member by the others keeps its leading term (it cannot reduce to 0),
    the leading monomials never change, and a reduced member stays reduced.
    A member none of whose tail terms another's leading monomial divides is
    reduced already and kept as it is; any other has its keyed tail divided
    by the others.  Each monic generator is the integer multiple over its
    leading coefficient lead, which is already canonical: the multiple has
    content 1.
    """
    # Drop members whose leading monomial is divisible by another's.
    keep = [
        d for i, d in enumerate(divs)
        if not any(j != i and _divides(e.mono, d.mono, n) and (e.mono != d.mono or j < i)
                   for j, e in enumerate(divs))
    ]
    # Fully reduce each member against the others, once each, in order.
    mask = (1 << FIELD_BITS * n) - 1
    for i, d in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        if not any(_divides(e.mono, kt & mask, n) for kt, _ in d.tail for e in others):
            continue
        rest, den = _reduce(dict(d.tail), 1, others, n)
        tail = [(kt, c * (den // e)) for kt, c, e in rest]
        keep[i] = _primitive_divisor(d.key, d.lead * den, tail, n)
    keep.sort(key=lambda d: d.key, reverse=True)
    gens = []
    for d in keep:
        nums = {d.mono: d.lead}
        nums.update((kt & mask, c) for kt, c in d.tail)
        gens.append(_poly(n, nums, d.lead))
    return IdealBasis(tuple(gens), order, n)


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
    member is kept iff it is x-free, that is iff its largest packed
    exponent has no bit above the z fields.  The x-free members of the
    reduced block-order basis are already monic and sorted for the
    z-order: on x-free monomials the block key compares by the z-order
    alone.  relation_report reads principality off the size of the result.
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
        - _poly(total, {k << shift: c for k, c in img._nums.items()}, img.den)
        for i, img in enumerate(images, start=1)
    ]
    gb = buchberger(gens, BlockElimination(nx, dweights))
    return IdealBasis(tuple(_poly(nz, g._nums, g.den) for g in gb.gens
                            if not max(g._nums) >> shift), dweights, nz)


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
    column's, with coefficient 1.  The images^a are compose's power
    products (polycore._power_products).  Independent of the Buchberger route.
    Raises ResourceCapExceeded when there are more than
    MAX_ORACLE_MONOMIALS monomials z^a, before any slice is eliminated.
    """
    images = list(images)
    nz = len(images)
    if len(dweights) != nz:
        raise ValueError("dweights length must match image count")
    # Degrees scaled to ints by the common denominator s of the weights.
    s, d = dweights._int_form
    by_degree: dict = {}
    monomials = _exponents_up_to(d, floor(Fraction(dmax) * s))
    for count, alpha in enumerate(monomials, 1):
        if count > MAX_ORACLE_MONOMIALS:
            raise ResourceCapExceeded(
                f"graded oracle exceeded {MAX_ORACLE_MONOMIALS} monomials")
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
        # The nullspace, read from the int RREF: one vector per free column
        # fc, with 1 at fc and -row[fc] / row[pc] at each pivot column pc
        # left of fc, as int numerators over the lcm of those pivots.
        for fc in range(len(alphas)):
            if fc in pivots:
                continue
            rows = [(pc, row) for row, pc in zip(reduced, pivots) if row[fc]]
            den = lcm(*[row[pc] for pc, row in rows])
            nums = {keys[pc]: -row[fc] * (den // row[pc]) for pc, row in rows}
            nums[keys[fc]] = den
            found.append(_canon(nz, nums, den))
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
    if any(v.n != target.n for v in vectors):
        raise ValueError("vectors and target have inconsistent variable counts")
    return len(vectors) not in _rref(_coefficient_matrix(vectors + [target]))[1]
