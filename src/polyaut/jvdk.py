"""Constructive tame decomposition of two-variable polynomial automorphisms.

Every automorphism of the plane is a composition of affine and elementary
maps.  The decomposition here runs the induction on deg(f) + deg(g) behind
that fact: order the pair so deg(f) >= deg(g) (recording a transposition),
then use the key reduction step

    the leading form of f is c times the r-th power of the leading form
    of g, with r = deg(f) / deg(g) an integer,

so h = f - c*g^r has strictly smaller degree and composing with the
elementary map (x1 - c*x2^r, x2) strictly decreases the degree sum.
reduce_step first compares the extreme monomials of the two leading
forms, a necessary condition that needs no power of g.  It then decides
the step by that degree drop: c is read off the one monomial r*t that
tops g^r (t the lexicographically largest monomial of the leading form
of g), and since deg(c*g^r) = deg(f), the leading form of f equals c
times that of g^r exactly when deg(h) < deg(f) or h = 0.
Each polynomial is measured once: one _scaled_degrees pass gives its
degree and the lex-extreme monomials of its leading form (lead), and
reduce_step returns h with its lead, which decompose2 hands on to the
next step.  The powers of g come from one power memo (polycore._power)
that decompose2 keeps while g stays the same and renews at each swap, so
a run r = 4, 3, 2 takes 3 products, not 5.  The base case is an affine
pair.  For a genuine automorphism the reduction step always succeeds;
its failure on a non-affine pair therefore *disproves* automorphy, so the
procedure doubles as a decision procedure for n = 2 and failure is
returned as a value, not an error.

The first reduction also reads off the relation between the two leading
forms: the relation ideal of a non-affine plane automorphism is generated
by z_a - c * z_b^r, where a is the higher-degree coordinate of the first
step (relation2 cross-checks against the Groebner kernel in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .autmap import (
    Affine,
    AutWord,
    Elementary,
    PolyMap,
    Transposition,
    expand,
)
from .polycore import (
    MINUS_INFINITY,
    Polynomial,
    WeightVector,
    _power,
    _scaled_degrees,
    compose,
    leading_term,
    linear_combination,
)


@dataclass(frozen=True)
class ReductionStep:
    """One elementary reduction: f -> f - c*g^r (after an optional swap)."""

    swapped: bool
    c: Fraction
    r: int
    degree_sum_before: int
    degree_sum_after: int


@dataclass(frozen=True)
class NotAnAutomorphism:
    """Disproof certificate: the stage that failed and what was observed."""

    stage: str
    detail: str


@dataclass(frozen=True)
class Decomposition:
    word: AutWord
    steps: tuple


class Lead(NamedTuple):
    """The standard degree of a polynomial and the lexicographically largest
    and smallest packed exponents of its leading form (polycore), from one
    _scaled_degrees pass; (MINUS_INFINITY, None, None) for 0."""

    degree: object  # an int, or MINUS_INFINITY
    top: int | None
    bottom: int | None


def lead(p: Polynomial) -> Lead:
    """The Lead of p."""
    degs = _scaled_degrees(p, WeightVector.standard(p.n))[1]
    if not degs:
        return Lead(MINUS_INFINITY, None, None)
    d = max(degs.values())
    top = [k for k, e in degs.items() if e == d]
    return Lead(d, max(top), min(top))


def reduce_step(f: Polynomial, g: Polynomial, leads=None, powers=None):
    """(c, r, h, lead(h)) with h = f - c*g^r of degree lower than deg(f),
    r = deg(f)/deg(g) and c != 0, or None when no such reduction exists.

    Expects f != 0 and deg(g) >= 1 under the standard degree, as
    decompose2 hands them on with deg(f) >= deg(g).  Before g^r
    is built, the lexicographically largest and smallest monomials of the
    leading form of f must be r times those of the leading form of g: Q[x]
    is a domain and lex is a monomial order, so the leading form of g^r is
    that of g to the r, and its extreme monomials are r times g's.  The
    largest, r*t, gives c = f[r*t] / g^r[r*t]; the leading form of f is c
    times that of g^r exactly when f - c*g^r drops in degree (h may be 0,
    with lead(h).degree = MINUS_INFINITY).

    leads = (lead(f), lead(g)) and powers, the power memo of g ({1: g, ..},
    polycore._power), are what decompose2 hands on from one step to the
    next; without them, each is computed here (a memo of another base is
    replaced by a fresh one).
    """
    (df, ftop, fbottom), (dg, gtop, gbottom) = (lead(f), lead(g)) if leads is None else leads
    if df % dg != 0:
        return None
    r = df // dg
    # r times a packed exponent of g's leading form packs its exponents
    # times r, none of them past deg(f).
    if ftop != r * gtop or fbottom != r * gbottom:
        return None
    if powers is None or powers[1] is not g:
        powers = {1: g}
    # r = 0 when f is a constant: g^0 = 1 is no power of the memo.
    gr = _power(powers, r) if r else Polynomial.constant(1, g.n)
    c = Fraction(f._nums[ftop] * gr.den, f.den * gr._nums[ftop])
    # -c as a constant polynomial, so no Fraction is built for the sign.
    h = linear_combination(((1, f), (-Polynomial.constant(c, f.n), gr)), f.n)
    lh = lead(h)
    if lh.degree >= df:
        return None
    return c, r, h, lh


def decompose2(m: PolyMap) -> Union[Decomposition, NotAnAutomorphism]:
    """Decompose a two-variable map into tame generators, or disprove.

    On success expand(word) equals the input exactly; each recorded step
    strictly decreases deg(f) + deg(g), which is the termination witness.
    Each coordinate, and each h, is measured once (lead), and g's powers
    come from one memo per g (reduce_step).
    """
    if m.n != 2:
        raise ValueError("decompose2 only handles two-variable maps")
    for i, c in enumerate(m.coords, start=1):
        if c.is_zero() or c.is_constant():
            return NotAnAutomorphism(
                "degenerate coordinate", f"coordinate {i} is constant"
            )
    gens: list = []
    steps: list = []
    f, g = m.coords
    lf, lg = lead(f), lead(g)
    powers = {1: g}
    while lf.degree > 1 or lg.degree > 1:
        df, dg = lf.degree, lg.degree
        if df < dg:
            gens.append(Transposition(1, 2, 2))
            f, g, lf, lg = g, f, lg, lf
            powers = {1: g}
            continue
        if dg < 1:
            return NotAnAutomorphism(
                "degenerate coordinate", "a coordinate degenerated to a constant"
            )
        red = reduce_step(f, g, (lf, lg), powers)
        if red is None:
            return NotAnAutomorphism(
                "reduce step",
                f"leading form of degree {df} is not a scalar multiple of the "
                f"degree-{dg} leading form raised to {df}/{dg}",
            )
        c, r, h, lh = red
        if h.is_zero():
            return NotAnAutomorphism(
                "reduce step", "coordinate vanished after reduction (f = c*g^r)"
            )
        steps.append(
            ReductionStep(
                # At most one swap comes before a step: a swap makes df > dg.
                swapped=bool(gens) and isinstance(gens[-1], Transposition),
                c=c,
                r=r,
                degree_sum_before=df + dg,
                degree_sum_after=lh.degree + dg,
            )
        )
        gens.append(Elementary(1, Polynomial.monomial((0, r), c, 2)))
        f, lf = h, lh
    # Affine base case: read off the linear part and the shift.
    matrix = tuple(
        tuple(coord.coeff(tuple(int(k == j) for k in range(2))) for j in range(2))
        for coord in (f, g)
    )
    shift = tuple(coord.constant_value() for coord in (f, g))
    try:
        tail = Affine(matrix, shift)
    except ValueError:
        return NotAnAutomorphism(
            "affine base", "linear part of the residual affine map is singular"
        )
    if not tail.is_identity():
        gens.append(tail)
    word = AutWord(2, tuple(gens))
    if expand(word) != m:
        raise RuntimeError("internal error: decomposition does not recompose")
    return Decomposition(word=word, steps=tuple(steps))


class NotAnAutomorphismError(ValueError):
    def __init__(self, certificate: NotAnAutomorphism):
        super().__init__(f"{certificate.stage}: {certificate.detail}")
        self.certificate = certificate


def relation2(m: PolyMap) -> Polynomial:
    """Generator of the relation ideal of a plane automorphism, from the
    first reduction step: 0 for affine maps, else z_a - c * z_b^r where a is
    the higher-degree coordinate of the first step.

    The result annihilates the leading forms exactly; decompose2 failure
    propagates as NotAnAutomorphismError.
    """
    dec = decompose2(m)
    if isinstance(dec, NotAnAutomorphism):
        raise NotAnAutomorphismError(dec)
    if not dec.steps:
        return Polynomial.zero(2)
    first = dec.steps[0]
    a, zb_r = (2, (first.r, 0)) if first.swapped else (1, (0, first.r))
    R = Polynomial.variable(a, 2) - Polynomial.monomial(zb_r, first.c, 2)
    w = WeightVector.standard(2)
    fbars = [leading_term(c, w) for c in m.coords]
    if not compose(R, fbars).is_zero():
        raise RuntimeError("internal error: relation does not annihilate leading forms")
    return R
