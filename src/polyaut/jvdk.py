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
It returns (c, r, h, deg h), so h and its degree are computed once.  The
base case is an affine pair.  For a genuine automorphism the reduction
step always succeeds; its failure on a non-affine pair therefore
*disproves* automorphy, so the procedure doubles as a decision procedure
for n = 2 and failure is returned as a value, not an error.

The first reduction also reads off the relation between the two leading
forms: the relation ideal of a non-affine plane automorphism is generated
by z_a - c * z_b^r, where a is the higher-degree coordinate of the first
step (relation2 cross-checks against the Groebner kernel in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .autmap import (
    Affine,
    AutWord,
    Elementary,
    PolyMap,
    Transposition,
    expand,
)
from .polycore import (
    Polynomial,
    WeightVector,
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


def reduce_step(f: Polynomial, g: Polynomial, df: int):
    """(c, r, h, dh) with h = f - c*g^r of degree dh lower than df = deg(f),
    r = deg(f)/deg(g) and c != 0, or None when no such reduction exists.

    Expects deg(f) >= deg(g) >= 1 under the standard degree.  Before g^r
    is built, the lexicographically largest and smallest monomials of the
    leading form of f must be r times those of the leading form of g: Q[x]
    is a domain and lex is a monomial order, so the leading form of g^r is
    that of g to the r, and its extreme monomials are r times g's.  The
    largest, r*t, gives c = f[r*t] / g[t]^r without a root; the leading
    form of f is c times that of g^r exactly when f - c*g^r drops in
    degree (h may be 0, with dh = MINUS_INFINITY).
    """
    w = WeightVector.standard(f.n)
    gdegs = _scaled_degrees(g, w)[1]
    dg = max(gdegs.values())
    if df % dg != 0:
        return None
    r = df // dg
    # The packed exponents of the two leading forms: the largest and the
    # smallest are the lex extremes.  r times a packed exponent of g's
    # leading form packs its exponents times r, none of them past deg(f).
    lg = [k for k, d in gdegs.items() if d == dg]
    lf = [k for k, d in _scaled_degrees(f, w)[1].items() if d == df]
    t = max(lg)
    if max(lf) != r * t or min(lf) != r * min(lg):
        return None
    c = Fraction(f._nums[r * t] * g.den ** r, f.den * g._nums[t] ** r)
    # -c as a constant polynomial, so no Fraction is built for the sign.
    h = linear_combination(((1, f), (-Polynomial.constant(c, f.n), g ** r)), f.n)
    dh = h.total_degree()
    if dh >= df:
        return None
    return c, r, h, dh


def decompose2(m: PolyMap) -> Union[Decomposition, NotAnAutomorphism]:
    """Decompose a two-variable map into tame generators, or disprove.

    On success expand(word) equals the input exactly; each recorded step
    strictly decreases deg(f) + deg(g), which is the termination witness.
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
    df, dg = f.total_degree(), g.total_degree()
    pending_swap = False
    while df > 1 or dg > 1:
        if df < dg:
            gens.append(Transposition(1, 2, 2))
            f, g, df, dg = g, f, dg, df
            pending_swap = True
            continue
        if dg < 1:
            return NotAnAutomorphism(
                "degenerate coordinate", "a coordinate degenerated to a constant"
            )
        red = reduce_step(f, g, df)
        if red is None:
            return NotAnAutomorphism(
                "reduce step",
                f"leading form of degree {df} is not a scalar multiple of the "
                f"degree-{dg} leading form raised to {df}/{dg}",
            )
        c, r, h, dh = red
        if h.is_zero():
            return NotAnAutomorphism(
                "reduce step", "coordinate vanished after reduction (f = c*g^r)"
            )
        gens.append(Elementary(1, Polynomial.monomial((0, r), c, 2)))
        steps.append(
            ReductionStep(
                swapped=pending_swap,
                c=c,
                r=r,
                degree_sum_before=df + dg,
                degree_sum_after=dh + dg,
            )
        )
        pending_swap = False
        f, df = h, dh
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
