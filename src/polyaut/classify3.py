"""Classification of principal relation generators in three variables.

Given weights d1 <= d2 <= d3 (positive integers) and a deg2-homogeneous
polynomial R, the classifier decides which of the fourteen possible shapes
R takes, writing x3' = x3 + h for a deg2-homogeneous shift h(x1, x2):

  Zero               0
  ElemReducible      x3'
  TwoVarBinomial     x1^e1 + c*x2^e2                     gcd(e1,e2) = 1
  T3_ProductLinearX3 (x2 + a*x1^e1)*x3' + c*x1^k         k >= 2, e1 >= 1
  T4_MonomialX3      x1^k*x3' + P(x1,x2)                 k >= 1
  T5                 x3'^2 + c*x2^3
  T6                 x3'^2 + c*x1*x2^2
  T7                 x3'^2 + c*x1^r1                      r1 odd, >= 3
  T8                 x3'^2 + c*x1^r1*x2                   r1 >= 1
  T9                 x3'^2 + a*x1^e1 + b*x2^2             ab != 0, e1 odd >= 3
  T10                x3'^2 + (a*x1^e1 + b*x2)*x1^r1       ab != 0, e1 >= 1
  T11                x3'^2 + (a1*x1^e1 + b1*x2)(a2*x1^e1 + b2*x2)
                                                          a1*b2 - b1*a2 != 0
  T12                x3'^2 + (a1*x1 + b1*x2)(a2*x1 + b2*x2)^2
  T13                x3'^2 + (a*x1^e1 + b*x2)^2*x1        ab != 0, e1 >= 2

up to a nonzero scalar, or reports that R is proportional to a member of
the six-entry forbidden list (families whose coordinate rings admit no
nonzero locally nilpotent derivation, hence which can never be relation
generators), or that it matches nothing.  Lines are tried in the order
above and the first match wins; overlaps between patterns are resolved by
that order.

The square lines T5-T13 and forbidden entries 1-6 are all read off one
signature of the x3-free part Q of x3'^2 + Q: the weighted binary form
Q = x1^v1*x2^v2 * sum_{j=0..s} c_j*x1^(j*e1)*x2^((s-j)*e2), with the step
(e1, e2) taken from Q's own support.  A monomial (s = 0) is T5-T8 by
(v1, v2).  With x2-degree v2 + s*e2 = 2: e2 = 2, e1 >= 3 is T9 (v1 = 0) or
entry 6 (v1 = 1); e2 = 1 splits c_0*x2^2 + c_1*x1^e1*x2 + c_2*x1^(2*e1) by
its discriminant into T11 or NeedsExtension (v1 = 0), T13 or entry 3
(v1 = 1).  x2-degree 1 with v1 >= 1 is T10.  A binary cubic (e = (1, 1),
v1 + v2 + s = 3) is T12 when it has a repeated factor, else entry 4.  Two
terms (s = 1) with (e1, e2, v1, v2) = (4,3,0,0), (5,3,0,0), (3,2,0,1) are
entries 1, 2 and 5.

Everything runs over the rationals.  Shapes whose parameters exist only
after adjoining a square root (splitting a quadratic with non-square
discriminant, or taking the square root of a non-square coefficient)
come back as NeedsExtension instead of being approximated.

normalize() then produces, for each classified shape, a tame witness word
moving R to one of the four canonical forms 0, x3, x1^r + x2^s,
x1^k*x3 + P(x1,x2).  The word is read off the classified line (its tag,
params and shift_h); R is composed with it once, and that composition is
checked against the canonical form before the result is returned.  Each
canonical form is annihilated by an explicit locally nilpotent derivation
(canonical_lnd).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Union

from .autmap import Affine, AutWord, Elementary, Transposition, expand, invert_generator
from .derivation import Derivation
from .polycore import (
    Polynomial,
    WeightVector,
    compose,
    format_rational,
    is_homogeneous,
    partial,
)
from .groebner import divmod_single


class Tag(Enum):
    ZERO = "Zero"
    ELEM_REDUCIBLE = "ElemReducible"
    TWO_VAR_BINOMIAL = "TwoVarBinomial"
    T3 = "T3_ProductLinearX3"
    T4 = "T4_MonomialX3"
    T5 = "T5"
    T6 = "T6"
    T7 = "T7"
    T8 = "T8"
    T9 = "T9"
    T10 = "T10"
    T11 = "T11"
    T12 = "T12"
    T13 = "T13"


#: The thirteen nonzero lines, in matching order.
NONZERO_TAGS = tuple(t for t in Tag if t is not Tag.ZERO)


@dataclass(frozen=True, eq=True)
class RelationType:
    """A matched line: tag, its parameters, the x3-shift and the scalar.

    reconstruct() rebuilds the input exactly:
    R = scalar * pattern(params)(x1, x2, x3 + shift_h).
    """

    tag: Tag
    params: dict
    shift_h: Polynomial
    scalar: Fraction


@dataclass(frozen=True)
class Classified:
    info: RelationType


@dataclass(frozen=True)
class Forbidden:
    entry: int  # 1..6
    detail: str


@dataclass(frozen=True)
class NeedsExtension:
    reason: str


@dataclass(frozen=True)
class NotWeightedHomogeneous:
    detail: str


@dataclass(frozen=True)
class NotInList:
    diagnostic: str


ClassifyOutcome = Union[Classified, Forbidden, NeedsExtension, NotWeightedHomogeneous, NotInList]


class WitnessVerificationFailed(RuntimeError):
    """Internal invariant breach: an emitted witness did not verify."""


# -- small exact helpers -----------------------------------------------------


def _sqrt_fraction(q: Fraction) -> Optional[Fraction]:
    """Exact positive square root of q, or None if q is not a rational square."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _ext_gcd(a: int, b: int):
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def _x(i: int) -> Polynomial:
    return Polynomial.variable(i, 3)


def _mono(e1: int, e2: int, e3: int, c=1) -> Polynomial:
    return Polynomial.monomial((e1, e2, e3), Fraction(c), 3)


def _shift_x3(p: Polynomial, h: Polynomial) -> Polynomial:
    """Substitute x3 -> x3 + h into p."""
    if h.is_zero():
        return p
    return compose(p, [_x(1), _x(2), _x(3) + h])


def _x3_parts(p: Polynomial):
    """Split p into {x3-exponent: coefficient polynomial in x1, x2}."""
    parts: dict = {}
    for mono, c in p.terms.items():
        parts.setdefault(mono[2], {})[(mono[0], mono[1], 0)] = c
    return {e: Polynomial(3, terms) for e, terms in parts.items()}


def _as_monomial(p: Polynomial):
    """(exponents, coeff) if p is a single term, else None."""
    if len(p.terms) != 1:
        return None
    return next(iter(p.terms.items()))


def _val_x1(q: Polynomial) -> int:
    return min(m[0] for m in q.terms)


def _binomial(a, b, e: int) -> Polynomial:
    """The x2-linear binomial a*x1^e + b*x2."""
    return _mono(e, 0, 0, a) + _mono(0, 1, 0, b)


# -- pattern builders --------------------------------------------------------


def pattern_polynomial(tag: Tag, params: dict) -> Polynomial:
    """The unshifted pattern of a line, as a polynomial in x1, x2, x3."""
    p = params
    if tag is Tag.ZERO:
        return Polynomial.zero(3)
    if tag is Tag.ELEM_REDUCIBLE:
        return _x(3)
    if tag is Tag.TWO_VAR_BINOMIAL:
        return _mono(p["e1"], 0, 0) + _mono(0, p["e2"], 0, p["c"])
    if tag is Tag.T3:
        return _binomial(p["a"], 1, p["e1"]) * _x(3) + _mono(p["k"], 0, 0, p["c"])
    if tag is Tag.T4:
        return _mono(p["k"], 0, 1) + p["P"]
    sq = _mono(0, 0, 2)
    if tag is Tag.T5:
        return sq + _mono(0, 3, 0, p["c"])
    if tag is Tag.T6:
        return sq + _mono(1, 2, 0, p["c"])
    if tag is Tag.T7:
        return sq + _mono(p["r1"], 0, 0, p["c"])
    if tag is Tag.T8:
        return sq + _mono(p["r1"], 1, 0, p["c"])
    if tag is Tag.T9:
        return sq + _mono(p["e1"], 0, 0, p["a"]) + _mono(0, 2, 0, p["b"])
    if tag is Tag.T10:
        return sq + _binomial(p["a"], p["b"], p["e1"]) * _mono(p["r1"], 0, 0)
    if tag is Tag.T11:
        return sq + _binomial(p["a1"], p["b1"], p["e1"]) * _binomial(p["a2"], p["b2"], p["e1"])
    if tag is Tag.T12:
        l2 = _binomial(p["a2"], p["b2"], 1)
        return sq + _binomial(p["a1"], p["b1"], 1) * l2 * l2
    if tag is Tag.T13:
        binom = _binomial(p["a"], p["b"], p["e1"])
        return sq + binom * binom * _x(1)
    raise ValueError(f"unknown tag {tag}")


def reconstruct(rt: RelationType) -> Polynomial:
    """scalar * pattern(x1, x2, x3 + h); exact inverse of classification."""
    return _shift_x3(pattern_polynomial(rt.tag, rt.params), rt.shift_h) * rt.scalar


# -- x3-linear fronts --------------------------------------------------------


def _linear_front_split(front: Polynomial):
    """Decompose an x3-coefficient as b*x2 + a*x1^e1; None if impossible.

    Returns (b, a, e1) with b the x2-coefficient (possibly 0, then a != 0
    and the front is the pure monomial a*x1^e1).
    """
    b = Fraction(0)
    a = Fraction(0)
    e1 = 0
    for mono, c in front.terms.items():
        if mono == (0, 1, 0):
            b = c
        elif mono[1] == 0 and mono[2] == 0:
            if a != 0:
                return None  # two distinct pure x1-powers cannot both occur
            a, e1 = c, mono[0]
        else:
            return None
    return b, a, e1


# -- the matcher -------------------------------------------------------------


def classify(R: Polynomial, d: WeightVector) -> ClassifyOutcome:
    """Match R against the fourteen lines, then the forbidden list.

    Preconditions (raised as ValueError): three variables, weights positive
    integers sorted ascending.  R must be deg2-homogeneous for d (outcome
    NotWeightedHomogeneous otherwise); matching itself is structural, and
    the degree inequalities are only used to phrase NotInList diagnostics.
    """
    if R.n != 3 or len(d) != 3:
        raise ValueError("classify expects three variables and three weights")
    ws = list(d.weights)
    if any(w.denominator != 1 for w in ws):
        raise ValueError("weights must be integers")
    if not (ws[0] <= ws[1] <= ws[2]):
        raise ValueError("weights must be sorted ascending")
    if R.is_zero():
        return Classified(RelationType(Tag.ZERO, {}, Polynomial.zero(3), Fraction(1)))
    if not is_homogeneous(R, d):
        return NotWeightedHomogeneous(
            "input is not weighted homogeneous for the given weights"
        )
    parts = _x3_parts(R)
    degx3 = max(parts)
    if degx3 > 2:
        return NotInList(_diagnose(R, d))
    if degx3 == 0:
        return _classify_x3_free(R, d)
    if degx3 == 1:
        return _classify_x3_linear(R, parts, d)
    return _classify_x3_quadratic(R, parts, d)


def _classify_x3_free(R: Polynomial, d: WeightVector) -> ClassifyOutcome:
    terms = sorted(R.terms.items())
    if len(terms) == 2:
        (m1, c1), (m2, c2) = terms
        if m1[0] == 0 and m1[1] >= 1 and m2[1] == 0 and m2[0] >= 1:
            e2, e1 = m1[1], m2[0]
            if gcd(e1, e2) != 1:
                return NotInList(
                    "two-variable binomial with non-coprime exponents is "
                    "reducible over the algebraic closure"
                )
            rt = RelationType(
                Tag.TWO_VAR_BINOMIAL,
                {"c": c1 / c2, "e1": e1, "e2": e2},
                Polynomial.zero(3),
                c2,
            )
            return Classified(rt)
    return NotInList(_diagnose(R, d))


def _classify_x3_linear(R: Polynomial, parts: dict, d: WeightVector) -> ClassifyOutcome:
    front = parts[1]
    p0 = parts.get(0, Polynomial.zero(3))
    split = _linear_front_split(front)
    if split is None:
        return NotInList(_diagnose(R, d))
    b, a, e1 = split
    if b == 0:
        # x3-coefficient is the pure monomial a*x1^e1.
        if e1 == 0:
            lam = a
            return Classified(
                RelationType(Tag.ELEM_REDUCIBLE, {}, p0 * (Fraction(1) / lam), lam)
            )
        fiber = p0 * (Fraction(1) / a)
        if fiber.is_zero() or _val_x1(fiber) > 0:
            return NotInList(
                "x1^k*x3 + P with x1 dividing P (or P = 0) is reducible"
            )
        rt = RelationType(
            Tag.T4, {"k": e1, "P": fiber}, Polynomial.zero(3), a
        )
        return Classified(rt)
    # x3-coefficient contains x2: normalize it to x2 + a*x1^e1.
    a_norm = a / b
    if a_norm != 0 and e1 < 1:
        return NotInList(_diagnose(R, d))
    divisor = _binomial(a_norm, 1, e1)
    # x2 leads the divisor for the weights (1, e1 + 1, 1), and only the
    # leading monomial matters: p = divisor * q + r with r free of x2 is
    # unique, so the division returns that q and r for any such order.
    q, p_low = divmod_single(p0 * (Fraction(1) / b), divisor,
                             WeightVector((1, e1 + 1, 1)))
    mono = _as_monomial(p_low)
    if p_low.is_zero():
        return NotInList("(x2 + a*x1^e1) divides the input, which is reducible")
    if mono is None:
        return NotInList(_diagnose(R, d))
    (k, _, _), c = mono
    if k < 2:
        return NotInList(
            f"linear-x3 remainder c*x1^{k} needs exponent >= 2"
        )
    rt = RelationType(
        Tag.T3,
        {"c": c, "a": a_norm, "e1": max(e1, 1), "k": k},
        q,
        b,
    )
    return Classified(rt)


def _classify_x3_quadratic(R: Polynomial, parts: dict, d: WeightVector) -> ClassifyOutcome:
    if not parts[2].is_constant():
        return NotInList(
            "x3^2 carries a non-constant coefficient, which violates the "
            "support bound a.d <= d1+d2+d3-2"
        )
    lam, h, q, matched = _square_part(parts)
    if q.is_zero():
        return NotInList("a perfect square x3'^2 is reducible")
    if matched is None:
        return NotInList(_diagnose_square(d))
    if isinstance(matched, (Forbidden, NeedsExtension)):
        return matched
    tag, params = matched
    return Classified(RelationType(tag, params, h, lam))


def _square_part(parts: dict):
    """(lam, h, Q, match) with R = lam*((x3 + h)^2 + Q), for R quadratic in x3
    with a constant x3^2 coefficient lam, read from the x3-parts
    R = lam*x3^2 + p1*x3 + p0: h = p1/(2*lam) and Q = p0/lam - h^2, the
    x3-free part of R(x3 - h)/lam.  match is _match_square_part(Q), or None
    when Q = 0."""
    zero = Polynomial.zero(3)
    lam = parts[2].constant_value()
    h = parts.get(1, zero) * (Fraction(1, 2) / lam)
    q = parts.get(0, zero) * (Fraction(1) / lam) - h * h
    return lam, h, q, None if q.is_zero() else _match_square_part(q)


def _weighted_line(q: Polynomial):
    """Read a nonzero x3-free q as x1^v1*x2^v2 * sum_j c_j*x1^(j*e1)*x2^((s-j)*e2).

    Returns (e1, e2, v1, v2, [c_0, .., c_s]), v_l the x_l-valuation, or None
    when the support does not lie on that line.  The step (e1, e2) is the
    primitive step between the extreme points of the support ((1, 1) for a
    monomial).
    """
    v1 = min(m[0] for m in q.terms)
    v2 = min(m[1] for m in q.terms)
    a = max(m[0] for m in q.terms) - v1
    b = max(m[1] for m in q.terms) - v2
    if a and b:
        e1, e2 = a // gcd(a, b), b // gcd(a, b)
    elif a or b:
        return None
    else:
        e1 = e2 = 1
    s = a // e1
    for m in q.terms:
        j, r1 = divmod(m[0] - v1, e1)
        k, r2 = divmod(m[1] - v2, e2)
        if r1 or r2 or j + k != s:
            return None
    return e1, e2, v1, v2, [q.coeff((v1 + j * e1, v2 + (s - j) * e2, 0)) for j in range(s + 1)]


#: Forbidden entries 1, 2 and 5 by the signature (e1, e2, v1, v2) of a
#: two-term Q = c_0*x1^v1*x2^(v2+e2) + c_1*x1^(v1+e1)*x2^v2.
_TWO_TERM_FORBIDDEN = {
    (4, 3, 0, 0): (1, "x3'^2 + {1}*x1^4 + {0}*x2^3"),
    (5, 3, 0, 0): (2, "x3'^2 + {1}*x1^5 + {0}*x2^3"),
    (3, 2, 0, 1): (5, "x3'^2 + ({1}*x1^3 + {0}*x2^2)*x2"),
}


def _match_square_part(q: Polynomial):
    """Match the x3-free remainder Q of x3'^2 + Q on its weighted-line
    signature, in line order; None when no line matches."""
    line = _weighted_line(q)
    if line is None:
        return None
    e1, e2, v1, v2, c = line
    s = len(c) - 1
    if s == 0:
        if (v1, v2) == (0, 3):
            return Tag.T5, {"c": c[0]}
        if (v1, v2) == (1, 2):
            return Tag.T6, {"c": c[0]}
        if v2 == 0 and v1 >= 3 and v1 % 2 == 1:
            return Tag.T7, {"c": c[0], "r1": v1}
        if v2 == 1 and v1 >= 1:
            return Tag.T8, {"c": c[0], "r1": v1}
        return None
    deg_x2 = v2 + s * e2
    if e2 == 2 and deg_x2 == 2 and v1 <= 1 and e1 >= 3:
        # c_0*x2^2 + c_1*x1^e1 (times x1^v1) with e1 odd.
        if v1 == 0:
            return Tag.T9, {"a": c[1], "b": c[0], "e1": e1}
        return Forbidden(
            6, f"x3'^2 + ({c[1]}*x1^{e1} + {c[0]}*x2^2)*x1 with odd exponent"
        )
    if e2 == 1 and deg_x2 == 2 and v1 <= 1:
        out = _split_x2_quadratic(c[0], c[1], c[2] if s == 2 else Fraction(0), e1, v1)
        if out is not None:
            return out
    if deg_x2 == 1 and v1 >= 1:
        return Tag.T10, {"a": c[1], "b": c[0], "e1": e1, "r1": v1}
    if (e1, e2) == (1, 1) and v1 + v2 + s == 3:
        return _match_cubic_form(q, v2, c)
    if s == 1 and (e1, e2, v1, v2) in _TWO_TERM_FORBIDDEN:
        entry, detail = _TWO_TERM_FORBIDDEN[(e1, e2, v1, v2)]
        return Forbidden(entry, detail.format(*c))
    return None


def _split_x2_quadratic(A: Fraction, B: Fraction, C: Fraction, e: int, val: int):
    """Factor A*x2^2 + B*x1^e*x2 + C*x1^(2e) (times x1^val) into x2-linear
    binomials.

    The discriminant decides: for val = 0, T11 (distinct factors), nothing
    (double factor, reducible over the closure) or NeedsExtension; for
    val = 1, T13 (double factor, b = sqrt(A) rational), Forbidden(3) or
    NeedsExtension.  None means the caller falls through to later lines.
    """
    disc = B * B - 4 * A * C
    if disc == 0:
        if val == 0:
            return None  # A*(x2 + t*x1^e)^2: the square case is reducible
        if e < 2:
            return None  # e = 1 is the cubic form case, matched as T12
        # T13: x1 * (a*x1^e + b*x2)^2 needs b = sqrt(A) rational.
        b = _sqrt_fraction(A)
        if b is None:
            return NeedsExtension(
                f"matching (a*x1^{e} + b*x2)^2*x1 needs sqrt({format_rational(A)}), "
                "which is not rational"
            )
        a = B / (2 * b)
        return Tag.T13, {"a": a, "b": b, "e1": e}
    root = _sqrt_fraction(disc)
    if root is None:
        if val == 1:
            # Distinct factors over the closure: forbidden regardless of
            # where the roots live, since the determinant condition is
            # exactly disc != 0.
            return Forbidden(
                3,
                "x3'^2 + (two independent x2-linear factors)*x1; factors "
                f"split only over an extension (disc {format_rational(disc)})",
            )
        return NeedsExtension("splitting the x2-quadratic for T11 needs "
                              f"sqrt({format_rational(disc)})")
    t1 = (-B + root) / (2 * A)
    t2 = (-B - root) / (2 * A)
    pair1 = (-t1 * A, A)
    pair2 = (-t2, Fraction(1))
    if val == 0:
        return Tag.T11, {
            "a1": pair1[0], "b1": pair1[1], "a2": pair2[0], "b2": pair2[1],
            "e1": e,
        }
    a1, b1, a2, b2 = map(format_rational, (*pair1, *pair2))
    return Forbidden(3, f"x3'^2 + ({a1}*x1^{e} + {b1}*x2)({a2}*x1^{e} + {b2}*x2)*x1")


def _match_cubic_form(q: Polynomial, v2: int, c: list):
    """T12 or Forbidden(4) for a binary cubic Q = x1^v1*x2^v2 * core: T12
    when x2^2 divides Q or the core sum_j c_j*t^j has a repeated rational
    root, Forbidden(4) when Q is squarefree.

    A repeated factor of a rational binary cubic is itself rational: its
    conjugates would otherwise force the degree above three.  With v2 <= 1
    the earlier lines leave only cores p of degree 2 or 3, and c_0, c_s are
    nonzero; a repeated root of p is a rational root of p' that p shares,
    so the one or two roots of the linear or quadratic p' are the only
    candidates.
    """
    if v2 >= 2:
        rep = _x(2)
    else:
        if len(c) == 3:
            candidates = [-c[1] / (2 * c[2])]
        else:
            sq = _sqrt_fraction(4 * c[2] * c[2] - 12 * c[1] * c[3])
            candidates = [] if sq is None else [
                (-2 * c[2] + r) / (6 * c[3]) for r in (sq, -sq)
            ]
        root = next((t for t in candidates
                     if sum(cj * t ** j for j, cj in enumerate(c)) == 0), None)
        if root is None:
            return Forbidden(
                4,
                "x3'^2 + (product of three pairwise independent linear forms); "
                "squarefree binary cubic",
            )
        rep = _x(1) - _mono(0, 1, 0, root)
    quot, rem = divmod_single(q, rep * rep)
    if not rem.is_zero():
        raise RuntimeError("internal error: repeated factor does not divide")
    a1, b1 = quot.coeff((1, 0, 0)), quot.coeff((0, 1, 0))
    a2, b2 = rep.coeff((1, 0, 0)), rep.coeff((0, 1, 0))
    return Tag.T12, {"a1": a1, "b1": b1, "a2": a2, "b2": b2}


# -- diagnostics -------------------------------------------------------------


def _diagnose(R: Polynomial, d: WeightVector) -> str:
    budget = d.total() - 2
    ws = d.weights
    for mono in sorted(R.terms):
        got = sum(e * w for e, w in zip(mono, ws))
        if got > budget:
            return (
                f"support bound violated: exponent {mono[:3]} has weighted "
                f"degree {format_rational(got, noun='a degree')} > d1+d2+d3-2 = "
                f"{format_rational(budget, noun='a degree')}"
            )
    return "no line of the classification matches"


def _diagnose_square(d: WeightVector) -> str:
    """NotInList text for a square case x3'^2 + Q that matches no line.

    Only the square-case bound d3 <= d1+d2-2 can be named.  The master
    inequality 2/e2 <= k + r1/e1 + r2/e2 < 2/e2 + 2/e1 of Q's weighted
    factorization always holds here: Q has weighted degree 2*d3, so with
    L = lcm(d1, d2) the middle term is 2*d3/L and the bounds are 2*d2/L and
    2*(d1 + d2)/L; the inequality thus reads d2 <= d3 < d1 + d2, which the
    sorted weights and the bound already give.
    """
    d1, d2, d3 = d.weights
    if d3 > d1 + d2 - 2:
        return f"square-case bound violated: d3 = {d3} > d1+d2-2 = {d1 + d2 - 2}"
    return "no line of the classification matches"


# -- tame normal forms -------------------------------------------------------


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class X3:
    pass


@dataclass(frozen=True)
class Binomial:
    r: int
    s: int


@dataclass(frozen=True)
class TriangularFiber:
    k: int
    fiber: Polynomial


Canonical = Union[Zero, X3, Binomial, TriangularFiber]


@dataclass(frozen=True)
class NormalForm:
    """R composed with the witness equals residual_scalar * canonical_poly."""

    canonical: Canonical
    canonical_poly: Polynomial
    witness: AutWord
    residual_scalar: Fraction


def _plane_affine(m) -> Affine:
    """The linear map that fixes x3 and acts on x1, x2 by the 2x2 block m."""
    (a, b), (c, e) = m
    return Affine(((a, b, 0), (c, e, 0), (0, 0, 1)), (0, 0, 0))


def _rescale_binomial(r: int, s: int, rho: Fraction) -> Affine:
    """Diagonal rescale turning A*x1^r + B*x2^s, rho = B/A, into
    sigma*(x1^r + x2^s).

    With gcd(r, s) = 1 pick integers u, v with u*r - v*s = 1; scaling
    x1 by rho^u and x2 by rho^v equalizes the two coefficients,
    so no root extraction is needed.
    """
    g, u, y = _ext_gcd(r, s)
    if g != 1:
        raise WitnessVerificationFailed("binomial exponents are not coprime")
    v = -y  # u*r - v*s = 1
    return _plane_affine(((rho ** u, 0), (0, rho ** v)))


def _hyperbola(b: Fraction) -> Union[list, NeedsExtension]:
    """Turn x3^2 + a*x1^E + b*x2^2 into x1*x3 + a*x2^E: first into
    x2*x3 + a*x1^E via x2 -> (x2 - x3)/(2s), x3 -> (x2 + x3)/2 with
    s^2 = -b, then swap x1 and x2.

    Returns NeedsExtension when -b is not a rational square.
    """
    s = _sqrt_fraction(-b)
    if s is None:
        return NeedsExtension(
            f"reaching a triangular fiber form needs sqrt({-b}), "
            "which is not rational"
        )
    half = Fraction(1, 2)
    hyp = Affine(((1, 0, 0), (0, half / s, -half / s), (0, half, half)), (0, 0, 0))
    return [hyp, Transposition(1, 2, 3)]


def _kill_x2_binomial(a, b, e1) -> list:
    """Map a*x1^e1 + b*x2 to x2: scale x2 by 1/b, shift by -a*x1^e1."""
    gens = [_plane_affine(((1, 0), (0, Fraction(1) / b)))]
    if a != 0:
        gens.append(Elementary(2, _mono(e1, 0, 0, -a)))
    return gens


def _map_form_to_x2(a2, b2) -> Affine:
    """Affine change sending the linear form a2*x1 + b2*x2 to x2."""
    top = (1, 0) if b2 != 0 else (0, 1)
    return invert_generator(_plane_affine((top, (a2, b2))))


#: The 3-cycle x1 <-> x3, then x1 <-> x2, that ends the T6, T12 and T13
#: witnesses.
_THREE_CYCLE = (Transposition(1, 3, 3), Transposition(1, 2, 3))


def _witness(rt: RelationType) -> Union[list, NeedsExtension]:
    """The generators of rt's witness word, read off its tag, params and
    shift_h; NeedsExtension when a step needs an irrational square root.

    After the x3-unshift, R is rt.scalar * pattern(params), so the scalars
    a step needs come from the params: rho = B/A of a binomial A*x1^r +
    B*x2^s, and b = (x2^2 coefficient) / (x3^2 coefficient) of a square
    line reaching the hyperbola step.
    """
    p = rt.params
    tag = rt.tag
    if tag is Tag.ZERO:
        return []
    gens = []
    if not rt.shift_h.is_zero():
        gens.append(Elementary(3, -rt.shift_h))
    # ElemReducible and T4 need the unshift alone.
    if tag is Tag.TWO_VAR_BINOMIAL:
        gens.append(_rescale_binomial(p["e1"], p["e2"], p["c"]))
    elif tag is Tag.T3:
        if p["a"] != 0:
            gens.append(Elementary(2, _mono(p["e1"], 0, 0, -p["a"])))
        gens.append(Transposition(1, 2, 3))
    elif tag is Tag.T5:
        gens.append(Transposition(1, 3, 3))
        gens.append(_rescale_binomial(2, 3, p["c"]))
    elif tag is Tag.T6:
        gens += _THREE_CYCLE
    elif tag is Tag.T7:
        gens.append(Transposition(2, 3, 3))
        gens.append(_rescale_binomial(p["r1"], 2, Fraction(1) / p["c"]))
    elif tag is Tag.T8:
        gens.append(Transposition(2, 3, 3))
    elif tag is Tag.T9:
        hyp = _hyperbola(p["b"])
        if isinstance(hyp, NeedsExtension):
            return hyp
        gens += hyp
    elif tag is Tag.T10:
        gens += _kill_x2_binomial(p["a"], p["b"], p["e1"])
        gens.append(Transposition(2, 3, 3))
    elif tag is Tag.T11:
        gamma = (p["a1"] * p["b2"] + p["a2"] * p["b1"]) / (2 * p["b1"] * p["b2"])
        if gamma != 0:
            gens.append(Elementary(2, _mono(p["e1"], 0, 0, -gamma)))
        # The shift leaves the x2^2 coefficient b1*b2 of the product alone.
        hyp = _hyperbola(p["b1"] * p["b2"])
        if isinstance(hyp, NeedsExtension):
            return hyp
        gens += hyp
    elif tag is Tag.T12:
        det = p["a1"] * p["b2"] - p["b1"] * p["a2"]
        if det == 0:
            # L1 = k*L2: the cube case x3^2 + k*L2^3 lands in a binomial.
            k = p["a1"] / p["a2"] if p["a2"] != 0 else p["b1"] / p["b2"]
            gens.append(_map_form_to_x2(p["a2"], p["b2"]))
            gens.append(Transposition(1, 3, 3))
            gens.append(_rescale_binomial(2, 3, k))
        else:
            forms = ((p["a1"], p["b1"]), (p["a2"], p["b2"]))
            gens.append(invert_generator(_plane_affine(forms)))
            gens += _THREE_CYCLE
    elif tag is Tag.T13:
        gens += _kill_x2_binomial(p["a"], p["b"], p["e1"])
        gens += _THREE_CYCLE
    elif tag not in (Tag.ELEM_REDUCIBLE, Tag.T4):
        raise ValueError(f"unknown tag {tag}")
    return gens


def normalize(rt: RelationType) -> Union[NormalForm, NeedsExtension]:
    """Tame witness word moving the classified R to a canonical form.

    The word is read off the classified line (_witness) and R is composed
    with it once; that one composition yields the canonical form and is
    checked against it, canonical_poly * residual_scalar == R o witness,
    before the result is returned.  Shapes whose reduction would need an
    irrational square root (T9 and T11 when -b is not a rational square)
    come back as NeedsExtension.
    """
    gens = _witness(rt)
    if isinstance(gens, NeedsExtension):
        return gens
    word = AutWord(3, tuple(gens))
    cur = compose(reconstruct(rt), expand(word).coords)
    canonical, canonical_poly, sigma = _read_canonical(cur, rt.tag is Tag.ELEM_REDUCIBLE)
    if canonical_poly * sigma != cur:
        raise WitnessVerificationFailed("canonical form does not match")
    return NormalForm(
        canonical=canonical,
        canonical_poly=canonical_poly,
        witness=word,
        residual_scalar=sigma,
    )


def _read_canonical(cur: Polynomial, elem_reducible: bool):
    """(canonical, canonical_poly, sigma) read off cur = R o witness.  An
    ElemReducible line gives cur = sigma*x3, which reads as X3 only when
    elem_reducible says so; the x3-linear reading would be a triangular
    fiber form with k = 0."""
    if cur.is_zero():
        return Zero(), Polynomial.zero(3), Fraction(1)
    if elem_reducible:
        sigma = cur.coeff((0, 0, 1))
        return X3(), _x(3), sigma
    parts = _x3_parts(cur)
    if max(parts) == 0:
        terms = sorted(cur.terms.items())
        if len(terms) != 2:
            raise WitnessVerificationFailed("expected a two-term binomial")
        (m2_, c2_), (m1_, c1_) = terms  # m1_ = pure x1-power, m2_ = pure x2-power
        if c2_ != c1_:
            raise WitnessVerificationFailed("binomial coefficients differ")
        r, s = m1_[0], m2_[1]
        return Binomial(r, s), _mono(r, 0, 0) + _mono(0, s, 0), c1_
    front = parts[1]
    front_mono = _as_monomial(front)
    if max(parts) != 1 or front_mono is None or front_mono[0][1:] != (0, 0):
        raise WitnessVerificationFailed("chain did not end in a recognized form")
    (k, _, _), sigma = front_mono
    canonical_poly = cur * (Fraction(1) / sigma)
    fiber = _x3_parts(canonical_poly).get(0, Polynomial.zero(3))
    return TriangularFiber(k, fiber), canonical_poly, sigma


def canonical_lnd(nf: NormalForm) -> Derivation:
    """An explicit locally nilpotent derivation annihilating the canonical
    polynomial: d/dx1 for 0 and x3, d/dx3 for binomials, and
    x1^k * d/dx2 - dP/dx2 * d/dx3 for the triangular fiber form."""
    c = nf.canonical
    if isinstance(c, (Zero, X3)):
        return Derivation.coordinate(1, 3)
    if isinstance(c, Binomial):
        return Derivation.coordinate(3, 3)
    coeffs = (
        Polynomial.zero(3),
        _mono(c.k, 0, 0),
        -partial(c.fiber, 2),
    )
    return Derivation(3, coeffs)


# -- seeded samplers ---------------------------------------------------------
#
# Each sampler draws parameters satisfying a line's side conditions together
# with ascending positive integer weights making the result deg2-homogeneous
# and compatible with the support bound, plus a random admissible x3-shift h.
# They back the classifier round-trip tests: classify(sample) must return the
# generating tag and reconstruct the sample exactly.


def _rand_nonzero(rng: random.Random, lo: int = -5, hi: int = 5) -> Fraction:
    while True:
        v = rng.randint(lo, hi)
        if v != 0:
            return Fraction(v)


def _rand_h(rng: random.Random, d) -> Polynomial:
    """A random deg2-homogeneous h(x1, x2) of degree d3 (often zero)."""
    d1, d2, d3 = (int(x) for x in d)
    if rng.random() < 0.5:
        return Polynomial.zero(3)
    monos = [
        (a1, a2)
        for a1 in range(0, d3 // d1 + 1)
        for a2 in range(0, d3 // d2 + 1)
        if a1 * d1 + a2 * d2 == d3
    ]
    if not monos:
        return Polynomial.zero(3)
    h = Polynomial.zero(3)
    for a1, a2 in monos:
        if rng.random() < 0.7:
            h = h + _mono(a1, a2, 0, rng.randint(-3, 3))
    return h


def _weights(*ws) -> WeightVector:
    return WeightVector(tuple(Fraction(w) for w in ws))


def _independent_pair(rng: random.Random):
    """(a1, b1, a2, b2) with b1, b2 nonzero and a1*b2 - b1*a2 != 0: the
    coefficients of two independent x2-linear binomials a_i*x1^e + b_i*x2."""
    while True:
        a1 = Fraction(rng.randint(-3, 3))
        a2 = Fraction(rng.randint(-3, 3))
        b1, b2 = _rand_nonzero(rng), _rand_nonzero(rng)
        if a1 * b2 - b1 * a2 != 0:
            return a1, b1, a2, b2


def sample_classified(tag: Tag, rng: random.Random):
    """(R, d) drawn from the given nonzero line; R is deg2-homogeneous for d
    and satisfies the support bound deg2(R) <= d1+d2+d3-2."""
    lam = _rand_nonzero(rng)
    if tag is Tag.ELEM_REDUCIBLE:
        d = _weights(*rng.choice([(1, 1, 1), (1, 2, 2), (2, 3, 4), (2, 2, 3), (1, 2, 3)]))
        params = {}
    elif tag is Tag.TWO_VAR_BINOMIAL:
        e1, e2 = rng.choice([(2, 1), (3, 1), (3, 2), (5, 2), (4, 3), (1, 1), (5, 3)])
        t = rng.randint(1, 2)
        d1, d2 = t * e2, t * e1
        need = e1 * d1 - d1 - d2 + 2  # support bound: d3 >= deg - d1 - d2 + 2
        d3 = max(d2, need) + rng.randint(0, 1)
        d = _weights(d1, d2, d3)
        params = {"c": _rand_nonzero(rng), "e1": e1, "e2": e2}
    elif tag is Tag.T3:
        e1 = rng.randint(1, 2)
        t = rng.randint(2, 3)
        k = 2 * e1 + rng.randint(0, 2)
        d = _weights(t, e1 * t, (k - e1) * t)
        a = Fraction(0) if rng.random() < 0.4 else _rand_nonzero(rng)
        params = {"c": _rand_nonzero(rng), "a": a, "e1": e1, "k": k}
    elif tag is Tag.T4:
        k = rng.randint(1, 2)
        d1 = rng.randint(1, 2)
        d2 = max(d1, (k - 1) * d1 + 2) + rng.randint(0, 1)
        m = 2 + rng.randint(0, 1)
        while m * d2 - k * d1 < d2:
            m += 1
        d3 = m * d2 - k * d1
        d = _weights(d1, d2, d3)
        fiber = _mono(0, m, 0, _rand_nonzero(rng))
        for a1 in range(1, m * d2 // d1 + 1):
            rest = m * d2 - a1 * d1
            if rest >= 0 and rest % d2 == 0 and rng.random() < 0.3:
                fiber = fiber + _mono(a1, rest // d2, 0, rng.randint(-3, 3))
        params = {"k": k, "P": fiber}
    elif tag is Tag.T5:
        s = rng.randint(2, 4)
        d = _weights(rng.randint(s + 2, 2 * s), 2 * s, 3 * s)
        params = {"c": _rand_nonzero(rng)}
    elif tag is Tag.T6:
        u = rng.randint(2, 3)
        d2 = 2 * u + rng.randint(0, 3)
        d = _weights(2 * u, d2, u + d2)
        params = {"c": _rand_nonzero(rng)}
    elif tag is Tag.T7:
        r1 = rng.choice([3, 5])
        if r1 == 3:
            u = rng.randint(2, 3)
            d = _weights(2 * u, rng.randint(max(2 * u, u + 2), 3 * u), 3 * u)
        else:
            u = rng.randint(1, 2)
            d = _weights(2 * u, rng.randint(3 * u + 2, 5 * u), 5 * u)
        params = {"c": _rand_nonzero(rng), "r1": r1}
    elif tag is Tag.T8:
        if rng.random() < 0.5:
            m = rng.randint(2, 4)
            r1, d = 1, _weights(m, m, m)
        else:
            v = rng.randint(2, 3)
            d1 = rng.randint(v, 2 * v)
            r1, d = 2, _weights(d1, 2 * v, d1 + v)
        params = {"c": _rand_nonzero(rng), "r1": r1}
    elif tag is Tag.T9:
        e1 = rng.choice([3, 5])
        w = rng.randint(1, 2)
        d = _weights(2 * w, e1 * w, e1 * w)
        if rng.random() < 0.5:
            b = -(_rand_nonzero(rng, 1, 3) ** 2)  # normalizable over Q
        else:
            b = _rand_nonzero(rng)
        params = {"a": _rand_nonzero(rng), "b": b, "e1": e1}
    elif tag is Tag.T10:
        e1, r1 = rng.choice([(1, 1), (2, 2), (1, 2), (2, 3)])
        u = rng.randint(1, 2) if r1 <= e1 else rng.randint(2, 3)
        d = _weights(2 * u, 2 * e1 * u, (e1 + r1) * u)
        params = {"a": _rand_nonzero(rng), "b": _rand_nonzero(rng), "e1": e1, "r1": r1}
    elif tag is Tag.T11:
        e1 = rng.randint(1, 3)
        d1 = rng.randint(2, 3)
        d = _weights(d1, e1 * d1, e1 * d1)
        a1, b1, a2, b2 = _independent_pair(rng)
        params = {"a1": a1, "b1": b1, "a2": a2, "b2": b2, "e1": e1}
    elif tag is Tag.T12:
        w = rng.randint(2, 3)
        d = _weights(2 * w, 2 * w, 3 * w)
        a2, b2 = _rand_nonzero(rng), _rand_nonzero(rng)
        if rng.random() < 0.25:
            c = _rand_nonzero(rng)
            a1, b1 = c * a2, c * b2  # parallel: the cube case
        else:
            a1, b1 = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
            if (a1, b1) == (0, 0):
                a1 = Fraction(1)
        params = {"a1": a1, "b1": b1, "a2": a2, "b2": b2}
    elif tag is Tag.T13:
        e1 = rng.randint(2, 3)
        u = rng.randint(2, 3)
        d = _weights(2 * u, 2 * e1 * u, (2 * e1 + 1) * u)
        params = {"a": _rand_nonzero(rng), "b": _rand_nonzero(rng), "e1": e1}
    else:
        raise ValueError(f"no sampler for {tag}")
    # classify reports no x3-shift for TwoVarBinomial (x3-free) and T4 (a
    # shift of x1^k*x3 folds into P).
    unshifted = tag in (Tag.TWO_VAR_BINOMIAL, Tag.T4)
    h = Polynomial.zero(3) if unshifted else _rand_h(rng, d)
    return reconstruct(RelationType(tag, params, h, lam)), d


FORBIDDEN_ENTRIES = (1, 2, 3, 4, 5, 6)


def sample_forbidden(entry: int, rng: random.Random):
    """(R, d) proportional to a member of the given forbidden family."""
    lam = _rand_nonzero(rng)
    a, b = _rand_nonzero(rng), _rand_nonzero(rng)
    if entry == 1:
        t = rng.randint(2, 3)
        d = _weights(3 * t, 4 * t, 6 * t)
        q = _mono(4, 0, 0, a) + _mono(0, 3, 0, b)
    elif entry == 2:
        t = rng.randint(2, 3)
        d = _weights(6 * t, 10 * t, 15 * t)
        q = _mono(5, 0, 0, a) + _mono(0, 3, 0, b)
    elif entry == 3:
        e = rng.randint(1, 2)
        u = rng.randint(2, 3)
        d = _weights(2 * u, 2 * e * u, (2 * e + 1) * u)
        a1, b1, a2, b2 = _independent_pair(rng)
        q = _binomial(a1, b1, e) * _binomial(a2, b2, e) * _x(1)
    elif entry == 4:
        w = rng.randint(2, 3)
        d = _weights(2 * w, 2 * w, 3 * w)
        # All three forms involve x2: a bare x1 factor would overlap the
        # third family, which the matcher reports first.
        while True:
            ls = [
                (Fraction(rng.randint(-3, 3)), _rand_nonzero(rng, -3, 3))
                for _ in range(3)
            ]
            if all(
                ls[i][0] * ls[j][1] - ls[j][0] * ls[i][1] != 0
                for i in range(3)
                for j in range(i + 1, 3)
            ):
                break
        q = Polynomial.constant(1, 3)
        for ai, bi in ls:
            q = q * _binomial(ai, bi, 1)
    elif entry == 5:
        v = rng.randint(2, 3)
        d = _weights(4 * v, 6 * v, 9 * v)
        q = (_mono(3, 0, 0, a) + _mono(0, 2, 0, b)) * _x(2)
    elif entry == 6:
        e1 = rng.choice([3, 5])
        m = rng.randint(2, 3)
        d = _weights(2 * m, e1 * m, (e1 + 1) * m)
        q = (_mono(e1, 0, 0, a) + _mono(0, 2, 0, b)) * _x(1)
    else:
        raise ValueError(f"forbidden entry must be 1..6, got {entry}")
    h = _rand_h(rng, d)
    x3p = _x(3) + h
    return (x3p * x3p + q) * lam, d
