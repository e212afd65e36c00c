"""Polynomial derivations and the locally nilpotent witness construction.

A derivation is stored as its coefficient tuple (a1,..,an), meaning
sum(a_i * d/dx_i); applying it to P gives sum(a_i * dP/dx_i), which
satisfies the Leibniz rule exactly.  With respect to a p.w.h. degree, the
degree of a nonzero derivation is max_i (deg(a_i) - w_i), and its leading
part keeps from each a_i only the homogeneous component of degree
deg(derivation) + w_i.

For an automorphism F = (f1,..,fn) with inverse (g1,..,gn) and constant
Jacobian mu, the Jacobian derivations are

  delta_i(P) = mu^{-1} * dP/dx_i
  Delta_i(P) = j(g1,..,g_{i-1}, P, g_{i+1},..,gn)

intertwined by Delta_i(P) o F = delta_i(P o F).  The coefficient of
d/dx_j in Delta_i is the cofactor C_ij of the Jacobian matrix J_g of the
inverse, and the adjugate identity adj(J_g) = det(J_g) * J_g^-1 =
mu^-1 * (J_F o g) gives C_ij = mu^-1 * (df_j/dx_i) o g.  Two routes build
them:

  * word input, F = G1 o .. o Gk (word_derivations): by the chain rule
    J_F o g = J_G1(v_1) .. J_Gk(v_k) with v_t = Gt^-1 o .. o G1^-1, the
    intermediate tuples of the word's autmap.Certified.inverse_steps, so
    column i comes from applying the generator Jacobians, last to first,
    to the unit vector e_i;
  * a raw PolyMap with its inverse (delta_derivation): Laplace cofactors
    of the expanded inverse's Jacobian matrix.  It is also the independent
    reference the verify suites and tests compare the word route with.

Both verify sum_j dg_i/dx_j * C_ij = j(g1,..,gn) = 1/mu.

Every Delta_i is locally nilpotent, some index i satisfies
deg2(Delta_i) >= -w_i, and the leading part of that Delta_i for the induced
degree deg2 is again locally nilpotent and stabilizes the ideal of
relations; when the ideal is principal with generator R, the leading part
annihilates R.  lnd_witness returns that index and leading derivation.

Local nilpotence is semi-decided by bounded iteration on the coordinate
functions: vanishing within the cap gives LocallyNilpotent with the
per-variable vanishing orders, otherwise the verdict is Unknown (for
x1 * d/dx1 the iterates never vanish, but the loop only ever observes
non-vanishing).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .autmap import (
    Affine,
    AutWord,
    Certified,
    Elementary,
    PolyMap,
    certify,
    word_jacobian,
)
from .polycore import (
    MINUS_INFINITY,
    Polynomial,
    WeightVector,
    _det,
    _part,
    _scaled_degrees,
    compose,
    format_poly,
    linear_combination,
    partial,
)


class NoWitnessIndex(RuntimeError):
    """No index satisfies the witness inequality: the input map cannot be an
    automorphism (for genuine automorphisms such an index always exists)."""


@dataclass(frozen=True)
class Derivation:
    """sum(coeffs[i] * d/dx_{i+1}) on the polynomial ring in n variables."""

    n: int
    coeffs: tuple

    def __post_init__(self):
        cs = tuple(self.coeffs)
        if len(cs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(cs)}")
        for c in cs:
            if c.n != self.n:
                raise ValueError("coefficient has wrong variable count")
        object.__setattr__(self, "coeffs", cs)

    @staticmethod
    def coordinate(i: int, n: int) -> "Derivation":
        """d/dx_i (1-based)."""
        cs = [Polynomial.zero(n)] * n
        cs[i - 1] = Polynomial.constant(1, n)
        return Derivation(n, tuple(cs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)


@dataclass(frozen=True)
class LocallyNilpotent:
    """orders[i] is the minimal k with derivation^k(x_{i+1}) = 0."""

    orders: tuple


@dataclass(frozen=True)
class Unknown:
    cap: int


NilpotenceVerdict = Union[LocallyNilpotent, Unknown]


def apply(d: Derivation, p: Polynomial) -> Polynomial:
    """sum(a_i * dp/dx_i), one linear_combination; a K-derivation of the
    polynomial ring."""
    if d.n != p.n:
        raise ValueError("dimension mismatch between derivation and polynomial")
    return linear_combination(((a, partial(p, i)) for i, a in enumerate(d.coeffs, start=1)
                               if not a.is_zero()), p.n)


def derivation_degree(d: Derivation, w: WeightVector):
    """max_i (wdeg(a_i) - w_i); MINUS_INFINITY iff d = 0.

    It suffices to take the sup over the coordinate functions, since for any
    P the degree of d(P) is at most deg(d) + deg(P).
    """
    return _degree_and_leading(d, w)[0]


def leading_derivation(d: Derivation, w: WeightVector) -> Derivation:
    """Leading part for the weighted degree: coefficient i keeps its
    homogeneous component of degree deg(d) + w_i (possibly zero).

    The result is a nonzero w-homogeneous derivation; idempotent on
    homogeneous input.
    """
    lead = _degree_and_leading(d, w)[1]
    if lead is None:
        raise ValueError("zero derivation has no leading part")
    return lead


def _degree_and_leading(d: Derivation, w: WeightVector):
    """(derivation_degree(d, w), leading_derivation(d, w)) from one
    _scaled_degrees pass per coefficient; the leading part is None for d = 0."""
    if len(w) != d.n:
        raise ValueError("weight vector length does not match derivation")
    s, ws = w._int_form
    scaled = [_scaled_degrees(a, w)[1] for a in d.coeffs]
    # s * (wdeg(a_i) - w_i) over the nonzero coefficients a_i.
    tops = [max(degs.values()) - wi for degs, wi in zip(scaled, ws) if degs]
    if not tops:
        return MINUS_INFINITY, None
    r = max(tops)
    coeffs = tuple(_part(a, {k: c for k, c in a._nums.items() if degs[k] == r + wi})
                   for a, degs, wi in zip(d.coeffs, scaled, ws))
    return Fraction(r, s), Derivation(d.n, coeffs)


def nilpotence_order(d: Derivation, p: Polynomial, cap: int):
    """deg of p under d: the largest k with d^k(p) != 0.

    Returns MINUS_INFINITY for p = 0, an int when an iterate vanishes within
    cap applications, and Unknown(cap) otherwise.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if p.is_zero():
        return MINUS_INFINITY
    current = p
    for k in range(1, cap + 1):
        current = apply(d, current)
        if current.is_zero():
            return k - 1
    return Unknown(cap)


def default_cap(d: Derivation) -> int:
    """4 * (1 + max total degree of the coefficients) * n."""
    maxdeg = 0
    for c in d.coeffs:
        t = c.total_degree()
        if t is not MINUS_INFINITY:
            maxdeg = max(maxdeg, int(t))
    return 4 * (1 + maxdeg) * d.n


def is_locally_nilpotent(d: Derivation, cap: int | None = None) -> NilpotenceVerdict:
    """Bounded-iteration test on the coordinate functions.

    Vanishing of every x_i within cap applications proves local nilpotence
    (the nilpotent elements form a subalgebra by the Leibniz rule, and the
    x_i generate).  Hitting the cap yields Unknown.
    """
    if cap is None:
        cap = default_cap(d)
    orders = []
    for i in range(1, d.n + 1):
        k = nilpotence_order(d, Polynomial.variable(i, d.n), cap)
        if isinstance(k, Unknown):
            return k
        orders.append(0 if k is MINUS_INFINITY else int(k) + 1)
    return LocallyNilpotent(tuple(orders))


def delta_derivation(inv: PolyMap, i: int, mu: Fraction) -> Derivation:
    """The Jacobian derivation P -> j(g1,..,g_{i-1}, P, g_{i+1},..,gn),
    materialized as a coefficient tuple: by Laplace expansion along row i
    of the Jacobian matrix of inv, the coefficient of d/dx_j is the
    cofactor C_ij = (-1)^(i+j) * det(minor without row i and column j).

    inv must be the expanded inverse map and mu the Jacobian constant of the
    forward map; j(g1,..,gn) = sum_j dg_i/dx_j * C_ij = 1/mu is verified.
    """
    n = inv.n
    if not 1 <= i <= n:
        raise IndexError(f"index {i} out of range 1..{n}")
    rows = [[partial(g, j) for j in range(1, n + 1)] for g in inv.coords]
    minor_rows = rows[: i - 1] + rows[i:]
    coeffs = []
    for j in range(n):
        if minor_rows:
            cofactor = _det(minor_rows, [c for c in range(n) if c != j])
        else:
            cofactor = Polynomial.constant(1, n)  # n = 1: the empty minor
        coeffs.append(-cofactor if (i - 1 + j) % 2 else cofactor)
    _check_cofactors(rows[i - 1], coeffs, mu)
    return Derivation(n, tuple(coeffs))


def _check_cofactors(row, cofactors, mu: Fraction):
    """Raise ValueError unless sum_j row[j] * cofactors[j] = 1/mu, for the
    row i of J_g and the cofactors C_i1,..,C_in of that row."""
    jac_inv = linear_combination(zip(row, cofactors), len(row))
    if not (jac_inv.is_constant() and jac_inv.constant_value() == Fraction(1) / mu):
        raise ValueError("inverse map and Jacobian constant are inconsistent")


def word_derivations(cert: Certified):
    """Yield Delta_1,..,Delta_n of a certified word, built by the chain
    rule: equal to delta_derivation(cert.inverse, i, cert.mu) for each i.

    Column i of J_F o g = J_G1(v_1) .. J_Gk(v_k) is the product applied,
    right to left, to the unit vector e_i: an Affine G_t multiplies by its
    matrix, each entry the int numerators of a row over its denominator,
    an Elementary G_t with target r and addend a adds sum_s (da/dx_s o
    v_t) * vec_s to entry r, and a Transposition swaps two entries.  Each
    new entry is one polycore.linear_combination.  The v_t are
    cert.inverse_steps (a raw map's Certified has none: TypeError), and the
    compositions da/dx_s o v_t are shared by all n columns.  The column
    is scaled by det(J_g), the reciprocal of the word's own Jacobian
    (word_jacobian), so that the check sum_j dg_i/dx_j * C_ij = 1/mu still
    rejects a wrong mu; every step is linear, so the scale enters once, in
    the start vector det(J_g) * e_i.
    """
    word, mu = cert.phi, cert.mu
    n = word.n
    steps = cert.inverse_steps  # v_0 = identity, .., v_k = g
    g = steps[-1]
    scale = 1 / word_jacobian(word)
    zero = Polynomial.zero(n)
    composed = {}  # (t, s) -> da_t/dx_s o v_t, t the 1-based generator index
    for i in range(1, n + 1):
        vec = [zero] * n
        vec[i - 1] = Polynomial.constant(scale, n)
        for t in range(len(word.gens), 0, -1):
            gen = word.gens[t - 1]
            if isinstance(gen, Affine):
                vec = [linear_combination(zip(nums[1:], vec), n, den) for den, nums in gen._rows]
            elif isinstance(gen, Elementary):
                target = gen.target - 1
                pairs = [(1, vec[target])]
                for s, c in enumerate(vec):
                    if c.is_zero() or s == target:  # the addend is free of x_target
                        continue
                    da = composed.get((t, s))
                    if da is None:
                        da = composed[t, s] = compose(partial(gen.addend, s + 1), steps[t])
                    pairs.append((da, c))
                vec[target] = linear_combination(pairs, n)
            else:
                vec[gen.i - 1], vec[gen.j - 1] = vec[gen.j - 1], vec[gen.i - 1]
        _check_cofactors([partial(g[i - 1], j) for j in range(1, n + 1)], vec, mu)
        yield Derivation(n, tuple(vec))


def format_derivation(d: Derivation) -> str:
    """n polynomial lines; line i is the coefficient of d/dx_i."""
    return "\n".join(format_poly(c) for c in d.coeffs)


def lnd_witness(phi: AutWord | PolyMap | Certified, w1: WeightVector):
    """Witness index and leading derivation for the degree induced by phi.

    Scans i = 1..n for the first index with deg2(Delta_i) >= -w_i (such an
    index exists for every automorphism; NoWitnessIndex otherwise) and
    returns (i, leading part of Delta_i for deg2).  The caller can check the
    leading part is locally nilpotent and annihilates a principal relation
    generator.

    A word's Delta_i come from word_derivations; a raw PolyMap enters as
    certify(m, inverse) and its Delta_i from delta_derivation.
    """
    cert = certify(phi)
    inv = cert.map_inverse
    if isinstance(cert.phi, AutWord):
        deltas = word_derivations(cert)
    elif inv is None:
        raise ValueError("a raw PolyMap needs an explicit inverse: certify(m, inverse)")
    else:
        deltas = (delta_derivation(inv, i, cert.mu) for i in range(1, inv.n + 1))
    d = cert.d(w1)
    for i, delta in enumerate(deltas, start=1):
        degree, lead = _degree_and_leading(delta, d)
        if degree >= -w1[i]:
            return i, lead
    raise NoWitnessIndex(
        "no index satisfies deg2(Delta_i) >= -w_i; input is not an automorphism"
    )
