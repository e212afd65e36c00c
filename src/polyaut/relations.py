"""The relation-ideal pipeline and its degree inequalities.

relation_report ties the pieces together for one automorphism: the weighted
leading terms of its coordinates, the induced weights d_i = deg1(f_i), the
kernel of z_i -> leading term of f_i (the ideal of relations), its
principality and monic generator R, the drop bound

    nabla = d_1 + .. + d_n - n        (standard deg1)
    deg2(R) <= nabla + 1,

which under uniform weights w1 = c*(1, .., 1), where every degree scales by
c, reads deg2(R) <= nabla + c with nabla = d_1 + .. + d_n - n*c.  The
report's bound_ok is that verdict (vacuously True when R is None or zero);
for any other w1 the bound is not proved and bound_ok is None.  Also, for
n <= 3 and any positive weights, an independent graded-slice oracle shadow
check of the kernel computation that covers every basis member.  The
report keeps the autmap.Certified it was computed from as report.cert;
later steps on the same automorphism read its map, Jacobian constant,
inverse and weights instead of expanding or certifying the input again.

Relation-ideal elements are returned as n-variable polynomials; read their
variables as z1..zn (the i-th slot stands for the leading term of f_i).
Substituting x_i for z_i identifies them with the x-polynomials the degree
inequalities speak about; the two rings are structurally the same and no
conversion is needed.

The module also exposes the two degree inequalities as testable predicates:

  * check_degree_lemma:  deg1(P o F) <= deg2(P), strict exactly when the
    deg2-leading term of a nonzero P lies in the relation ideal;
  * check_parachute:     deg1(P o F) >= deg1(d^k P/dx^k o F) + k*d - k*nabla,
    the k-fold minoration that prevents composition from dropping degrees
    arbitrarily far.

Both read deg1(P o F) from the leading forms (_composed_degree).  Write
P~ for the deg2-leading form of P and fbar_i for the w1-leading form of
f_i.  A monomial z^a of deg2 delta composes to f^a, whose w1-degree is
delta with top component fbar^a, so the w1-component of P o F at
deg2(P) is P~(fbar).  When P~ has one term, P~(fbar) is a nonzero scalar
times a product of the nonzero fbar_i, nonzero because Q[x] is a domain;
otherwise it is composed from the few terms of the fbar_i.  Either way,
P~(fbar) != 0 gives deg1(P o F) = deg2(P) with no composition of P by the
whole map.  Only in the strict case, P~(fbar) = 0, is P o F composed and
its degree read off.  tilde_in_I still comes from normal_form against the
Groebner basis, so the strictness verdict cross-checks the Buchberger
kernel against that direct evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .autmap import AutWord, Certified, PolyMap, certify
from .groebner import (
    IdealBasis,
    graded_kernel_oracle,
    kernel_ideal,
    normal_form,
    span_contains,
)
from .polycore import (
    MINUS_INFINITY,
    Polynomial,
    WeightVector,
    _leading,
    compose,
    format_poly,
    format_rational,
    leading_term,
    partial,
    wdeg,
)


class OracleMismatch(RuntimeError):
    """The Buchberger kernel and the graded linear-algebra oracle disagree."""


@dataclass(frozen=True)
class RelationReport:
    """Everything the pipeline computes for one map and one degree."""

    cert: Certified  # the automorphism the report was computed from
    w1: WeightVector
    d: WeightVector
    fbars: tuple  # weighted leading terms of the coordinates
    ideal: IdealBasis
    R: Polynomial | None  # monic generator when principal (0 for the zero ideal)
    deg2_of_R: object  # WDegree
    parachute: Fraction
    bound_ok: bool | None  # None: w1 is not uniform, so no bound is proved

    @property
    def principal(self) -> bool:  # the relation ideal is (R), R possibly 0
        return self.R is not None

    def to_dict(self) -> dict:
        return {
            "n": self.cert.m.n,
            "w1": [format_rational(w, noun="a weight") for w in self.w1],
            "d": [format_rational(w, noun="a weight") for w in self.d],
            "fbars": [format_poly(f) for f in self.fbars],
            "ideal": [format_poly(g, var="z") for g in self.ideal.gens],
            "principal": self.principal,
            "R": None if self.R is None else format_poly(self.R, var="z"),
            "deg2_of_R": format_rational(self.deg2_of_R, noun="a degree"),
            "parachute": format_rational(self.parachute, noun="a degree"),
            "bound_ok": self.bound_ok,
        }


def relation_report(phi: AutWord | PolyMap | Certified, w1: WeightVector | None = None,
                    oracle_shadow: bool = True) -> RelationReport:
    """Compute leading terms, relation ideal, principality, R, nabla and the
    degree bound for the map (default weights: standard).

    For n <= 3, under any positive weights, the graded oracle independently
    recomputes the kernel up to degree nabla + 1, or up to the top deg2 of a
    basis member when that is higher, so it sees every generator, R
    included; any disagreement raises OracleMismatch.
    """
    cert = certify(phi)
    n = cert.m.n
    if w1 is None:
        w1 = WeightVector.standard(n)
    fbars = tuple(leading_term(c, w1) for c in cert.m.coords)
    d = cert.d(w1)
    nabla = d.total() - w1.total()
    ideal = kernel_ideal(fbars, d)
    # A reduced basis is principal iff it has at most one member.
    if ideal.is_zero_ideal():
        R = Polynomial.zero(n)
    else:
        R = ideal.gens[0] if len(ideal) == 1 else None
    deg2_of_R = MINUS_INFINITY if R is None else wdeg(R, d)
    # The bound speaks about a nonzero principal generator only, and is
    # proved for uniform weights c*(1, .., 1) only.
    c = w1[1]
    bound_ok = (None if any(w != c for w in w1)
                else R is None or R.is_zero() or deg2_of_R <= nabla + c)
    report = RelationReport(
        cert=cert, w1=w1, d=d, fbars=fbars, ideal=ideal, R=R,
        deg2_of_R=deg2_of_R, parachute=nabla, bound_ok=bound_ok,
    )
    if oracle_shadow and n <= 3:
        _shadow_check(report)
    return report


def _shadow_check(report: RelationReport) -> list:
    """Cross-check the kernel against the graded oracle up to the larger of
    nabla + 1 and the top deg2 of a basis member, so that every basis member
    lies in the oracle's span; returns the oracle elements it checked."""
    dmax = max([report.parachute + 1, *(wdeg(g, report.d) for g in report.ideal.gens)])
    oracle = graded_kernel_oracle(report.fbars, report.d, dmax)
    for g in oracle:
        if not normal_form(g, report.ideal).is_zero():
            raise OracleMismatch(
                f"oracle element {g} does not reduce to zero against the kernel basis"
            )
    for g in report.ideal.gens:
        if not span_contains(oracle, g):
            raise OracleMismatch(f"kernel generator {g} is outside the oracle span")
    return oracle


def _composed_degree(p: Polynomial, coords, fbars, w1: WeightVector, leading):
    """wdeg(P o F, w1) for F = coords and fbars their w1-leading forms, from
    leading = _leading(p, d), d the coordinates' w1-degrees (module
    docstring): P o F is composed only when the d-leading form of P
    vanishes at fbars."""
    s, top, tilde = leading
    if top is None:
        return MINUS_INFINITY
    if len(tilde.terms) == 1 or not compose(tilde, fbars).is_zero():
        return Fraction(top, s)
    return wdeg(compose(p, coords), w1)


def check_degree_lemma(phi: AutWord | PolyMap | Certified, w1: WeightVector,
                       p: Polynomial, report: RelationReport | None = None):
    """Evaluate deg1(P o F) <= deg2(P) and the strictness criterion.

    Returns (lhs, rhs, strict, tilde_in_I): lhs = deg1(P o F),
    rhs = deg2(P), strict = (lhs < rhs), and tilde_in_I reports whether the
    deg2-leading term of P reduces to zero against the relation ideal.
    Strictness holds exactly when P is nonzero and its leading term is a
    relation.  lhs comes from the leading forms: the top component of
    P o F is P~(fbar), nonzero when P~ has one term, and P o F is composed
    with the whole map only when P~(fbar) = 0 (module docstring);
    tilde_in_I comes from normal_form alone.  A report computed for phi
    supplies the expanded map; without one, relation_report(phi, w1)
    computes it.  A report computed for other weights than w1 raises
    ValueError: its d would measure the right side in another grading.  So
    does a report whose map is not phi's: it would answer for that map.
    """
    if report is None:
        report = relation_report(phi, w1)
    elif report.w1 != w1:
        raise ValueError("report was computed for a different w1")
    elif phi not in (report.cert, report.cert.phi) and certify(phi).m != report.cert.m:
        raise ValueError("report was computed for a different automorphism")
    leading = s, top, tilde = _leading(p, report.d)
    lhs = _composed_degree(p, report.cert.m.coords, report.fbars, w1, leading)
    rhs = MINUS_INFINITY if top is None else Fraction(top, s)
    strict = (rhs is not MINUS_INFINITY) and lhs < rhs
    tilde_in_I = (not tilde.is_zero()) and normal_form(tilde, report.ideal).is_zero()
    return lhs, rhs, strict, tilde_in_I


def check_parachute(phi: AutWord | PolyMap | Certified, p: Polynomial, k: int,
                    var: int | None = None) -> bool:
    """The k-fold degree minoration under the standard degree:

        deg1(P o F) >= deg1(d^k P / dx_var^k o F) + k*d_var - k*nabla.

    var defaults to the last variable; the guarantee holds for every
    automorphism, so False signals a fault or a non-automorphism input.
    Several queries on one phi share F and d through certify(phi).  Both
    degrees come from the leading forms as in check_degree_lemma: a
    composition with the whole map runs only for a polynomial whose
    d-leading form vanishes at the leading forms of F.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    cert = certify(phi)
    n = cert.m.n
    if var is None:
        var = n
    w1 = WeightVector.standard(n)
    d = cert.d(w1)
    nabla = d.total() - n
    coords = cert.m.coords
    fbars = tuple(leading_term(c, w1) for c in coords)
    lhs = _composed_degree(p, coords, fbars, w1, _leading(p, d))
    pk = p
    for _ in range(k):
        pk = partial(pk, var)
    if pk.is_zero():
        return True
    rhs = _composed_degree(pk, coords, fbars, w1, _leading(pk, d)) + k * d[var] - k * nabla
    return lhs >= rhs
