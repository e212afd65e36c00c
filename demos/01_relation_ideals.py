"""What do the leading terms of an automorphism satisfy?

Take an automorphism F = (f1,..,fn) of affine space and look only at the
top-degree parts f1bar,..,fnbar of its coordinates.  For an affine map the
leading terms stay algebraically independent; one elementary composition
already forces a relation.  This script walks the basic pipeline on three
maps: an affine map, the simplest elementary map, and the Nagata map.

Run:  python demos/01_relation_ideals.py
"""

from polyaut import (
    WeightVector,
    format_poly,
    parse_map,
    relation_report,
)


def show(title, m, w1=None):
    print(f"== {title}")
    for i, c in enumerate(m.coords, 1):
        print(f"   f{i} = {format_poly(c)}")
    report = relation_report(m, w1)
    print(f"   induced weights d = ({', '.join(str(x) for x in report.d)})")
    if report.ideal.is_zero_ideal():
        print("   relation ideal: (0)  -- the leading terms are independent")
    else:
        gens = ", ".join(format_poly(g, var="z") for g in report.ideal.gens)
        print(f"   relation ideal: ({gens})")
    if report.principal and not report.R.is_zero():
        print(
            f"   principal generator R = {format_poly(report.R, var='z')}, "
            f"deg2(R) = {report.deg2_of_R}, bound nabla+1 = {report.parachute + 1}"
        )
    print()


# An affine map: no relations (and conversely, a zero ideal forces affine).
show("affine", parse_map("x1 + 2*x2 - 1\nx2 + 3", 2))

# One elementary composition: leading terms (x2^2, x2) satisfy z1 = z2^2.
show("elementary", parse_map("x1 + x2^2\nx2", 2))

# The Nagata map: wild (Shestakov-Umirbaev, J. AMS 2004), but its relation
# ideal is as nice as can be: principal with the quadric generator
# z2^2 + z1*z3 of degree 6, comfortably below the bound nabla + 1 = 7.
show(
    "Nagata",
    parse_map(
        "x1 - 2*x2*(x1*x3+x2^2) - x3*(x1*x3+x2^2)^2\n"
        "x2 + x3*(x1*x3+x2^2)\n"
        "x3",
        3,
    ),
)

# Weighted degrees change the picture: with weights (1, 3) an affine map
# can acquire a relation between its leading terms.
show(
    "affine, weights (1, 3)",
    parse_map("x1 + x2\nx2", 2),
    WeightVector((1, 3)),
)
