"""A locally nilpotent derivation that preserves the relation ideal.

For every automorphism there is an index i such that the Jacobian
derivation Delta_i(P) = j(g1,..,P,..,gn), built from the inverse's
coordinates, has deg2-degree at least -w_i.  Its deg2-leading part is then
a locally nilpotent derivation stabilizing the relation ideal, and it
annihilates the generator whenever the ideal is principal.  This script
computes the witness for a tame word and for the Nagata map.

Run:  python demos/02_lnd_witness.py
"""

from polyaut import (
    AutWord,
    Elementary,
    Transposition,
    WeightVector,
    apply,
    certify,
    format_poly,
    is_locally_nilpotent,
    lnd_witness,
    parse_map,
    parse_poly,
    relation_report,
)

# A three-step tame word in the plane.
word = AutWord(
    2,
    (
        Elementary(1, parse_poly("x2^2", 2)),
        Transposition(1, 2, 2),
        Elementary(1, parse_poly("-3*x2^3", 2)),
    ),
)
w1 = WeightVector.standard(2)
i, dbar = lnd_witness(word, w1)
report = relation_report(word)
print("tame word witness")
print(f"   index i = {i}")
for j, c in enumerate(dbar.coeffs, 1):
    print(f"   coefficient of d/dx{j}: {format_poly(c)}")
print(f"   verdict: {is_locally_nilpotent(dbar)}")
print(f"   R = {format_poly(report.R, var='z')}")
print(f"   dbar(R) = {format_poly(apply(dbar, report.R))}")
print()

# The Nagata map with its explicit inverse.  The witness annihilates the
# famous invariant x1*x3 + x2^2.
nagata = parse_map(
    "x1 - 2*x2*(x1*x3+x2^2) - x3*(x1*x3+x2^2)^2\n"
    "x2 + x3*(x1*x3+x2^2)\n"
    "x3",
    3,
)
inverse = parse_map(
    "x1 + 2*x2*(x1*x3+x2^2) - x3*(x1*x3+x2^2)^2\n"
    "x2 - x3*(x1*x3+x2^2)\n"
    "x3",
    3,
)
i, dbar = lnd_witness(certify(nagata, inverse), WeightVector.standard(3))
print("Nagata witness")
print(f"   index i = {i}")
for j, c in enumerate(dbar.coeffs, 1):
    print(f"   coefficient of d/dx{j}: {format_poly(c)}")
print(f"   verdict: {is_locally_nilpotent(dbar)}")
invariant = parse_poly("x2^2 + x1*x3", 3)
print(f"   dbar(x2^2 + x1*x3) = {format_poly(apply(dbar, invariant))}")
