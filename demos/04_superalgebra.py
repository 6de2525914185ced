"""The q-deformed Lie superalgebra and its action on the coordinates.

Run:  python demos/04_superalgebra.py
"""

from qdc import check_local_confluence, format_element, graded_commutator, normalize
from qdc.calculus import verify_family
from qdc.catalog import get_catalog
from qdc.liealg import classical_limit_checks, verify_cross_relations_consistency
from qdc.parser import parse_expression

cat = get_catalog()
la = cat.presentation("LieAlg")

# the bracket of the two even generators vanishes; the odd generators square
# to zero and close on the evens
print("[T1, T2] =", format_element(graded_commutator(la.el("T1"), la.el("T2"), la), la))
e = parse_expression("nabla_m*nabla_p + q^-2*nabla_p*nabla_m", la)
print("nm*np + q^-2 np*nm reduces to:", format_element(normalize(e, la), la))

# the bracket relations are consistent with the action on coordinates: the
# combined rewriting system has no failing overlaps
rep = check_local_confluence(la, 4)
print(f"\ncombined bracket/cross-rule system, degree 4: "
      f"{rep.ambiguous} ambiguous words, {len(rep.failures)} failures")

# the displayed conjugation identities reduce to zero
e = parse_expression("nabla_p*nabla_p*a - q^2*a*nabla_p*nabla_p", la)
print("np^2 a - q^2 a np^2 reduces to:", format_element(normalize(e, la), la))

# two-way reductions of bracket-times-coordinate words agree
checks = [c.run() for c in verify_cross_relations_consistency(cat)]
print(f"cross-relation consistency: {sum(c.passed for c in checks)}/{len(checks)}")

# change of basis X = T1 + T2, Y = T1 - T2: its words hold no coordinate,
# so only the bracket relations reduce them
checks = [c.run() for c in verify_family("xy_basis", cat)]
print(f"X/Y-basis relations: {sum(c.passed for c in checks)}/{len(checks)}")

e = parse_expression(
    "nabla_p*nabla_m + q^2*nabla_m*nabla_p - q^2*X - 1/2*(1 - q^2)*(X*X - X*Y)",
    la)
print("quadratic X/Y relation residual:", format_element(normalize(e, la), la))

# at q = 1 the deformation terms vanish and the classical brackets remain
checks = [c.run() for c in classical_limit_checks(cat)]
print(f"classical limit at q = 1: {sum(c.passed for c in checks)}/{len(checks)}")
