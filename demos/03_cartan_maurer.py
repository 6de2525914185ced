"""The inverse supermatrix, the one-forms, and the structure equations.

The inverse entries are defined composites in the localized algebra (nothing
about them is postulated), so every commutation relation they satisfy is a
theorem obtained by reduction.  The Cartan-Maurer one-forms are built from
them, and the structure equations follow from the graded Leibniz rule.

Run:  python demos/03_cartan_maurer.py
"""

from qdc import format_element, normalize
from qdc.calculus import exterior_d, verify_family, verify_structure_equations
from qdc.catalog import get_catalog
from qdc.parser import parse_expression

cat = get_catalog()
loc = cat.presentation("Omega_loc")

inv = loc.defined
print("inverse supermatrix entries (normal forms):")
for k in ("iA", "iB", "iC", "iD"):
    print(f"  {k} =", format_element(normalize(inv[k], loc), loc))

# T T^-1 = 1 entrywise, by reduction
row1 = parse_expression("a*iA + beta*iC", loc)
print("\na*iA + beta*iC reduces to:", format_element(normalize(row1, loc), loc))

print("\none-form composites:")
for k in ("w1", "u", "w2", "v"):
    print(f"  {k} =", format_element(normalize(loc.defined[k], loc), loc))

# the commutation relations of coordinates with inverse entries and with the
# one-forms are all theorems; each family reduces to zero residuals
for family in ("T_inverse", "inverse_differential", "T_forms", "forms"):
    checks = [c.run() for c in verify_family(family, cat)]
    print(f"family {family}: {sum(c.passed for c in checks)}/{len(checks)} hold")

# d of a one-form composite equals its two-form expression
w1 = loc.defined["w1"]
u, v = loc.defined["u"], loc.defined["v"]
res = normalize(exterior_d(w1, cat) - (w1 * w1 - u * v), loc)
print("\nd(w1) - (w1^2 - u v) reduces to:", format_element(res, loc))

checks = [c.run() for c in verify_structure_equations(cat)]
print(f"structure equations: {sum(c.passed for c in checks)}/{len(checks)} hold")
