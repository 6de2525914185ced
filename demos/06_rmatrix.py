"""The braid-form R-matrix: Hecke relation, braid relation, and the matrix
form of every relation family.

Run:  python demos/06_rmatrix.py
"""

from qdc import format_element
from qdc.catalog import get_catalog
from qdc.rmatrix import (
    check_hecke_braid,
    r_hat,
    verify_plane_covariance,
    verify_rtt_family,
)

cat = get_catalog()

R = r_hat(cat)
print("R-matrix rows (basis 11, 12, 21, 22):")
for row in R.entries:
    print("  ", [str(e.coeff(()) or 0) for e in row])

checks = [c.run() for c in check_hecke_braid(cat)]
print(f"\nHecke + braid checks: {sum(c.passed for c in checks)}/{len(checks)}")
print("(the braid relation is checked on the graded tensor cube; the R-matrix")
print(" is parity-even, so the ungraded tensor product gives the same R12 and")
print(" R23 entry by entry and needs no check of its own)")

# each matrix relation is checked entrywise (membership) and by comparing
# the span of its entry equations with the transcribed relation family
for eq, what in (("53", "coordinate relations"),
                 ("54", "mixed coordinate-differential relations"),
                 ("55", "differential relations"),
                 ("56", "coordinate/one-form relations"),
                 ("57", "one-form relations")):
    checks = [c.run() for c in verify_rtt_family(eq, cat)]
    print(f"matrix relation ({eq}) <-> {what}: "
          f"{sum(c.passed for c in checks)}/{len(checks)}")

checks = [c.run() for c in verify_plane_covariance(cat)]
print(f"\nsuperplane covariance: {sum(c.passed for c in checks)}/{len(checks)}")

# a taste of the underlying computation: the transformed point of the plane
from qdc.kernel import graded_product, normalize
from qdc.ring import qp

combined = graded_product(cat.presentation("A_glq11"), cat.presentation("A_q"),
                          "supergroup_times_plane")
xp = combined.el("a") * combined.el("x") + combined.el("beta") * combined.el("theta")
tp = combined.el("gamma") * combined.el("x") + combined.el("d") * combined.el("theta")
res = normalize(xp * tp - (tp * xp).scaled(qp(1)), combined)
print("x'theta' - q theta'x' for the transformed point:",
      format_element(res, combined))
