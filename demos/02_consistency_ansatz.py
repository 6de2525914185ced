"""How the mixed coordinate-differential relations are forced.

On the two-generator block (a, beta) one posits
    a  da = A da a
    a  db = F11 db a + F12 da b
    b  da = F21 da b + F22 db a
    b  db = B db b
and asks for the exterior differential to be consistent with a*beta = q*beta*a
and beta^2 = 0.  The six unknowns are generators that commute with every
other one, so reducing the consistency conditions leaves, for each word of
the block, a polynomial in them that must vanish: three linear and two
quadratic constraints, each printed scaled so its last term has coefficient
1.  The branch F22 = 0 with A = q^2 reproduces the mixed relations used
everywhere else in the package.

Run:  python demos/02_consistency_ansatz.py
"""

from qdc.calculus import (
    Ansatz,
    alternative_branch,
    ansatz_residuals,
    paper_branch,
    solve_ansatz,
)
from qdc.kernel import format_element
from qdc.ring import ONE, ZERO, qp

rep = solve_ansatz()

print("linear constraints (each must vanish):")
for c in rep.linear:
    print("   ", format_element(c, rep.presentation))
print("quadratic constraints:")
for c in rep.quadratic:
    print("   ", format_element(c, rep.presentation))

print("\nselected branch:", rep.selected)
z = paper_branch()
print("  A =", z.A, "| B =", z.B, "| F11 =", z.F11,
      "| F12 =", z.F12, "| F21 =", z.F21, "| F22 =", z.F22)
print("  residuals on this branch:",
      ["0" if r.is_zero() else "NONZERO" for r in ansatz_residuals(z)])

alt = alternative_branch(qp(3))
print("\nalternative branch (F12 = 0), sampled at A = q^3:")
print("  F11 =", alt.F11, "| F22 =", alt.F22, "| F21 =", alt.F21)
print("  residuals:", ["0" if r.is_zero() else "NONZERO"
                       for r in ansatz_residuals(alt)])

print("\nfree parameters:")
for k, v in rep.free_parameters.items():
    print(f"  {k}: {v}")

# a control that violates F12 + q F21 = -1 leaves a nonzero residual
bad = Ansatz(A=ONE, B=ONE, F11=ONE, F12=ZERO, F21=ZERO, F22=ZERO)
print("\nperturbed control residuals:",
      ["0" if r.is_zero() else "NONZERO" for r in ansatz_residuals(bad)])
