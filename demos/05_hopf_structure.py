"""Graded Hopf structure: coproduct, counit, antipode, and the central element.

Run:  python demos/05_hopf_structure.py
"""

from qdc import Element, format_element, normalize
from qdc.catalog import get_catalog
from qdc.hopf import HopfData, verify_central_element, verify_hopf_axioms
from qdc.kernel import tensor_legs

cat = get_catalog()
loc = cat.presentation("Omega_loc")
# coproduct, counit and antipode on this catalog's Omega_loc
H = HopfData(cat)
# the tensor square: slot k holds the letters k:a, k:beta, ...
square = H.square
W = Element.word

print("coproduct of a:", format_element(H.coproduct(W(("a",))), square))
print("coproduct of Da:", format_element(H.coproduct(W(("Da",))), square))
print("coproduct of a_inv (geometric series):",
      format_element(H.coproduct(W(("a_inv",))), square))

print("\ncounit: eps(a) =", H.counit(W(("a",))),
      "| eps(Da) =", H.counit(W(("Da",))))

print("\nantipode of a:", format_element(H.antipode(W(("a",))), loc))
print("antipode of Da:", format_element(H.antipode(W(("Da",))), loc))

# the antipode law on a: multiply the two tensor legs of the coproduct
t = H.coproduct(W(("a",)))
acc = Element.zero()
for w, c in t.terms.items():
    w1, w2 = tensor_legs(w, 2)
    acc = acc + H.antipode(W(w1)) * W(w2, c)
print("m(S x id) delta(a) =", format_element(normalize(acc, loc), loc))

checks = [c.run() for c in verify_hopf_axioms(cat)]
print(f"\nHopf axioms and homomorphism checks: "
      f"{sum(c.passed for c in checks)}/{len(checks)}")

# the central element: a quotient of differentials commuting with everything
Dhat = loc.defined["Dhat"]
print("\ncentral element:", format_element(normalize(Dhat, loc), loc))
for g in ("a", "Dgamma"):
    res = normalize(Dhat * loc.el(g) - loc.el(g) * Dhat, loc)
    print(f"[Dhat, {g}] =", format_element(res, loc))

checks = [c.run() for c in verify_central_element(cat)]
print(f"centrality checks: {sum(c.passed for c in checks)}/{len(checks)}")
