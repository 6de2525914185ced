"""Graded Hopf structure on the differential algebra.

The tensor square and cube are kernel.tensor_power of Omega_loc, where
normalize supplies the slots and the Koszul sign
(A (x) B)(C (x) D) = (-1)^(p(B)p(C)) AC (x) BD, so a tensor is a plain
Element.  The coproduct is the algebra map given on the generators: the
images of a word's letters are multiplied, then normalized.  The counit and
antipode act on the localized algebra, and the axioms are verified by exact
reduction in the square or the cube.

`HopfData(cat)` is the entry point: it builds the three maps on one
catalog's Omega_loc, symbolic or numeric shadow, and `verify_hopf_axioms`
builds one for the checks it returns.
"""

from __future__ import annotations

from functools import partial

from .calculus import relations, verify_family
from .errors import UnsupportedHopfImageError
from .kernel import (
    Element,
    format_element,
    normalize,
    residual,
    tensor_legs,
    tensor_power,
    tensor_word,
)
from .report import Check
from .ring import ONE, ZERO
from .rmatrix import DT_NAMES, OMEGA_NAMES, T_NAMES, name_matrix


def counit_value(gname):
    """Counit of a localized generator, 1 or 0; None when undefined, as for
    Dgamma_inv, since 0 is not invertible."""
    if gname in ("a", "d", "a_inv", "d_inv"):
        return 1
    if gname in ("beta", "gamma", "Da", "Dbeta", "Dgamma", "Dd"):
        return 0
    return None


def _image(e, image_of, target):
    """The algebra map given on letters by image_of, applied to e: each
    word becomes the product of its letters' images, normalized in target."""
    out = Element.zero()
    for word, c in e.terms.items():
        acc = Element.unit(c)
        for g in word:
            acc = acc * image_of(g)
        out = out + acc
    return normalize(out, target)


# -- structure data ------------------------------------------------------------


class HopfData:
    """Coproduct, counit and antipode images on the localized generators."""

    def __init__(self, cat):
        self.loc = cat.presentation("Omega_loc")
        self.square = tensor_power(self.loc, 2)
        self.delta_images = self._build_delta()
        self.antipode_images = self._build_antipode()

    def tensor(self, w1, w2, coeff=ONE):
        """The element w1 (x) w2 of the tensor square."""
        return Element.word(tensor_word(w1, w2), coeff)

    # the matrix coproduct on coordinates and its extension to differentials:
    # delta(T) = T_1 T_2 and delta(That) = That_1 T_2 + T_1^s That_2, where
    # M_k is M over the letters of slot k and ^s signs the odd entries
    def _build_delta(self):
        def slot(k, names, shift):
            return name_matrix(
                self.square, [[f"{k}:{n}" for n in row] for row in names], shift)

        T1, T2 = slot(1, T_NAMES, 0), slot(2, T_NAMES, 0)
        dT = T1 @ T2
        dThat = slot(1, DT_NAMES, 1) @ T2 + T1.signed() @ slot(2, DT_NAMES, 1)
        images = {}
        for i in range(2):
            for j in range(2):
                images[T_NAMES[i][j]] = dT.entries[i][j]
                images[DT_NAMES[i][j]] = dThat.entries[i][j]
        images["a_inv"] = self._tensor_inverse(images["a"], "a_inv")
        images["d_inv"] = self._tensor_inverse(images["d"], "d_inv")
        return images

    def _tensor_inverse(self, t, g_inv):
        """Multiplicative inverse via the finite geometric series; the seed
        g_inv (x) g_inv inverts the group-like leading term, and the remainder
        is nilpotent because its slots carry the odd coordinates."""
        sq = self.square
        unit = Element.unit()
        x = self.tensor((g_inv,), (g_inv,))
        r = unit - normalize(t * x, sq)
        total = power = unit
        for _ in range(8):
            power = normalize(power * r, sq)
            if power.is_zero():
                break
            total = total + power
        else:
            raise UnsupportedHopfImageError("geometric series did not close")
        return normalize(x * total, sq)

    def _build_antipode(self):
        loc = self.loc
        E = Element.word
        # S(T) = T^-1, and S(That) = -(T^-1)^s That T^-1: the sign of the
        # mnemonic matrix form attaches to the entries of the left inverse
        # factor, entrywise (+A, -B; -C, +D)
        Tinv = name_matrix(loc, (("iA", "iB"), ("iC", "iD")))
        S = Tinv.signed() @ name_matrix(loc, DT_NAMES, 1) @ Tinv
        images = {}
        for i in range(2):
            for j in range(2):
                images[T_NAMES[i][j]] = Tinv.entries[i][j]
                images[DT_NAMES[i][j]] = normalize(-S.entries[i][j], loc)
        # forced by the anti-homomorphism property on g*g_inv = 1
        images["a_inv"] = (E(("a",))
                           - E(("beta",)) * E(("d_inv",)) * E(("gamma",)))
        images["d_inv"] = (E(("d",))
                           - E(("gamma",)) * E(("a_inv",)) * E(("beta",)))
        return images

    # -- the three maps ---------------------------------------------------

    def delta_image(self, g):
        try:
            return self.delta_images[g]
        except KeyError:
            raise UnsupportedHopfImageError(
                f"coproduct of {g} is not defined (not needed by any identity)"
            ) from None

    def antipode_image(self, g):
        try:
            return self.antipode_images[g]
        except KeyError:
            raise UnsupportedHopfImageError(f"antipode of {g} is not defined") from None

    def coproduct(self, e):
        return _image(e, self.delta_image, self.square)

    def counit(self, e):
        total = ZERO
        for word, c in e.terms.items():
            vals = [counit_value(g) for g in word]
            if None in vals:
                g = word[vals.index(None)]
                raise UnsupportedHopfImageError(f"counit of {g} is not defined")
            if all(vals):
                total = total + c
        return total

    def antipode(self, e):
        """Graded anti-homomorphism: S(g1...gk) applies the generator images
        to the reversed word and picks up (-1)^(number of odd inversions);
        with n odd letters that is n(n-1)/2 inversions."""
        par = self.loc.parity_of
        reversed_terms = {}
        for word, c in e.terms.items():
            n = sum(par[g] for g in word)
            reversed_terms[word[::-1]] = -c if n * (n - 1) // 2 % 2 else c
        return _image(Element(reversed_terms, _clean=True), self.antipode_image,
                      self.loc)


# -- axiom verification --------------------------------------------------------


def verify_hopf_axioms(cat):
    """Coassociativity, the counit laws, the antipode laws, the homomorphism
    property of the coproduct on every relation, and the agreement of the
    explicit differential coproducts with the matrix form."""
    H = HopfData(cat)
    loc = H.loc
    cube = tensor_power(loc, 3)
    out = []

    # (delta (x) id) and (id (x) delta) on the letters of the square; the
    # square's slots 1 and 2 are the cube's slots 1 and 2
    def delta_left(letter):
        k, g = letter.split(":", 1)
        return H.delta_image(g) if k == "1" else Element.word(("3:" + g,))

    def delta_right(letter):
        k, g = letter.split(":", 1)
        if k == "1":
            return Element.word((letter,))
        return Element({tensor_word((), *tensor_legs(w, 2)): c
                        for w, c in H.delta_image(g).terms.items()}, _clean=True)

    E = Element.word
    for g in OMEGA_NAMES:
        def fn_coassoc(g=g):
            t = H.coproduct(E((g,)))
            diff = _image(t, delta_left, cube) - _image(t, delta_right, cube)
            return None if diff.is_zero() else f"{len(diff.terms)} unmatched triple terms"
        out.append(Check(f"hopf.coassociativity_{g}",
                         f"(delta (x) id) delta({g}) = (id (x) delta) delta({g})",
                         "(6)", fn_coassoc))

    # the two-sided laws: over the legs w1 (x) w2 of delta(g), each side
    # multiplies its two leg maps' images and must sum to the target
    def fn_law(law, g, left, right, want, sides):
        sums = [Element.zero(), Element.zero()]
        for w, c in H.coproduct(E((g,))).terms.items():
            w1, w2 = tensor_legs(w, 2)
            for k, (f1, f2) in enumerate((left, right)):
                sums[k] = sums[k] + (f1(w1) * f2(w2)).scaled(c)
        bad = [side for side, s in zip(sides, sums) if normalize(s - want(g), loc)]
        return None if not bad else f"{law} law fails on {bad}"

    def counit(w):
        return Element.unit(H.counit(E(w)))

    def antipode(w):
        return H.antipode(E(w))

    laws = (
        ("counit", "(7)", (counit, E), (E, counit), lambda g: E((g,)),
         ["left", "right"]),
        ("antipode", "(8)", (antipode, E), (E, antipode),
         lambda g: counit((g,)), ["m(S x id)", "m(id x S)"]),
    )
    for law, eq, *args in laws:
        out += [Check(f"hopf.{law}_law_{g}", f"{law} laws on {g}", eq,
                      partial(fn_law, law, g, *args))
                for g in OMEGA_NAMES]

    # coproduct preserves every relation (homomorphism property)
    for pname, r, rel in relations(cat, "A_glq11", "A_hat", "Omega"):
        def fn_hom(rel=rel):
            t = H.coproduct(rel)
            return None if t.is_zero() else format_element(t, H.square)[:160]

        out.append(Check(
            f"hopf.coproduct_preserves.{pname}.{'_'.join(r.pattern)}",
            f"coproduct of the {pname} relation at {'*'.join(r.pattern)} "
            f"vanishes in the tensor square", r.eq, fn_hom))

    def fn_expansion():
        # the explicit differential coproducts against their matrix form:
        # second factor signs attach per entry parity of the coordinate matrix
        stated = {
            "Da": [("Da", "a", 1), ("Dbeta", "gamma", 1),
                   ("a", "Da", 1), ("beta", "Dgamma", -1)],
            "Dbeta": [("Dbeta", "d", 1), ("Da", "beta", 1),
                      ("a", "Dbeta", 1), ("beta", "Dd", -1)],
            "Dgamma": [("Dgamma", "a", 1), ("Dd", "gamma", 1),
                       ("gamma", "Da", -1), ("d", "Dgamma", 1)],
            "Dd": [("Dd", "d", 1), ("Dgamma", "beta", 1),
                   ("gamma", "Dbeta", -1), ("d", "Dd", 1)],
        }
        for g, terms in stated.items():
            acc = Element.zero()
            for x, y, s in terms:
                acc = acc + H.tensor((x,), (y,), ONE if s > 0 else -ONE)
            if acc != H.delta_image(g):
                return f"matrix-form expansion differs at {g}"
        return None

    out.append(Check("hopf.matrix_coproduct_expansion",
                     "explicit differential coproducts match the matrix form",
                     "(25)(26)", fn_expansion))
    return out


def verify_central_element(cat):
    """The quotient of differentials commutes with all eight generators."""
    loc = cat.presentation("Omega_loc")
    return [*verify_family("central", cat),
            Check("central.unit_commutes", "the unit commutes with a", "trivial",
                  lambda: residual(Element.unit() * loc.el("a")
                                   - loc.el("a") * Element.unit(), loc))]
