"""Graded Hopf structure on the differential algebra.

The tensor square and cube are kernel.tensor_power of Omega_loc, where
normalize supplies the slots and the Koszul sign
(A (x) B)(C (x) D) = (-1)^(p(B)p(C)) AC (x) BD, so a tensor is a plain
Element.  The coproduct, counit and antipode are each given by one table of
images on the generators, applied by kernel.substitute (for the antipode,
to the reversed word) and then normalized.  On the matrices of generators
the tables are delta(T) = T (x) T, eps(T) = 1 and S(T) = T^-1, extended to
the differentials: eps(That) = 0.  A formal inverse's images are computed
from its generator's: its counit is 1, and its coproduct and antipode are
inverses found by a finite geometric series.  The counit and antipode act
on the localized algebra, and the axioms are verified by exact reduction
in the square or the cube.

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
    _accumulate,
    _accumulate_product,
    format_element,
    normalize,
    residual,
    substitute,
    tensor_legs,
    tensor_power,
    tensor_word,
)
from .report import Check
from .ring import ONE, ZERO
from .rmatrix import DT_NAMES, OMEGA_NAMES, T_NAMES, identity_matrix, name_matrix


def _image(e, images, what, target):
    """The algebra map given on letters by the table images, applied to e
    and normalized in target.  `what` names the map in the error for a
    letter with no image."""
    try:
        image = substitute(images, e)
    except KeyError as exc:
        raise UnsupportedHopfImageError(f"{what} of {exc.args[0]} is not defined") from None
    return normalize(image, target)


def _inverse(t, x, p):
    """The inverse of t in p by the finite geometric series, where x inverts
    t's leading term: t^-1 = x (1 - r)^-1 with r = 1 - t x, a finite sum
    because r is nilpotent, its words carrying odd letters."""
    power = Element.unit()
    r = power - normalize(t * x, p)
    total = dict(power.terms)
    for _ in range(8):
        power = normalize(power * r, p)
        if power.is_zero():
            break
        _accumulate(total, power.terms)
    else:
        raise UnsupportedHopfImageError("geometric series did not close")
    return normalize(x * Element(total, _clean=True), p)


def _on_names(names, M):
    """The table taking each name of a 2x2 grid to M's entry at its place."""
    return {n: e for row, erow in zip(names, M.entries) for n, e in zip(row, erow)}


# -- structure data ------------------------------------------------------------


class HopfData:
    """Coproduct, counit and antipode, each an image table on the localized
    generators.  A formal inverse u of g takes its images from g's, by
    g*u = 1: delta(u) = delta(g)^-1 and S(u) = S(g)^-1, where eps(g) = 1;
    Dgamma_inv, with eps(Dgamma) = 0, has none."""

    def __init__(self, cat):
        loc = self.loc = cat.presentation("Omega_loc")
        self.square = tensor_power(loc, 2)
        self.counit_images = self._build_counit()
        self.delta_images = self._build_delta()
        self.antipode_images = self._build_antipode()
        for u in loc.generators:
            g = u.inverse_of
            if g and self.counit_images[g] == Element.unit():
                self.counit_images[u.name] = Element.unit()
                self.delta_images[u.name] = _inverse(
                    self.delta_images[g], self.tensor((u.name,), (u.name,)), self.square)
                self.antipode_images[u.name] = _inverse(
                    self.antipode_images[g], loc.el(g), loc)

    def tensor(self, w1, w2, coeff=ONE):
        """The element w1 (x) w2 of the tensor square."""
        return Element.word(tensor_word(w1, w2), coeff)

    def _build_counit(self):
        # eps(T) = 1, the identity matrix, and eps(That) = 0
        return {**_on_names(T_NAMES, identity_matrix((0, 1))),
                **{n: Element.zero() for row in DT_NAMES for n in row}}

    # the matrix coproduct on coordinates and its extension to differentials:
    # delta(T) = T_1 T_2 and delta(That) = That_1 T_2 + T_1^s That_2, where
    # M_k is M over the letters of slot k and ^s signs the odd entries
    def _build_delta(self):
        def legs(names, shift):
            words = [[tensor_word((n,), (n,)) for n in row] for row in names]
            return [name_matrix(self.square, [[w[k] for w in row] for row in words],
                                shift) for k in (0, 1)]

        T1, T2 = legs(T_NAMES, 0)
        Th1, Th2 = legs(DT_NAMES, 1)
        return {**_on_names(T_NAMES, T1 @ T2),
                **_on_names(DT_NAMES, Th1 @ T2 + T1.signed() @ Th2)}

    def _build_antipode(self):
        loc = self.loc
        # S(T) = T^-1, and S(That) = -(T^-1)^s That T^-1: the sign of the
        # mnemonic matrix form attaches to the entries of the left inverse
        # factor, entrywise (+A, -B; -C, +D)
        Tinv = name_matrix(loc, (("iA", "iB"), ("iC", "iD")))
        S = Tinv.signed() @ name_matrix(loc, DT_NAMES, 1) @ Tinv
        return {**_on_names(T_NAMES, Tinv),
                **{n: normalize(-e, loc) for n, e in _on_names(DT_NAMES, S).items()}}

    # -- the three maps ---------------------------------------------------

    def coproduct(self, e):
        return _image(e, self.delta_images, "coproduct", self.square)

    def counit(self, e):
        return _image(e, self.counit_images, "counit", self.loc).terms.get((), ZERO)

    def antipode(self, e):
        """Graded anti-homomorphism: S(g1...gk) applies the generator images
        to the reversed word and picks up (-1)^(number of odd inversions);
        with n odd letters that is n(n-1)/2 inversions."""
        par = self.loc.parity_of
        reversed_terms = {}
        for word, c in e.terms.items():
            n = sum(par[g] for g in word)
            reversed_terms[word[::-1]] = -c if n * (n - 1) // 2 % 2 else c
        return _image(Element(reversed_terms, _clean=True), self.antipode_images,
                      "antipode", self.loc)


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
    delta_left, delta_right = {}, {}
    for g, t in H.delta_images.items():
        s1, s2, s3 = tensor_word((g,), (g,), (g,))
        delta_left[s1], delta_left[s2] = t, Element.word((s3,))
        delta_right[s1] = Element.word((s1,))
        delta_right[s2] = Element({tensor_word((), *tensor_legs(w, 2)): c
                                   for w, c in t.terms.items()}, _clean=True)

    E = Element.word
    for g in OMEGA_NAMES:
        def fn_coassoc(g=g):
            t = H.coproduct(E((g,)))
            diff = (_image(t, delta_left, "coproduct", cube)
                    - _image(t, delta_right, "coproduct", cube))
            return None if diff.is_zero() else f"{len(diff.terms)} unmatched triple terms"
        out.append(Check(f"hopf.coassociativity_{g}",
                         f"(delta (x) id) delta({g}) = (id (x) delta) delta({g})",
                         "(6)", fn_coassoc))

    # the two-sided laws: over the legs w1 (x) w2 of delta(g), each side
    # multiplies its two leg maps' images and must sum to the target
    def fn_law(law, g, left, right, want, sides):
        sums = [{}, {}]
        for w, c in H.coproduct(E((g,))).terms.items():
            w1, w2 = tensor_legs(w, 2)
            for acc, (f1, f2) in zip(sums, (left, right)):
                _accumulate_product(acc, f1(w1).terms, f2(w2).terms, c)
        bad = [side for side, s in zip(sides, sums)
               if normalize(Element(s, _clean=True) - want(g), loc)]
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
            expansion = {tensor_word((x,), (y,)): ONE if s > 0 else -ONE
                         for x, y, s in terms}  # four distinct words
            if Element(expansion) != H.delta_images[g]:
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
