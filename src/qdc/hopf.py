"""Graded Hopf structure on the differential algebra.

The tensor square multiplies with the Koszul sign
(A (x) B)(C (x) D) = (-1)^(p(B)p(C)) AC (x) BD; the coproduct, counit and
antipode act on the localized algebra, and the axioms are verified by exact
reduction in each tensor slot.
"""

from __future__ import annotations

from .catalog import counit_value, get_catalog
from .errors import UnsupportedHopfImageError
from .kernel import Element, format_element, normalize
from .report import timed_check
from .ring import ONE, ZERO


class TensorElement:
    """Element of the graded tensor square: map (word, word) -> scalar."""

    __slots__ = ("terms",)

    def __init__(self, terms=None, _clean=False):
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def unit(cls, coeff=ONE):
        return cls({((), ()): coeff})

    @classmethod
    def of(cls, w1, w2, coeff=ONE):
        return cls({(tuple(w1), tuple(w2)): coeff})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return TensorElement(out, _clean=True)

    def __neg__(self):
        return TensorElement({k: -c for k, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, coeff):
        if not coeff:
            return TensorElement()
        return TensorElement({k: coeff * c for k, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "TensorElement(0)"
        bits = [
            f"{c!s} {'*'.join(w1) or '1'} (x) {'*'.join(w2) or '1'}"
            for (w1, w2), c in self.terms.items()
        ]
        return "TensorElement(" + " | ".join(bits) + ")"


def tensor_mul(t1, t2, p):
    """Koszul-signed product in the tensor square."""
    par = p.word_parity
    out = {}
    for (a, b), c1 in t1.terms.items():
        pb = par(b)
        for (x, y), c2 in t2.terms.items():
            sign = -1 if (pb and par(x)) else 1
            key = (a + x, b + y)
            c = c1 * c2
            if sign < 0:
                c = -c
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return TensorElement(out, _clean=True)


def tensor_normalize(t, p):
    """Reduce both slots independently."""
    out = TensorElement()
    for (w1, w2), c in t.terms.items():
        n1 = normalize(p.word(w1), p)
        n2 = normalize(p.word(w2), p)
        acc = {}
        for u1, c1 in n1.terms.items():
            for u2, c2 in n2.terms.items():
                key = (u1, u2)
                cc = c * c1 * c2
                s = acc.get(key)
                s = cc if s is None else s + cc
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        out = out + TensorElement(acc, _clean=True)
    return out


def format_tensor(t, p):
    if t.is_zero():
        return "0"
    keyed = sorted(t.terms, key=lambda k: (p.word_key(k[0]), p.word_key(k[1])))
    bits = []
    for k in keyed:
        c = t.terms[k]
        w1 = "*".join(k[0]) or "1"
        w2 = "*".join(k[1]) or "1"
        bits.append(f"({c}) {w1} (x) {w2}")
    return " + ".join(bits)


# -- structure data ------------------------------------------------------------


class HopfData:
    """Coproduct, counit and antipode images on the localized generators."""

    def __init__(self, cat):
        self.cat = cat
        self.loc = cat.presentation("Omega_loc")
        self.one = self.loc.scalar_one
        self.zero = cat.scalar(ZERO)
        self.delta_images = self._build_delta()
        self.antipode_images = self._build_antipode()

    # the matrix coproduct on coordinates and its extension to differentials
    def _build_delta(self):
        T = ((("a",), ("beta",)), (("gamma",), ("d",)))
        That = ((("Da",), ("Dbeta",)), (("Dgamma",), ("Dd",)))
        parity_T = ((0, 1), (1, 0))
        one = self.one
        of = TensorElement.of
        images = {}
        for i in range(2):
            for j in range(2):
                acc = TensorElement()
                acc_hat = TensorElement()
                for k in range(2):
                    acc = acc + of(T[i][k], T[k][j], one)
                    sign = one if parity_T[i][k] == 0 else -one
                    acc_hat = (acc_hat
                               + of(That[i][k], T[k][j], one)
                               + of(T[i][k], That[k][j], sign))
                images[T[i][j][0]] = acc
                images[That[i][j][0]] = acc_hat
        images["a_inv"] = self._tensor_inverse(images["a"], ("a_inv", "a_inv"))
        images["d_inv"] = self._tensor_inverse(images["d"], ("d_inv", "d_inv"))
        return images

    def _tensor_inverse(self, t, seed):
        """Multiplicative inverse via the finite geometric series; the seed is
        the inverse of the group-like leading term, and the remainder is
        nilpotent because its slots carry the odd coordinates."""
        p = self.loc
        unit = TensorElement.unit(self.one)
        x = TensorElement.of((seed[0],), (seed[1],), self.one)
        r = unit - tensor_normalize(tensor_mul(t, x, p), p)
        total = unit
        power = unit
        for _ in range(8):
            power = tensor_normalize(tensor_mul(power, r, p), p)
            if power.is_zero():
                break
            total = total + power
        else:
            raise UnsupportedHopfImageError("geometric series did not close")
        return tensor_normalize(tensor_mul(x, total, p), p)

    def _build_antipode(self):
        loc = self.loc
        iA, iB, iC, iD = (loc.defined[k] for k in ("iA", "iB", "iC", "iD"))
        E = loc.word
        images = {"a": iA, "beta": iB, "gamma": iC, "d": iD}
        # the sign of the mnemonic matrix form attaches to the entries of the
        # left inverse factor: entrywise (+A, -B; -C, +D)
        sT = ((iA, -iB), (-iC, iD))
        Tinv = ((iA, iB), (iC, iD))
        That = ((E(("Da",)), E(("Dbeta",))), (E(("Dgamma",)), E(("Dd",))))
        names = (("Da", "Dbeta"), ("Dgamma", "Dd"))
        for i in range(2):
            for j in range(2):
                acc = Element.zero()
                for k in range(2):
                    for l in range(2):
                        acc = acc + sT[i][k] * That[k][l] * Tinv[l][j]
                images[names[i][j]] = normalize(-acc, loc)
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

    def coproduct(self, e):
        p = self.loc
        out = TensorElement()
        for word, c in e.terms.items():
            acc = TensorElement.unit(self.one)
            for g in word:
                acc = tensor_mul(acc, self.delta_image(g), p)
            out = out + acc.scaled(c)
        return tensor_normalize(out, p)

    def counit(self, e):
        total = self.zero
        for word, c in e.terms.items():
            vals = [counit_value(g) for g in word]
            if None in vals:
                g = word[vals.index(None)]
                raise UnsupportedHopfImageError(f"counit of {g} is not defined")
            if all(vals):
                total = total + c
        return total

    def antipode(self, e):
        """Graded anti-homomorphism: S(g1...gk) reverses the word, applies the
        generator images, and picks up (-1)^(number of odd inversions)."""
        p = self.loc
        out = Element.zero()
        for word, c in e.terms.items():
            parities = [p.parity_of[g] for g in word]
            inversions = 0
            for i in range(len(word)):
                for j in range(i + 1, len(word)):
                    inversions += parities[i] * parities[j]
            acc = Element.unit(c if inversions % 2 == 0 else -c)
            for g in reversed(word):
                try:
                    img = self.antipode_images[g]
                except KeyError:
                    raise UnsupportedHopfImageError(
                        f"antipode of {g} is not defined"
                    ) from None
                acc = acc * img
            out = out + acc
        return normalize(out, p)


_DATA_CACHE = {}


def hopf_data(cat=None):
    cat = cat or get_catalog()
    key = cat.q0
    if key not in _DATA_CACHE or _DATA_CACHE[key].cat is not cat:
        _DATA_CACHE[key] = HopfData(cat)
    return _DATA_CACHE[key]


def coproduct(e, cat=None):
    return hopf_data(cat).coproduct(e)


def counit(e, cat=None):
    return hopf_data(cat).counit(e)


def antipode(e, cat=None):
    return hopf_data(cat).antipode(e)


# -- axiom verification --------------------------------------------------------

_OMEGA_GENS = ("a", "beta", "gamma", "d", "Da", "Dbeta", "Dgamma", "Dd")


def _triple_normalize(terms, p):
    out = {}
    for (w1, w2, w3), c in terms.items():
        n = [normalize(p.word(w), p) for w in (w1, w2, w3)]
        for u1, c1 in n[0].terms.items():
            for u2, c2 in n[1].terms.items():
                for u3, c3 in n[2].terms.items():
                    key = (u1, u2, u3)
                    cc = c * c1 * c2 * c3
                    s = out.get(key)
                    s = cc if s is None else s + cc
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
    return out


def _delta_on_slot(t, slot, H):
    """Apply the coproduct inside one slot of a tensor element, yielding
    triple-tensor terms (the maps are even, so no Koszul signs appear)."""
    out = {}
    for (w1, w2), c in t.terms.items():
        target = w1 if slot == 0 else w2
        expanded = TensorElement.unit(H.one)
        for g in target:
            expanded = tensor_mul(expanded, H.delta_image(g), H.loc)
        for (x, y), c2 in expanded.terms.items():
            key = (x, y, w2) if slot == 0 else (w1, x, y)
            cc = c * c2
            s = out.get(key)
            s = cc if s is None else s + cc
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def verify_hopf_axioms(cat=None):
    """Coassociativity, the counit laws, the antipode laws, the homomorphism
    property of the coproduct on every relation, and the agreement of the
    explicit differential coproducts with the matrix form."""
    cat = cat or get_catalog()
    H = hopf_data(cat)
    loc = H.loc
    out = []

    E = loc.word
    for g in _OMEGA_GENS:
        def fn_coassoc(g=g):
            t = H.coproduct(E((g,)))
            left = _triple_normalize(_delta_on_slot(t, 0, H), loc)
            right = _triple_normalize(_delta_on_slot(t, 1, H), loc)
            diff = dict(left)
            for k, c in right.items():
                s = diff.get(k)
                s = -c if s is None else s - c
                if s:
                    diff[k] = s
                else:
                    diff.pop(k, None)
            return None if not diff else f"{len(diff)} unmatched triple terms"
        out.append(timed_check(f"hopf.coassociativity_{g}",
                               f"(delta (x) id) delta({g}) = (id (x) delta) delta({g})",
                               "(6)", fn_coassoc))

    for g in _OMEGA_GENS:
        def fn_counit(g=g):
            t = H.coproduct(E((g,)))
            left = Element.zero()
            right = Element.zero()
            for (w1, w2), c in t.terms.items():
                left = left + E(w2, c * H.counit(E(w1)))
                right = right + E(w1, c * H.counit(E(w2)))
            want = E((g,))
            bad = []
            if normalize(left - want, loc):
                bad.append("left")
            if normalize(right - want, loc):
                bad.append("right")
            return None if not bad else f"counit law fails on {bad}"
        out.append(timed_check(f"hopf.counit_law_{g}",
                               f"counit laws on {g}", "(7)", fn_counit))

    for g in _OMEGA_GENS:
        def fn_antipode(g=g):
            t = H.coproduct(E((g,)))
            left = Element.zero()
            right = Element.zero()
            for (w1, w2), c in t.terms.items():
                left = left + H.antipode(E(w1)) * E(w2, c)
                right = right + E(w1, c) * H.antipode(E(w2))
            want = loc.unit(H.counit(E((g,))))
            bad = []
            if normalize(left - want, loc):
                bad.append("m(S x id)")
            if normalize(right - want, loc):
                bad.append("m(id x S)")
            return None if not bad else f"antipode law fails on {bad}"
        out.append(timed_check(f"hopf.antipode_law_{g}",
                               f"antipode laws on {g}", "(8)", fn_antipode))

    # coproduct preserves every relation (homomorphism property)
    for pname, eq_prefix in (("A_glq11", "(2)"), ("A_hat", "(17)"), ("Omega", "(24")):
        p = cat.presentation(pname)
        for r in p.rules:
            if pname == "Omega" and not r.eq.startswith("(24"):
                continue
            rel = p.word(r.pattern) - r.replacement

            def fn_hom(rel=rel):
                t = H.coproduct(rel)
                return None if t.is_zero() else format_tensor(t, loc)[:160]

            out.append(timed_check(
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
            acc = TensorElement()
            for x, y, s in terms:
                acc = acc + TensorElement.of((x,), (y,), H.one if s > 0 else -H.one)
            if acc != H.delta_image(g):
                return f"matrix-form expansion differs at {g}"
        return None

    out.append(timed_check("hopf.matrix_coproduct_expansion",
                           "explicit differential coproducts match the "
                           "matrix form", "(25)(26)", fn_expansion))
    return out


def verify_central_element(cat=None):
    """The quotient of differentials commutes with all eight generators."""
    cat = cat or get_catalog()
    from .calculus import verify_family

    out = verify_family("central", cat)
    loc = cat.presentation("Omega_loc")

    def fn_unit():
        res = normalize(loc.unit() * loc.el("a")
                        - loc.el("a") * loc.unit(), loc)
        return None if res.is_zero() else format_element(res, loc)

    out.append(timed_check("central.unit_commutes",
                           "the unit commutes with a", "trivial", fn_unit))
    return out
