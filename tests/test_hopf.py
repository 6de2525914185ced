import random

import pytest

from qdc.errors import UnsupportedHopfImageError
from qdc.catalog import get_catalog
from qdc.cli import run_suite
from qdc.hopf import HopfData, _inverse, verify_central_element, verify_hopf_axioms
from qdc.kernel import Element, RewriteRule, normalize, tensor_legs, tensor_word
from qdc.parser import parse_expression
from qdc.ring import ONE, ZERO, lint, qp

W = Element.word


@pytest.fixture(scope="module")
def H(cat):
    return HopfData(cat)


def T(w1, w2, coeff=ONE):
    """w1 (x) w2 in the tensor square."""
    return W(tensor_word(w1, w2), coeff)


def test_coproduct_of_a(H):
    assert H.coproduct(W(("a",))) == T(("a",), ("a",)) + T(("beta",), ("gamma",))


def test_coproduct_of_da_matches_stated_form(H):
    got = H.coproduct(W(("Da",)))
    want = (T(("Da",), ("a",)) + T(("Dbeta",), ("gamma",))
            + T(("a",), ("Da",)) + T(("beta",), ("Dgamma",), lint(-1)))
    assert got == want


def test_coproduct_of_unit(H):
    assert H.coproduct(Element.unit()) == Element.unit()


def test_coproduct_of_localized_inverse(H):
    # the geometric series closes after one correction term
    got = H.coproduct(W(("a_inv",)))
    want = (T(("a_inv",), ("a_inv",))
            + T(("a_inv", "a_inv", "beta"), ("a_inv", "a_inv", "gamma"),
                -lint(1) * qp(2)))
    assert got == want
    # and it is a two-sided inverse of the coproduct of a
    square = H.square
    delta_a = H.coproduct(W(("a",)))
    assert normalize(delta_a * got, square) == Element.unit()
    assert normalize(got * delta_a, square) == Element.unit()


def test_images_of_the_inverses(H):
    # delta(d_inv), S(a_inv) and S(d_inv), each the inverse of its generator's
    # image: the pinned value, and a two-sided inverse
    loc, square = H.loc, H.square
    cases = [
        (H.coproduct, "d", square,
         T(("d_inv",), ("d_inv",))
         + T(("gamma", "d_inv", "d_inv"), ("beta", "d_inv", "d_inv"), -qp(-2))),
        (H.antipode, "a", loc, W(("a",)) + W(("beta", "gamma", "d_inv"), -qp(-1))),
        (H.antipode, "d", loc, W(("d",)) + W(("a_inv", "beta", "gamma"), qp(1))),
    ]
    for f, g, p, want in cases:
        got = f(W((g + "_inv",)))
        assert got == want, (f, g)
        image = f(W((g,)))
        assert normalize(image * got, p) == Element.unit(), (f, g)
        assert normalize(got * image, p) == Element.unit(), (f, g)


@pytest.mark.parametrize("what", ["coproduct", "antipode", "counit"])
def test_maps_undefined_on_dgamma_inv(H, what):
    # 0 = eps(Dgamma) is not invertible, so no map has an image of its inverse
    with pytest.raises(UnsupportedHopfImageError,
                       match=f"^{what} of Dgamma_inv is not defined$"):
        getattr(H, what)(W(("Dgamma_inv",)))


def test_inverse_series_must_close(H):
    # negative control: 1 - (a + d)*a_inv = -d*a_inv is not nilpotent
    loc = H.loc
    with pytest.raises(UnsupportedHopfImageError,
                       match="geometric series did not close"):
        _inverse(loc.el("a") + loc.el("d"), loc.el("a_inv"), loc)


def test_counit_table(H):
    # eps(T) = 1 and eps(That) = 0; a formal inverse of g with eps(g) = 1 has
    # counit 1, and Dgamma_inv, with eps(Dgamma) = 0, has none
    one = ("a", "d", "a_inv", "d_inv")
    assert len(H.loc.generators) == 11
    assert H.counit_images == {g.name: Element.unit() if g.name in one else Element.zero()
                               for g in H.loc.generators if g.name != "Dgamma_inv"}


def test_counit_values(cat, H):
    assert H.counit(W(("a",))) == ONE
    assert H.counit(W(("Da",))) == ZERO
    rel = parse_expression("a*d - d*a - (q - q^-1)*gamma*beta",
                           cat.presentation("Omega_loc"))
    assert H.counit(rel) == ZERO


def _counit_defects(H, rules):
    """(patterns of the rules whose counit of pattern - replacement is not 0,
    the errors of the rules with a letter that has no counit)."""
    bad, skipped = [], []
    for r in rules:
        try:
            if H.counit(W(r.pattern) - r.replacement):
                bad.append(r.pattern)
        except UnsupportedHopfImageError as exc:
            skipped.append(str(exc))
    return bad, skipped


def test_counit_vanishes_on_every_relation():
    # the counit is an algebra map: it sends each rule's two sides to one
    # scalar, symbolically and in the shadow at q = 2
    for cat in (get_catalog(), get_catalog(2)):
        rules = [r for name in ("A_glq11", "A_hat", "Omega", "Omega_loc")
                 for r in cat.presentation(name).rules]
        bad, skipped = _counit_defects(HopfData(cat), rules)
        assert bad == []
        assert (len(rules) - len(skipped), len(skipped)) == (99, 11)
        # 0 is not invertible, so Dgamma_inv has no counit
        assert set(skipped) == {"counit of Dgamma_inv is not defined"}


def test_counit_flags_a_false_relation(H):
    wrong = RewriteRule(("d", "a"), W(("a", "d"), lint(2)))
    assert _counit_defects(H, [wrong]) == ([("d", "a")], [])


def test_antipode_of_a(cat, H):
    loc = cat.presentation("Omega_loc")
    assert H.antipode(W(("a",))) == normalize(loc.defined["iA"], loc)


def test_antipode_law_on_a(cat, H):
    loc = cat.presentation("Omega_loc")
    t = H.coproduct(W(("a",)))
    acc = Element.zero()
    for w, c in t.terms.items():
        w1, w2 = tensor_legs(w, 2)
        acc = acc + H.antipode(W(w1)) * W(w2, c)
    assert normalize(acc, loc) == Element.unit()


def test_antipode_of_unit(H):
    assert H.antipode(Element.unit()) == Element.unit()


def test_antipode_of_inverse_is_inverse_of_antipode(cat, H):
    loc = cat.presentation("Omega_loc")
    prod = H.antipode(W(("a", "a_inv")))
    # S is an anti-homomorphism, so S(a a^-1) = S(a^-1) S(a) = S(1) = 1
    assert prod == Element.unit()
    assert normalize(H.antipode_images["a_inv"]
                     * H.antipode_images["a"], loc) \
        != Element.zero()


def test_hopf_axioms_all_pass(cat):
    checks = [c.run() for c in verify_hopf_axioms(cat)]
    assert len(checks) == 8 * 3 + 32 + 1
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]


def test_koszul_associativity_random(cat, H):
    # the Koszul product of normal forms, normalized again, is associative
    square = H.square
    loc = cat.presentation("Omega_loc")
    rng = random.Random(5)
    names = [g.name for g in loc.generators]

    def rand_tensor():
        out = Element.zero()
        for _ in range(rng.randint(1, 3)):
            w1 = tuple(rng.choice(names) for _ in range(rng.randint(0, 2)))
            w2 = tuple(rng.choice(names) for _ in range(rng.randint(0, 2)))
            out = out + T(w1, w2, lint(rng.randint(-3, 3) or 1))
        return normalize(out, square)

    def mul(x, y):
        return normalize(x * y, square)

    for _ in range(40):
        x, y, z = rand_tensor(), rand_tensor(), rand_tensor()
        assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_counit_of_antipode_random(cat, H):
    loc = cat.presentation("Omega_loc")
    rng = random.Random(13)
    names = ["a", "beta", "gamma", "d"]
    for _ in range(30):
        w = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
        e = W(w, lint(rng.randint(1, 5)))
        assert H.counit(H.antipode(e)) == H.counit(e)


def test_counit_multiplicative_random(H):
    rng = random.Random(31)
    names = ["a", "beta", "gamma", "d", "Da", "Dbeta"]
    for _ in range(30):
        w1 = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
        e, f = W(w1), W(w2)
        assert H.counit(e * f) == H.counit(e) * H.counit(f)


def test_central_element(cat):
    checks = [c.run() for c in verify_central_element(cat)]
    assert len(checks) == 9
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]


def test_central_element_examples(cat):
    loc = cat.presentation("Omega_loc")
    Dhat = loc.defined["Dhat"]
    for g in ("Dgamma", "a"):
        res = normalize(Dhat * loc.el(g) - loc.el(g) * Dhat, loc)
        assert res.is_zero(), g
    # the unit is central, trivially
    res = normalize(Element.unit() * loc.el("a") - loc.el("a") * Element.unit(), loc)
    assert res.is_zero()


def _failing(suite):
    return [(c.id, c.residual) for c in run_suite(suite).checks if not c.passed]


def test_antipode_law_flags_a_negated_image(monkeypatch):
    # negative control: S(Da) negated breaks the antipode law wherever
    # delta(g) has a Da leg
    real = HopfData._build_antipode

    def negated(self):
        images = real(self)
        images["Da"] = -images["Da"]
        return images

    monkeypatch.setattr(HopfData, "_build_antipode", negated)
    assert _failing("hopf") == [
        ("hopf.antipode_law_Da", "antipode law fails on ['m(S x id)', 'm(id x S)']"),
        ("hopf.antipode_law_Dbeta", "antipode law fails on ['m(S x id)']"),
        ("hopf.antipode_law_Dgamma", "antipode law fails on ['m(id x S)']"),
    ]


def test_counit_laws_flag_a_wrong_counit(monkeypatch):
    # negative control: counit(a) = 0 breaks the counit law on every g whose
    # coproduct has an a leg, and the antipode law on a
    real = HopfData._build_counit

    def a_to_zero(self):
        return {**real(self), "a": Element.zero()}

    monkeypatch.setattr(HopfData, "_build_counit", a_to_zero)
    assert _failing("hopf") == [
        ("hopf.antipode_law_a", "antipode law fails on ['m(S x id)', 'm(id x S)']"),
        ("hopf.counit_law_Da", "counit law fails on ['left', 'right']"),
        ("hopf.counit_law_Dbeta", "counit law fails on ['left']"),
        ("hopf.counit_law_Dgamma", "counit law fails on ['right']"),
        ("hopf.counit_law_a", "counit law fails on ['left', 'right']"),
        ("hopf.counit_law_beta", "counit law fails on ['left']"),
        ("hopf.counit_law_gamma", "counit law fails on ['right']"),
    ]
