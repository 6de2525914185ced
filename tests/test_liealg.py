import random

from qdc.calculus import verify_family
from qdc.catalog import get_catalog
from qdc.kernel import (
    Element,
    branches,
    check_local_confluence,
    graded_commutator,
    normalize,
)
from qdc.liealg import (
    SUPER_GENS,
    classical_limit_checks,
    verify_cross_relations_consistency,
    verify_superalgebra,
)
from qdc.parser import parse_expression
from qdc.ring import LaurentScalar

# the ordered patterns of the superalgebra's bracket rules (43)
BRACKET_PATTERNS = (
    ("T2", "T1"),
    ("nabla_p", "T1"), ("nabla_p", "T2"),
    ("nabla_m", "T1"), ("nabla_m", "T2"),
    ("nabla_p", "nabla_p"), ("nabla_m", "nabla_m"),
    ("nabla_m", "nabla_p"),
)


def test_nilpotent_conjugation(cat):
    la = cat.presentation("LieAlg")
    e = parse_expression("nabla_p*nabla_p*a - q^2*a*nabla_p*nabla_p", la)
    assert normalize(e, la).is_zero()


def test_commutator_action_identity(cat):
    la = cat.presentation("LieAlg")
    e = parse_expression(
        "(T1*T2 - T2*T1)*a - (q^-3 - q^-1)*gamma*"
        "(T2*nabla_m - q^2*nabla_m*T2 + q^2*nabla_m)", la)
    assert normalize(e, la).is_zero()


def test_superalgebra_suite(cat):
    checks = [c.run() for c in verify_superalgebra(cat)]
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]
    # 8 bracket relations + 6 displayed consistency identities + confluence
    assert len(checks) == 15


def test_overlap_T2_np_a(cat):
    la = cat.presentation("LieAlg")
    via_bracket, via_cross = branches(("nabla_p", "T2", "a"), la)
    assert via_bracket == via_cross


def test_xy_basis(cat):
    checks = [c.run() for c in verify_family("xy_basis", cat)]
    assert len(checks) == 8
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]


def test_bracket_rules_stay_in_the_superalgebra(cat):
    # why xy_basis reduces in the full LieAlg: its words lie in SUPER_GENS,
    # where only the bracket rules fire, and those never leave SUPER_GENS
    la = cat.presentation("LieAlg")
    inside = set(SUPER_GENS)
    brackets = [r for r in la.rules if set(r.pattern) <= inside]
    assert {r.pattern for r in brackets} == set(BRACKET_PATTERNS)
    for r in brackets:
        for w in r.replacement.terms:
            assert set(w) <= inside, (r.pattern, w)
    p, idents = cat.family("xy_basis")
    assert p is la
    for ident in idents:
        for w in (*ident.lhs.terms, *ident.rhs.terms):
            assert set(w) <= inside, (ident.name, w)


def test_xy_examples(cat):
    la = cat.presentation("LieAlg")

    def ev(text):
        return parse_expression(text, la)

    assert normalize(ev("X*nabla_p - nabla_p*X"), la).is_zero()
    e = ev("Y*nabla_p - nabla_p*Y + 2*q^2*nabla_p - (q^2 - 1)*(X - Y)*nabla_p")
    assert normalize(e, la).is_zero()
    e = ev("nabla_p*nabla_m + q^2*nabla_m*nabla_p - q^2*X"
           " - 1/2*(1 - q^2)*(X*X - X*Y)")
    assert normalize(e, la).is_zero()


def test_xy_quadratic_without_half_fails(cat):
    # the same relation with the coefficient as printed (no 1/2) leaves the
    # residual (q^2 - 1)(T1*T2 + T2*T2): the change of basis halves the
    # quadratic, so the printed coefficient contradicts the bracket algebra
    la = cat.presentation("LieAlg")
    e = parse_expression(
        "nabla_p*nabla_m + q^2*nabla_m*nabla_p - q^2*X - (1 - q^2)*(X*X - X*Y)",
        la)
    res = normalize(e, la)
    want = parse_expression("(q^2 - 1)*T1*T2 + (q^2 - 1)*T2*T2", la)
    assert res == want


def test_cross_relations_consistency(cat):
    checks = [c.run() for c in verify_cross_relations_consistency(cat)]
    assert len(checks) == 32
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]


def test_combined_system_confluent(cat):
    la = cat.presentation("LieAlg")
    rep = check_local_confluence(la, 4)
    assert rep.ok


def test_printed_cross_rule_signs_fail_confluence(cat):
    # flipping the corrected sign back on the T1*beta rule breaks the
    # overlap at T1*beta*a: the negative control for the transcription fix
    from qdc.kernel import Presentation, RewriteRule

    la = cat.presentation("LieAlg")
    rules = []
    for r in la.rules:
        if r.pattern == ("T1", "beta"):
            repl = parse_expression(
                "q^2*beta*T1 - (q - q^-1)^2*beta*T2 - (q - q^-1)*d*nabla_m + beta",
                la)
            r = RewriteRule(r.pattern, repl, eq=r.eq)
        rules.append(r)
    flipped = Presentation("LieAlg_printed_sign", la.generators, rules)
    rep = check_local_confluence(flipped, 3)
    assert any(f[0] == ("T1", "beta", "a") for f in rep.failures)
    # the critical-pair mode finds the same failures, first word first
    pairs = check_local_confluence(flipped)
    assert [f[0] for f in pairs.failures] == [f[0] for f in rep.failures]


def test_classical_limit(cat):
    checks = [c.run() for c in classical_limit_checks(cat)]
    assert len(checks) == 8
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]


def test_classical_limit_commutes_with_normalize(cat):
    # q = 1 applied to a symbolic normal form gives the normal form in a
    # catalog built at q = 1, which classical_limit_checks relies on
    la = cat.presentation("LieAlg")
    la1 = get_catalog(q0=1).presentation("LieAlg")

    def at_one(e):
        return Element({w: LaurentScalar.from_fraction(c.eval_at(1))
                        for w, c in e.terms.items()})

    for x, y in BRACKET_PATTERNS:
        got = graded_commutator(la.el(x), la.el(y), la)
        assert at_one(got) == graded_commutator(la1.el(x), la1.el(y), la1), (x, y)
    rng = random.Random(20261018)
    names = [g.name for g in la.generators]
    for _ in range(60):
        word = tuple(rng.choice(names) for _ in range(rng.randint(1, 5)))
        coeff = LaurentScalar({rng.randint(-2, 2): rng.randint(1, 5)})
        e = Element.word(word, coeff)
        want = normalize(at_one(e), la1)
        assert at_one(normalize(e, la)) == want, word


def test_deformation_terms_vanish_at_q1():
    la1 = get_catalog(q0=1).presentation("LieAlg")
    # the bracket corrections proportional to q^2 - 1 disappear
    r = la1.rule_by_pair[("nabla_p", "T1")]
    words = set(r.replacement.terms)
    assert ("T2", "nabla_p") not in words
