import random
from dataclasses import fields, replace

import pytest

from qdc.calculus import (
    Ansatz,
    _consistency_residuals,
    ansatz_checks,
    ansatz_residuals,
    alternative_branch,
    d_on_relations_checks,
    d_squared_checks,
    exterior_d,
    exterior_derivation,
    localized_rule_checks,
    paper_branch,
    solve_ansatz,
    verify_family,
    verify_localized_rule,
    verify_structure_equations,
)
from qdc.errors import UnknownFamilyError
from qdc.kernel import Element, RewriteRule, format_element, normalize, substitute
from qdc.parser import parse_expression
from qdc.ring import ONE, ZERO, LaurentScalar, qp

W = Element.word


def test_d_squared_on_generator(cat):
    assert exterior_d(exterior_d(W(("a",)), cat), cat).is_zero()


def test_d_of_unit_product(cat):
    loc = cat.presentation("Omega_loc")
    assert normalize(exterior_d(W(("a", "a_inv")), cat), loc).is_zero()


def test_d_of_the_inverses(cat):
    # d(g_inv) = -g_inv*(dg)*g_inv, and d(Dgamma_inv) = 0 since d(Dgamma) = 0
    d, loc = exterior_derivation(cat)
    assert d["a_inv"] == W(("a_inv", "Da", "a_inv"), -ONE)
    assert d["d_inv"] == W(("d_inv", "Dd", "d_inv"), -ONE)
    assert normalize(d["a_inv"], loc) == W(("a_inv", "a_inv", "Da"), -qp(2))
    assert normalize(d["d_inv"], loc) == W(("d_inv", "d_inv", "Dd"), -qp(-2))
    assert d["Dgamma_inv"].is_zero()


def test_d_kills_coordinate_relation(cat):
    loc = cat.presentation("Omega_loc")
    rel = parse_expression("a*beta - q*beta*a", loc)
    assert normalize(exterior_d(rel, cat), loc).is_zero()


def test_d_squared_suite(cat):
    checks = [c.run() for c in d_squared_checks(cat)]
    assert len(checks) == 108
    assert all(c.passed for c in checks)


def test_d_on_relations_suite(cat):
    checks = [c.run() for c in d_on_relations_checks(cat)]
    assert len(checks) == 8 + 16
    assert all(c.passed for c in checks)


# the five constraints, each scaled so its last word in the term order has
# coefficient 1: F12 + q*F21 + 1, F11 + q*F22 - q, B - 1, F12*F22 and
# F11*F22 - q*A*F22 as stated
LINEAR_TEXTS = ["q^-1 + q^-1*F12 + F21", "-1 + q^-1*F11 + F22", "-1 + B"]
QUADRATIC_TEXTS = ["-q*A*F22 + F11*F22", "F12*F22"]


def test_solve_ansatz_constraints():
    rep = solve_ansatz()
    p = rep.presentation
    assert sorted(format_element(c, p) for c in rep.linear) == sorted(LINEAR_TEXTS)
    assert sorted(format_element(c, p) for c in rep.quadratic) == sorted(QUADRATIC_TEXTS)
    assert rep.selected == "F22 = 0 with A = q^2"


def test_paper_branch_residuals_vanish():
    assert all(r.is_zero() for r in ansatz_residuals(paper_branch()))


def test_alternative_branch_residuals_vanish():
    assert all(r.is_zero() for r in ansatz_residuals(alternative_branch(qp(3))))


def test_perturbed_control_fails():
    bad = Ansatz(A=ONE, B=ONE, F11=ONE, F12=ZERO, F21=ZERO, F22=ZERO)
    assert any(not r.is_zero() for r in ansatz_residuals(bad))


def _random_candidate(rng):
    def scalar():
        exponents = rng.sample(range(-2, 3), rng.randint(0, 2))
        return LaurentScalar({k: rng.randint(-2, 2) for k in exponents})
    return Ansatz(*(scalar() for _ in fields(Ansatz)))


# the four residuals of each of 20 seeded random candidates, as reduced in a
# presentation built for each candidate at its coefficients
RANDOM_CANDIDATE_RESIDUALS = [
    ['Da*beta + (2*q^2 - q)*Dbeta*a',
     '(1 - q^-1 - q^-2)*Dbeta*beta',
     '-4*Dbeta*a*a',
     '0'],
    ['(-2*q^2 + 1 + 2*q^-2)*Da*beta - q*Dbeta*a', 'Dbeta*beta', '0', '0'],
    ['(2*q - 1)*Da*beta - q*Dbeta*a', 'Dbeta*beta', '0', '0'],
    ['(-q^2 + 1)*Da*beta + (-q + 2*q^-1)*Dbeta*a',
     '(1 + 2*q^-1 - 2*q^-2)*Dbeta*beta',
     '(q^-3 + 2*q^-4)*Da*a*beta',
     '(-q^-1 - 2*q^-2)*Dbeta*a*beta'],
    ['Da*beta - q*Dbeta*a', '(1 + q^-1 - q^-2)*Dbeta*beta', '0', '0'],
    ['(-2*q + 1 - 2*q^-1)*Da*beta + (-q - 2*q^-2)*Dbeta*a',
     '(1 - q^-1 - 2*q^-2)*Dbeta*beta',
     '0',
     '0'],
    ['(-1 - q^-1)*Da*beta + (-q - q^-1)*Dbeta*a',
     '(q^2 + 1 + 2*q^-2)*Dbeta*beta',
     '0',
     '0'],
    ['(-1 + 2*q^-1)*Da*beta + (-2*q^2 - q)*Dbeta*a',
     'Dbeta*beta',
     '4*q^-2*Da*a*beta',
     '-4*Dbeta*a*beta'],
    ['Da*beta + (-q - 2)*Dbeta*a', 'Dbeta*beta', '0', '0'],
    ['(-2*q^2 + 3)*Da*beta - 3*q*Dbeta*a', 'Dbeta*beta', '0', '0'],
    ['Da*beta - q*Dbeta*a', '-Dbeta*beta', '0', '0'],
    ['(-1 + 2*q^-1)*Da*beta + (-q + 2*q^-1)*Dbeta*a',
     '2*q^2*Dbeta*beta',
     '-2*q^-2*Da*a*beta + (2*q + 1 - 2*q^-1 + 2*q^-2)*Dbeta*a*a',
     '2*Dbeta*a*beta'],
    ['-Da*beta + (-3*q + 3*q^-1)*Dbeta*a',
     'Dbeta*beta',
     '(4*q^-2 - 2*q^-4)*Dbeta*a*a',
     '0'],
    ['Da*beta + (q^3 - q^2 - q + 2)*Dbeta*a',
     '(2 + 2*q^-1)*Dbeta*beta',
     '(q^3 - 2*q)*Dbeta*a*a',
     '0'],
    ['Da*beta + (-2*q^2 - q + 2)*Dbeta*a', '(-2*q + 1)*Dbeta*beta', '0', '0'],
    ['(q^3 - q + q^-1)*Da*beta + (-q - 2*q^-2)*Dbeta*a', 'Dbeta*beta', '0', '0'],
    ['(-q + 1)*Da*beta + (-q - q^-1)*Dbeta*a', '(1 - 2*q^-2)*Dbeta*beta', '0', '0'],
    ['(-q^3 + 1)*Da*beta + (q^3 + q^-2)*Dbeta*a',
     'Dbeta*beta',
     'q^2*Da*a*beta + (-q^2 + 1 - q^-1)*Dbeta*a*a',
     '-q^4*Dbeta*a*beta'],
    ['(1 - q^-1)*Da*beta + (q^2 - q)*Dbeta*a', 'Dbeta*beta', '0', '0'],
    ['(q^2 + 3 - q^-1)*Da*beta - q*Dbeta*a', '(2*q^2 + 1)*Dbeta*beta', '0', '0'],
]


def test_ansatz_residuals_on_random_candidates():
    rng = random.Random(20)
    p = solve_ansatz().presentation
    for want in RANDOM_CANDIDATE_RESIDUALS:
        z = _random_candidate(rng)
        assert [format_element(r, p) for r in ansatz_residuals(z)] == want, z


def test_symbolic_branch_with_free_parameters():
    # impose the linear constraints and F22 = 0, leaving A and F21 symbolic;
    # the residuals must vanish identically
    p = solve_ansatz().presentation

    def parse(text):
        return parse_expression(text, p)

    images = {g.name: W((g.name,)) for g in p.generators}
    images.update(A=parse("A"), B=parse("1"), F11=parse("q"),
                  F12=parse("-1 - q*F21"), F21=parse("F21"), F22=parse("0"))

    def residuals():
        return [normalize(substitute(images, r), p)
                for r in _consistency_residuals()[1]]

    assert len(residuals()) == 4 and all(r.is_zero() for r in residuals())
    # F12 off the constraint leaves a residual
    images["F12"] = parse("-q*F21")
    assert not all(r.is_zero() for r in residuals())


def test_ansatz_checks_all_pass(cat):
    checks = [c.run() for c in ansatz_checks(cat)]
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]


def test_family_counts(cat):
    for family, count in (("T_inverse", 16), ("inverse_differential", 16),
                          ("T_forms", 16), ("forms", 8), ("forms_to_dT", 4)):
        checks = [c.run() for c in verify_family(family, cat)]
        assert len(checks) == count, family
        assert all(c.passed for c in checks), family


def test_family_examples(cat):
    loc = cat.presentation("Omega_loc")
    # inverse entry commutation with the unit tail
    e = parse_expression("a*iA - q^2*iA*a - 1 + q^2", loc)
    assert normalize(e, loc).is_zero()
    # coordinate with a one-form
    e = parse_expression("beta*u - q*u*beta", loc)
    assert normalize(e, loc).is_zero()
    # anticommutator of the two odd forms
    e = parse_expression("w1*w2 + w2*w1 - (1 - q^2)*v*u", loc)
    assert normalize(e, loc).is_zero()


def test_unknown_family(cat):
    with pytest.raises(UnknownFamilyError):
        verify_family("no_such_family", cat)


def test_structure_equations(cat):
    checks = [c.run() for c in verify_structure_equations(cat)]
    assert len(checks) == 12
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]


def test_structure_examples(cat):
    forms = cat.presentation("Forms")
    # dw1 + uv vanishes given the square of the odd form
    e = parse_expression("w1*w1 - u*v + u*v", forms)
    assert normalize(e, forms).is_zero()
    # du against its reduced form
    e = parse_expression("w1*u - u*w2 - q^2*(w1 - w2)*u", forms)
    assert normalize(e, forms).is_zero()
    # dw2 + uv via the w2 square and the u-v relation
    e = parse_expression("w2*w2 - v*u + u*v", forms)
    assert normalize(e, forms).is_zero()


def test_localized_rules_all_validate(cat):
    checks = [c.run() for c in localized_rule_checks(cat)]
    assert len(checks) == 30
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]


def test_localized_rule_examples(cat):
    loc = cat.presentation("Omega_loc")
    why = verify_localized_rule(loc.rule_by_pair[("beta", "a_inv")], cat)
    assert why is None, why
    why = verify_localized_rule(loc.rule_by_pair[("Dgamma_inv", "Da")], cat)
    assert why is None, why


def test_localized_rule_negative_control(cat):
    # beta*a_inv -> a_inv*beta without the q factor clears to a*beta = beta*a
    bad = RewriteRule(("beta", "a_inv"), W(("a_inv", "beta")), localized=True)
    why = verify_localized_rule(bad, cat)
    assert why is not None
    assert "differ" in why


def test_exterior_d_matches_differential_names(cat):
    # the identification of differentials with the one-form layer: d of the
    # coordinate matrix entries are the Da.. generators themselves
    for g, dg in (("a", "Da"), ("beta", "Dbeta"), ("gamma", "Dgamma"), ("d", "Dd")):
        assert exterior_d(W((g,)), cat) == W((dg,))


def test_branch_check_flags_a_wrong_coefficient(monkeypatch):
    # negative control: A = q in place of q^2 no longer gives the stated
    # a*Da relation, and only the branch check notices (A is free)
    from qdc import calculus
    from qdc.cli import run_suite

    real = calculus.paper_branch
    monkeypatch.setattr(calculus, "paper_branch", lambda: replace(real(), A=qp(1)))
    failing = [(c.id, c.residual) for c in run_suite("ansatz").checks if not c.passed]
    assert failing == [("ansatz.branch_reproduces_mixed_rules",
                        "branch rule a_Da differs from the stated relation")]
