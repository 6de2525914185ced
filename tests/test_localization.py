"""confluence.Omega_loc: the premises of the basis argument in
cli._confluence_checks, their negative controls, and the degree-4 walk
that cross-checks them."""

from fractions import Fraction

import pytest

from qdc.catalog import get_catalog
from qdc.cli import localization_residual, localized_confluence_check, run_suite
from qdc.kernel import (
    Element,
    Generator,
    Presentation,
    RewriteRule,
    check_local_confluence,
)
from qdc.parser import parse_expression
from qdc.ring import qp


def _verdict(p):
    result = localized_confluence_check(p).run()
    return result.status, result.residual


@pytest.mark.parametrize("q0", [None, 2, Fraction(3, 2), Fraction(-3, 2)],
                         ids=["symbolic", "q2", "q3_2", "q_neg3_2"])
def test_omega_loc_meets_every_premise(q0):
    assert _verdict(get_catalog(q0).presentation("Omega_loc")) == ("pass", None)


@pytest.mark.parametrize("q0", [None, 2], ids=["symbolic", "q2"])
def test_walk_to_degree_4_agrees(q0):
    # the exhaustive walk the premises replaced: every ambiguous word of
    # length 3 and 4 reaches one normal form
    rep = check_local_confluence(get_catalog(q0).presentation("Omega_loc"), 4)
    assert (rep.words_checked, rep.ambiguous, rep.failures) == (15972, 7924, [])


def _loc_with(cat, change):
    loc = cat.presentation("Omega_loc")
    return Presentation(f"Omega_loc_{change.__name__}", loc.generators,
                        [r for r in map(change, loc.rules) if r is not None],
                        validate=False)


def test_negated_localized_correction_fails_the_clearing_premise(cat):
    # Dgamma_inv*beta with its correction term negated: read from the
    # presentation under check, not from the catalog's Omega_loc
    def negated(r):
        if r.pattern != ("Dgamma_inv", "beta"):
            return r
        swap = r.pattern[::-1]
        return r._replace(replacement=Element(
            {w: c if w == swap else -c for w, c in r.replacement.terms.items()}))

    status, why = _verdict(_loc_with(cat, negated))
    assert status == "fail" and why.startswith("(P4) localized.Dgamma_inv_beta: ")


def test_scaled_rule_fails(cat):
    # the walk's control: Omega_loc's first rule, beta*a -> q^-1*a*beta,
    # scaled by q
    first = cat.presentation("Omega_loc").rules[0]

    def scaled(r):
        return r._replace(replacement=r.replacement.scaled(qp(1))) if r is first else r

    status, why = _verdict(_loc_with(cat, scaled))
    assert status == "fail" and why.startswith("(P1) ")


def test_dropped_swap_rule_fails_the_pattern_premise(cat):
    def dropped(r):
        return None if r.pattern == ("Dd", "Dgamma") else r

    status, why = _verdict(_loc_with(cat, dropped))
    assert status == "fail" and why.startswith("(P3) ") and "['Dd*Dgamma']" in why


@pytest.mark.parametrize("word", ["Dbeta*gamma", "a*beta"])
def test_heavy_correction_fails_the_weight_premise(cat, word):
    # both words come before Dgamma*beta in deglex, so the rule is
    # oriented, but the first weighs more than the word it rewrites and the
    # second as much
    loc = cat.presentation("Omega_loc")
    extra = parse_expression(f"(q - q^-1)*{word}", loc)

    def heavy(r):
        if r.pattern != ("Dgamma", "beta"):
            return r
        return r._replace(replacement=r.replacement + extra)

    status, why = _verdict(_loc_with(cat, heavy))
    assert status == "fail" and why.startswith("(P2) Dgamma*beta ")


def test_weights_and_inverses_are_checked(cat):
    loc = cat.presentation("Omega_loc")
    weights = {"a": 0, "beta": -1, "gamma": -1, "d": 0,
               "Da": -3, "Dbeta": 1, "Dgamma": 0, "Dd": 3}
    assert localization_residual(loc, weights) is None
    # an inverted generator must weigh 0, an even one at least 0
    for name, w in (("a", 1), ("Dbeta", -1)):
        why = localization_residual(loc, {**weights, name: w})
        assert why.startswith(f"(P2) {name} weighs {w}")
    # a_inv moved to the end of the order no longer follows a
    gens = [g for g in loc.generators if g.name != "a_inv"]
    gens.append(next(g for g in loc.generators if g.name == "a_inv"))
    moved = Presentation("moved", gens, loc.rules, validate=False)
    assert localization_residual(moved, weights).startswith("(P3) ")


def _ordered(gens, inverses=()):
    """A presentation whose patterns are exactly the ones (P3) asks for,
    each rule a plain swap or, for an odd square or a cancellation, 0 or 1."""
    names = [g.name for g in gens]
    rules = [RewriteRule((x, y), Element.word((y, x)))
             for i, x in enumerate(names) for y in names[:i]]
    rules += [RewriteRule((g.name, g.name), Element.zero()) for g in gens if g.parity]
    rules += [RewriteRule((g, g_inv), Element.unit()) for g_inv, g in inverses]
    return Presentation("ordered", gens, rules, validate=False)


def test_an_inverse_must_be_even_and_follow_its_generator():
    x, y = Generator("x", 0), Generator("y", 0)
    weights = {"x": 0, "y": 0, "t": 0}
    assert localization_residual(
        _ordered([x, Generator("x_inv", 0, "x"), y], [("x_inv", "x")]), weights) is None
    apart = _ordered([x, y, Generator("x_inv", 0, "x")], [("x_inv", "x")])
    assert localization_residual(apart, weights) == \
        "(P3) x_inv is not an even inverse right after its even generator x"
    t = Generator("t", 1)
    odd = _ordered([t, Generator("t_inv", 1, "t")], [("t_inv", "t")])
    assert localization_residual(odd, weights) == \
        "(P3) t_inv is not an even inverse right after its even generator t"


def test_clearing_work_is_shared_with_the_localized_rows(monkeypatch):
    # the confluence suite alone runs each clearing check once, as a
    # premise; in "all" the inverse suite has run them already
    from qdc import calculus

    calls = []
    real = calculus.verify_localized_rule

    def counted(rule, loc):
        calls.append(rule)
        return real(rule, loc)

    monkeypatch.setattr(calculus, "verify_localized_rule", counted)
    rep = run_suite("confluence")
    assert rep.ok and len(calls) == 30
    assert not any(c.id.startswith("localized.") for c in rep.checks)


def test_omega_loc_reads_the_critical_pairs_of_omega(monkeypatch):
    # Omega_loc's inverse-free part is Omega, so (P1) is the verdict of the
    # row confluence.Omega: the confluence suite decides each catalog
    # presentation's critical pairs once, and Omega_loc's none
    from qdc import cli

    decided = []
    real = cli.confluence_residual

    def counted(p, *args):
        decided.append(p.name)
        return real(p, *args)

    monkeypatch.setattr(cli, "confluence_residual", counted)
    rep = run_suite("confluence")
    assert rep.ok
    assert sorted(decided) == sorted(n for n in get_catalog().names()
                                     if n not in ("LieAlg", "Omega_loc"))


def _omega_verdict(cat, residual):
    """A stand-in for the row confluence.Omega whose verdict is `residual`."""
    from qdc.report import Check

    return [(cat.presentation("Omega"),
             Check("confluence.Omega", "stand-in", "diamond", lambda: residual))]


def test_p1_is_read_only_from_an_equal_presentation(cat):
    # Omega_loc's inverse-free part equals Omega, so its (P1) is the verdict
    # of the row it is given, a failing one here; the scaled control changes
    # a rule of that part, so it decides (P1) itself and fails, although
    # the row it is given passes
    loc = cat.presentation("Omega_loc")
    result = localized_confluence_check(loc, _omega_verdict(cat, "read")).run()
    assert (result.status, result.residual) == \
        ("fail", "(P1) Omega_loc without inverses: read")
    first = loc.rules[0]

    def scaled(r):
        return r._replace(replacement=r.replacement.scaled(qp(1))) if r is first else r

    result = localized_confluence_check(_loc_with(cat, scaled),
                                        _omega_verdict(cat, None)).run()
    assert result.status == "fail"
    assert result.residual.startswith("(P1) Omega_loc_scaled without inverses: ")
    assert "failing overlaps" in result.residual
