"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is exact equality over the coefficient ring; the only
numeric thresholds are the stated wall-clock bounds.
"""

import time

from qdc.calculus import (
    ansatz_residuals,
    localized_rule_checks,
    paper_branch,
    solve_ansatz,
    verify_family,
    verify_structure_equations,
)
from qdc.cli import run_suite
from qdc.hopf import verify_central_element, verify_hopf_axioms
from qdc.kernel import check_local_confluence
from qdc.liealg import (
    classical_limit_checks,
    verify_cross_relations_consistency,
    verify_superalgebra,
)
from qdc.rmatrix import check_hecke_braid, verify_plane_covariance, verify_rtt_family


def _report(n, name, ok):
    print(f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name})"


def _all_pass(checks):
    bad = [r for r in (c.run() for c in checks) if not r.passed]
    if bad:
        for c in bad[:6]:
            print(f"  failing: {c.id}: {c.residual}")
    return not bad


def test_criterion_1_relation_engine(cat):
    t0 = time.perf_counter()
    ok = True
    for name, degree in (("A_glq11", 4), ("A_hat", 4), ("Omega", 5)):
        rep = check_local_confluence(cat.presentation(name), degree)
        ok = ok and rep.ok and rep.ambiguous > 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    print(f"  confluence wall time {elapsed:.2f}s (< 10s)")
    _report(1, "relation engine confluence", ok)


def test_criterion_2_ansatz(cat):
    from qdc.kernel import format_element

    rep = solve_ansatz()
    p = rep.presentation
    linear_texts = {format_element(c, p) for c in rep.linear}
    quadratic_texts = {format_element(c, p) for c in rep.quadratic}
    ok = linear_texts == {"q^-1 + q^-1*F12 + F21", "-1 + q^-1*F11 + F22", "-1 + B"}
    ok = ok and len(rep.linear) == 3
    ok = ok and quadratic_texts == {"-q*A*F22 + F11*F22", "F12*F22"}
    ok = ok and len(rep.quadratic) == 2
    from qdc.calculus import ansatz_checks

    ok = ok and _all_pass(ansatz_checks(cat))
    ok = ok and all(r.is_zero() for r in ansatz_residuals(paper_branch()))
    from qdc.calculus import Ansatz
    from qdc.ring import ONE, ZERO

    control = Ansatz(A=ONE, B=ONE, F11=ONE, F12=ZERO, F21=ZERO, F22=ZERO)
    ok = ok and any(not r.is_zero() for r in ansatz_residuals(control))
    _report(2, "consistency ansatz", ok)


def test_criterion_3_differential_consistency(cat):
    from qdc.calculus import d_on_relations_checks, d_squared_checks

    d2 = d_squared_checks(cat)
    drel = [c for c in d_on_relations_checks(cat) if ".A_glq11." in c.id]
    ok = len(d2) == 108 and _all_pass(d2)
    ok = ok and len(drel) == 8 and _all_pass(drel)
    _report(3, "differential consistency", ok)


def test_criterion_4_rederivation(cat):
    ok = True
    for family, count in (("T_inverse", 16), ("inverse_differential", 16),
                          ("T_forms", 16), ("forms", 8)):
        checks = verify_family(family, cat)
        ok = ok and len(checks) == count and _all_pass(checks)
    # the localization itself is validated, so nothing beyond the three
    # relation blocks enters as an axiom
    ok = ok and _all_pass(localized_rule_checks(cat))
    _report(4, "inverse/forms re-derivation", ok)


def test_criterion_5_structure_equations(cat):
    checks = verify_structure_equations(cat)
    ok = _all_pass(checks)
    ids = {c.id for c in checks}
    ok = ok and {"cartan_maurer.du", "cartan_maurer.dw2"} <= ids
    _report(5, "structure equations", ok)


def test_criterion_6_superalgebra(cat):
    ok = _all_pass(verify_superalgebra(cat))
    ok = ok and check_local_confluence(cat.presentation("LieAlg"), 4).ok
    ok = ok and _all_pass(verify_family("xy_basis", cat))
    ok = ok and _all_pass(verify_cross_relations_consistency(cat))
    ok = ok and _all_pass(classical_limit_checks(cat))
    _report(6, "quantum superalgebra", ok)


def test_criterion_7_hopf(cat):
    checks = verify_hopf_axioms(cat)
    ok = _all_pass(checks)
    coassoc = [c for c in checks if c.id.startswith("hopf.coassociativity")]
    preserved = [c for c in checks if c.id.startswith("hopf.coproduct_preserves")]
    ok = ok and len(coassoc) == 8 and len(preserved) == 32
    ok = ok and any(c.id == "hopf.matrix_coproduct_expansion" for c in checks)
    _report(7, "graded Hopf structure", ok)


def test_criterion_8_central_element(cat):
    ok = _all_pass(verify_central_element(cat))
    dgamma_rules = [c for c in localized_rule_checks(cat) if "Dgamma_inv" in c.id]
    ok = ok and len(dgamma_rules) == 11 and _all_pass(dgamma_rules)
    _report(8, "central element", ok)


def test_criterion_9_rmatrix(cat):
    t0 = time.perf_counter()
    ok = True
    for eq in ("53", "54", "55", "56", "57"):
        ok = ok and _all_pass(verify_rtt_family(eq, cat))
    ok = ok and _all_pass(verify_plane_covariance(cat))
    hb = check_hecke_braid(cat)
    ok = ok and _all_pass(hb) and any(c.id == "braid.graded_tensor_cube" for c in hb)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 20.0
    print(f"  r-matrix wall time {elapsed:.2f}s (< 20s)")
    _report(9, "r-matrix equivalences", ok)


def test_criterion_10_cli(cat):
    # parser round-trip property
    import random

    from qdc.parser import parse_ast, print_ast
    from tests.test_parser import _random_ast

    rng = random.Random(424242)
    ok = True
    for _ in range(200):
        ast = _random_ast(rng)
        if parse_ast(print_ast(ast)) != ast:
            ok = False
            break

    from qdc.cli import main

    ok = ok and main(["verify", "--suite", "all"]) == 0

    symbolic = run_suite("all")
    numeric = run_suite("all", q0=2)
    sym = {c.id: c.status for c in symbolic.checks}
    num = {c.id: c.status for c in numeric.checks}
    ok = ok and sym == num and symbolic.ok
    _report(10, "command line and numeric shadow", ok)
