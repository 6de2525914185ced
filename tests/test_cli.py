import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qdc import kernel
from qdc.cli import SUITES, main, run_suite
from qdc.errors import QdcError, UnknownSuiteError
from qdc.report import JSON_SCHEMA, Check, CheckResult, SuiteReport


def test_run_suite_relations_passes():
    rep = run_suite("relations")
    assert rep.ok
    assert rep.summary["fail"] == 0


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuiteError):
        run_suite("bogus")


def test_cli_verify_exit_zero(capsys):
    assert main(["verify", "--suite", "ansatz"]) == 0
    out = capsys.readouterr().out
    assert "suite ansatz:" in out


def test_cli_verify_bogus_suite_exit_two(capsys):
    assert main(["verify", "--suite", "bogus"]) == 2


def test_cli_bad_expression_exit_two(capsys):
    assert main(["normalize", "--presentation", "Omega", "a ** b"]) == 2


def test_cli_stray_character_is_named_where_it_stands(capsys):
    # the column and the character of the '$', not of the blank before it
    assert main(["normalize", "--presentation", "Omega", "d*a + $"]) == 2
    assert capsys.readouterr().err == "error: 1:7: unexpected character '$'\n"


def test_cli_unknown_presentation_exit_two(capsys):
    assert main(["normalize", "--presentation", "NoSuch", "a"]) == 2


def test_cli_exit_one_on_failing_check(monkeypatch, capsys):
    def failing_suite(cat):
        return [Check("forced.failure", "forced", "", lambda: "x"),
                Check("forced.raise", "raises", "", lambda: 1 / 0)]

    monkeypatch.setitem(SUITES, "forced", failing_suite)
    assert main(["verify", "--suite", "forced"]) == 1
    capsys.readouterr()
    assert main(["verify", "--suite", "forced", "--format", "json"]) == 1
    rows = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert (rows["forced.failure"]["status"], rows["forced.failure"]["residual"]) \
        == ("fail", "x")
    assert (rows["forced.raise"]["status"], rows["forced.raise"]["residual"]) \
        == ("error", "ZeroDivisionError: division by zero")


@pytest.mark.parametrize("exc", [QdcError("boom"), ValueError("boom")],
                         ids=["QdcError", "ValueError"])
def test_suite_that_fails_to_build_is_an_error_row(monkeypatch, capsys, cat, exc):
    # set-up runs while a suite is built, outside every Check; an exception
    # there gives one error row and the other suites still run
    from qdc import hopf

    hopf_ids = {c.id for c in SUITES["hopf"](cat)}
    all_ids = {c.id for build in SUITES.values() for c in build(cat)}

    def broken(self, cat):
        raise exc

    monkeypatch.setattr(hopf.HopfData, "__init__", broken)
    want = ("error", f"{type(exc).__name__}: boom")
    assert main(["verify", "--suite", "hopf", "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["id"], c["status"], c["residual"]) for c in rows] == [("setup.hopf", *want)]
    assert main(["verify", "--suite", "all", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    rows = {c["id"]: c for c in report["checks"]}
    assert (rows["setup.hopf"]["status"], rows["setup.hopf"]["residual"]) == want
    assert set(rows) == all_ids - hopf_ids | {"setup.hopf"}
    assert report["summary"]["error"] == 1 and report["summary"]["fail"] == 0
    assert main(["verify", "--suite", "hopf"]) == 1
    assert "[ERROR] setup.hopf: build the hopf suite" in capsys.readouterr().out


def test_cli_normalize_output(capsys):
    # trailing blanks, a newline among them, end the expression
    for expression in ("d*a", "d*a ", "d*a \n"):
        assert main(["normalize", "--presentation", "Omega", expression]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "a*d + (q - q^-1)*beta*gamma"


@pytest.mark.parametrize("expression", ["-q*a", "-a", "-1/2*d*a"])
def test_cli_expression_with_leading_minus(capsys, expression):
    # read as the expression, not as an option: the same as after `--`
    assert main(["normalize", "--presentation", "Omega", "--", expression]) == 0
    want = capsys.readouterr()
    assert main(["normalize", "--presentation", "Omega", expression]) == 0
    assert capsys.readouterr() == want
    assert main(["normalize", expression, "--presentation", "Omega"]) == 0
    assert capsys.readouterr() == want


def test_cli_confluence(capsys):
    assert main(["confluence", "--presentation", "A_glq11", "--max-degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "0 failing overlaps" in out


@pytest.mark.parametrize("degree", [1200, 100000])
def test_cli_confluence_degree_out_of_reach(capsys, degree):
    # the walk runs out of stack within milliseconds, and the error names the
    # degree and the recursion limit rather than blaming a generator moving left
    start = time.perf_counter()
    assert main(["confluence", "--presentation", "Omega",
                 "--max-degree", str(degree)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == (f"error: Omega: max_degree {degree}: the word walk is deeper "
                   f"than the Python recursion limit ({sys.getrecursionlimit()}) allows\n")


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "Omega_loc" in out and "suites:" in out
    # the whole listing, presentations, suites and families, byte for byte
    assert len(out.encode()) == 851
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b3b5133d46fc47f3ea97614eedb5d05eb0aab351b8548ae7c76f8870922fcd17")


def test_json_report_validates_against_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    assert main(["verify", "--suite", "structure", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, JSON_SCHEMA)


def test_text_and_json_verdicts_agree(capsys):
    main(["verify", "--suite", "central", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    rep = run_suite("central")
    text_verdicts = {c.id: c.status for c in rep.checks}
    json_verdicts = {c["id"]: c["status"] for c in payload["checks"]}
    assert text_verdicts == json_verdicts


def test_numeric_flag(capsys):
    for raw, q in (("3/2", "3/2"), ("-1", "-1"), ("2 ", "2")):
        assert main(["verify", "--suite", "forms", "--q", raw]) == 0
        out = capsys.readouterr().out
        assert f"numeric shadow at q = {q}" in out


def test_numeric_zero_rejected(capsys):
    assert main(["verify", "--suite", "forms", "--q", "0"]) == 2
    assert "q = 0 is outside the coefficient ring" in capsys.readouterr().err


def test_step_budget_env(monkeypatch):
    from qdc.catalog import get_catalog
    from qdc.errors import ReductionBudgetError
    from qdc.kernel import Element, normalize

    monkeypatch.setenv("QDC_STEP_BUDGET", "1")
    p = get_catalog().presentation("Omega")
    p._nf_cache.clear()
    with pytest.raises(ReductionBudgetError):
        normalize(Element.word(("Dd", "gamma", "beta", "a")), p)
    monkeypatch.delenv("QDC_STEP_BUDGET")
    p._nf_cache.clear()


def _run_python(*args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)


def test_closed_pipe_is_not_an_error(tmp_path):
    # the JSON report of every suite outgrows a 64 KiB pipe; the reader takes
    # one line and closes the pipe, as `| head -1` does, and every check passes
    src = str(Path(__file__).resolve().parents[1] / "src")
    with open(tmp_path / "err.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "qdc.cli", "verify", "--suite", "all", "--format", "json"],
            stdout=subprocess.PIPE, stderr=err, env={**os.environ, "PYTHONPATH": src})
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert (first, code) == (b"{\n", 0)
    assert (tmp_path / "err.txt").read_text() == ""


def test_import_keeps_recursion_limit():
    run = _run_python("-c", "import sys; before = sys.getrecursionlimit(); "
                            "import qdc; print(before, sys.getrecursionlimit())")
    before, after = run.stdout.split()
    assert run.returncode == 0 and before == after


def test_cli_import_needs_no_dataclasses_or_inspect():
    # what importing qdc.cli adds to an interpreter that has imported nothing
    # else: -S, so that no site-packages hook has imported them already
    run = _run_python("-S", "-c", "import sys; before = set(sys.modules); import qdc.cli; "
                                  "print(*sorted(set(sys.modules) - before))")
    added = set(run.stdout.split())
    assert run.returncode == 0 and "qdc.cli" in added
    assert not added & {"dataclasses", "inspect", "importlib.resources", "pathlib"}


def test_cli_q_300_nested_parentheses_is_the_literal():
    # the parser takes no stack frame per parenthesis, and --q is not evaluated
    deep = _run_python("-m", "qdc.cli", "verify", "--suite", "plane",
                       "--q", "(" * 300 + "2" + ")" * 300)
    plain = _run_python("-m", "qdc.cli", "verify", "--suite", "plane", "--q", "2")
    assert (deep.returncode, deep.stderr) == (0, "")
    assert deep.stdout == plain.stdout


def test_cli_normalizes_nesting_the_recursive_parser_refused():
    # 247 levels ran the recursive-descent parser out of stack; evaluation
    # takes two frames a level, so 400 fit under the default limit
    run = _run_python("-m", "qdc.cli", "normalize", "--presentation", "Omega",
                      "(" * 400 + "d*a" + ")" * 400)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "a*d + (q - q^-1)*beta*gamma\n"


@pytest.mark.parametrize("argv, what", [
    pytest.param(["normalize", "--presentation", "Omega", "(" * 1000 + "a" + ")" * 1000],
                 "Omega: the expression", id="1000_nested_parentheses"),
    # the a moves left through 1200 normal letters
    pytest.param(["normalize", "--presentation", "Omega", "d^1200*a"],
                 "Omega: the expression", id="d^1200*a"),
    pytest.param(["confluence", "--presentation", "Omega", "--max-degree", "1200"],
                 "Omega: max_degree 1200: the word walk", id="degree_1200"),
    pytest.param(["confluence", "--presentation", "Omega", "--max-degree", "100000"],
                 "Omega: max_degree 100000: the word walk", id="degree_100000"),
])
def test_cli_recursion_limit_exit_two(argv, what):
    # deeper than the default recursion limit, which qdc leaves as it is: a
    # usage error with one line, whichever layer ran out of stack
    run = _run_python("-m", "qdc.cli", *argv)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == (f"error: {what} is deeper than the Python recursion "
                          f"limit (1000) allows\n")


def test_cli_out_of_memory_exit_two():
    # a word of 10^14 letters does not fit under a 400 MB address-space cap,
    # set on this child alone: a usage error with one line, no traceback
    resource = pytest.importorskip("resource")
    cap = 400 * 2**20
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-m", "qdc.cli", "normalize", "--presentation", "Omega",
         "a^99999999999999"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (run.returncode, run.stdout) == (2, "")
    assert "Traceback" not in run.stderr
    assert run.stderr == ("error: Omega: the expression needs more memory than "
                          "this process may use\n")


def test_report_rows_are_values():
    # run_suite hands out the same row for a repeated id, and --q notes a
    # row by building a new one
    row = CheckResult("a", "d", "", "pass")
    with pytest.raises(AttributeError):
        row.description = "e"
    noted = CheckResult(row.id, row.description + " [numeric shadow at q = 2]",
                        *row[2:])
    assert noted != row and row.description == "d"
    twin = CheckResult("a", "d", "", "pass", None, 0.0)
    assert twin == row and twin is not row and hash(twin) == hash(row)
    assert row != SuiteReport("a") and SuiteReport("a").checks == ()


def test_report_sorting_stable():
    rep = SuiteReport("x", [
        CheckResult("b", "", "", "pass"),
        CheckResult("a", "", "", "pass"),
    ]).sorted()
    assert [c.id for c in rep.checks] == ["a", "b"]
    assert hash(rep) == hash(SuiteReport("x", rep.checks))


@pytest.mark.parametrize("expression", ["0^-1", "a*0/3^-2 + d"])
def test_cli_inverse_of_zero_exit_two(capsys, expression):
    assert main(["normalize", "--presentation", "Omega", expression]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "zero has no inverse" in err


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "1.5"])
def test_cli_bad_step_budget_exit_two(monkeypatch, capsys, raw):
    monkeypatch.setenv("QDC_STEP_BUDGET", raw)
    for argv in (["normalize", "--presentation", "Omega", "d*a"],
                 ["verify", "--suite", "forms"]):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "QDC_STEP_BUDGET must be a positive integer" in err and repr(raw) in err


# --q is the grammar's rational literal: a decimal, an exponent, or an
# integer past the interpreter's digit limit is refused before it is computed,
# with a short message that still gives the reason
@pytest.mark.parametrize("q", ["abc", "1/0", "0.5", "2*3", "1e5000", "1e9999999",
                               pytest.param("1" * 5000, id="5000_digits")])
def test_cli_malformed_q_exit_two(capsys, q):
    assert main(["verify", "--suite", "forms", "--q", q]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "--q must be an exact rational" in err
    assert len(err.encode()) < 300
    if len(q) == 5000:
        assert "digits, the interpreter's limit" in err and "5000 characters" in err


# sha256 of the report of `verify --suite all`, every check's as_dict()
# without duration_ms: a refactor that keeps these keeps every check id,
# status, residual text and description
_REPORT_SHA256 = {
    None: "6e9fc06fc1fb1e608d5ebbef634510f3b837a211d728d8713813c7f9effacf7e",
    2: "1aaa6a31e715a45f343fca883f7f32cda969a646f39ff9d22883efe1bddfabb4",
    Fraction(3, 2): "4b81232a833c79f69a9af0161eaca3df4c3c13d117f268e76ce5c7b383dbb6ab",
    Fraction(-3, 2): "bf12809a4eebb36a55bf2ae9d93bbb92a6964d145e0ac1936c25483afc8ab47b",
}


@pytest.mark.parametrize("q0", list(_REPORT_SHA256),
                         ids=["symbolic", "q2", "q3_2", "q_neg3_2"])
def test_full_report_is_pinned(q0):
    rows = []
    for c in run_suite("all", q0).checks:
        row = c.as_dict()
        del row["duration_ms"]
        rows.append(row)
    assert len(rows) == 552
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == _REPORT_SHA256[q0]


# sha256 of the json list of ids, in report order, of each suite run alone,
# so a check that moved from one suite to another shows
_SUITE_IDS_SHA256 = {
    "relations": (164, "ba5a02fc21640cee13cab350fdc61b23737396ff2a9a2e7ca9fad221cd7041b3"),
    "ansatz": (6, "08cf79a88542157aec2b33502b482207a701f92ba4af70435333a7bd7b871e4f"),
    "inverse": (70, "27fd53bf04dfd7e9786ad3ab66f1733dd6deba540575783f3662b58a7fabf861"),
    "forms": (32, "a18536e9b177aee6c6a8b57e5064eec2a354411600c4659d4675f762bbca582e"),
    "structure": (12, "95baf8bff2140a6a38c3172469e520408d2b62aa4aa020406260b141bfa34a58"),
    "superalgebra": (63, "57ab046f3392b364a2f53de7c4adb42c59702905a9e66032b9a8ff479f7d7bce"),
    "hopf": (57, "c2f0599b026bb478008f00a29ca8e904a474b56a3b485b2d402a3ecf2600681a"),
    "central": (20, "eec2ca8c9557a3e2dbc40406f812133b233177f25e9f2c3eb521ec661e8135b0"),
    "rmatrix": (103, "5b0493afa08c5cd2b91428e93534068a2896920cf915f91de7eedac286335b92"),
    "plane": (16, "47f5f9f2a2bccd521fc85664cbe801d36638a4dfc44b88004be4455ce66adf49"),
    "confluence": (9, "bd0a1f2f513fedde3e8e2faff839ded87341b1edabc6fc403dc372fbba5e0d18"),
}


def test_suite_membership_is_pinned():
    assert list(SUITES) == list(_SUITE_IDS_SHA256)
    for name, (count, want) in _SUITE_IDS_SHA256.items():
        ids = [c.id for c in run_suite(name).checks]
        assert len(ids) == count, name
        assert hashlib.sha256(json.dumps(ids).encode()).hexdigest() == want, name


def test_shared_checks_run_once_per_call(monkeypatch):
    # the inverse and central suites both list the clearing checks of the
    # 11 rules that involve Dgamma_inv: 41 rows from 30 rules
    from qdc import calculus

    calls = []
    real = calculus.verify_localized_rule

    def counted(rule, cat=None):
        calls.append(rule)
        return real(rule, cat)

    monkeypatch.setattr(calculus, "verify_localized_rule", counted)
    for q0 in (None, None, 2):
        calls.clear()
        rows = [c for c in run_suite("all", q0).checks if c.id.startswith("localized.")]
        assert len(calls) == 30 and len(set(calls)) == 30
        assert len(rows) == 41
        # sorted by id, a repeated id's rows are neighbours
        twins = [(a, b) for a, b in zip(rows, rows[1:]) if a.id == b.id]
        assert len(twins) == 11 and all(a == b for a, b in twins)
        if q0 is not None:
            note = f" [numeric shadow at q = {q0}]"
            assert all(c.description.endswith(note) and c.description.count(note) == 1
                       for c in rows)


def test_lie_alg_critical_pairs_are_decided_once(monkeypatch):
    calls = []
    real = kernel.check_local_confluence

    def counted(p, max_degree=None):
        calls.append(p.name)
        return real(p, max_degree)

    monkeypatch.setattr(kernel, "check_local_confluence", counted)
    for suite, ids in (("all", ("superalgebra.confluence", "confluence.LieAlg")),
                       ("confluence", ("confluence.LieAlg",))):
        calls.clear()
        rows = {c.id: c for c in run_suite(suite).checks}
        assert calls.count("LieAlg") == 1, suite
        assert all(rows[i].status == "pass" for i in ids)


def test_a_needed_check_runs_once_and_passes_its_error_on():
    calls = []

    def premise():
        calls.append(1)
        return None

    base = Check("base", "", "", premise)
    first = Check("first", "", "", lambda r: r.residual, (base,))
    second = Check("second", "", "", lambda r: "x", (base,))
    results = {}
    assert first.run(results).status == "pass"
    assert second.run(results).residual == "x"
    assert len(calls) == 1 and set(results) == {"base"}
    broken = Check("broken", "", "", lambda: 1 / 0)
    row = Check("row", "", "", lambda r: None, (broken,)).run()
    assert (row.status, row.residual) == \
        ("error", "broken: ZeroDivisionError: division by zero")
