"""Tests of the benchmark itself: gates, negative controls and smoke runs.

    PYTHONPATH=src python3 -m pytest perfbench -q

They are not part of the package's test suite (pyproject's testpaths names
tests/ only).  The smoke runs start the real harness at a tiny size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cat():
    from qdc import get_catalog
    return get_catalog()


def _report(ids):
    return {"checks": [{"id": i, "status": "pass", "residual": None} for i in ids]}


def test_committed_ids_pass_their_own_gate():
    ids = workloads.expected_ids()
    assert len(ids) == 552
    assert workloads.check_report(_report(ids), 0, ids) == (552, 0, [])


def test_negative_control_corrupted_expected_id():
    ids = workloads.expected_ids()
    corrupted = [ids[0] + "_corrupted", *ids[1:]]
    attempted, failed, reasons = workloads.check_report(_report(ids), 0, corrupted)
    assert failed == 2  # the corrupted id is missing, the real one unexpected
    assert attempted == 553
    assert any("missing" in r for r in reasons)


def test_gate_counts_status_residual_and_exit_code():
    ids = workloads.expected_ids()
    rep = _report(ids)
    rep["checks"][3]["status"] = "fail"
    rep["checks"][4]["residual"] = "q"
    assert workloads.check_report(rep, 1, ids)[1] == 2
    assert workloads.check_report(_report(ids), 1, ids)[1] == 1
    assert workloads.check_report(None, 2, ids)[1] == 552


def test_stream_is_seeded_and_balanced(cat):
    a = workloads.make_stream(cat, 7)
    assert a == workloads.make_stream(cat, 7)
    assert a != workloads.make_stream(cat, 8)
    kinds = [k for k, _, _ in a]
    assert len(a) == workloads.STREAM_QUERIES
    assert kinds.count("ladder") == len(workloads.LADDER)
    # every seed asks a third of each population
    assert kinds.count("zero") == 142 * 9 // workloads.PARTS
    assert kinds.count("word") == 58 * 9 * workloads.WORD_COPIES // workloads.PARTS
    rungs = [t for k, _, t in a if k == "ladder"]
    assert rungs == [f"(d*a)^{k}" for k in workloads.LADDER]
    assert workloads.make_stream(cat, 7, 300) == a[:300]


def test_stream_parts_cover_the_identity_population(cat):
    from qdc import print_ast

    # two LieAlg families share an identity text, so count distinct texts
    n_ident = len({(n, print_ast(i.lhs_ast), print_ast(i.rhs_ast))
                   for n in cat.names() for i in cat.presentation(n).identities})
    pads = (workloads.MAX_PAD + 1) ** 2
    seen = set()
    for part in range(workloads.PARTS):
        for kind, pname, text in workloads.make_stream(cat, 11, part=part):
            if kind == "zero":
                head, tail = text[:text.index("((")], text[text.rindex("))") + 2:]
                seen.add((pname, text[len(head):len(text) - len(tail)],
                          head.count("*"), tail.count("*")))
    assert len(seen) == n_ident * pads


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_negative_control_forced_nonzero_answer(cat):
    from qdc import format_element, normalize, parse_expression

    om = cat.presentation("Omega")
    el = normalize(parse_expression("d*a", om), om)
    answer = format_element(el, om)
    assert workloads.check_answer(cat, "zero", "Omega", answer, el) is not None
    assert workloads.check_answer(cat, "word", "Omega", answer, el) is None
    raw = parse_expression("d*a", om)
    assert "not a normal form" in workloads.check_answer(cat, "word", "Omega", "d*a", raw)


def test_negative_control_through_the_child(cat, monkeypatch):
    import qdc
    from qdc.kernel import Element

    real = qdc.normalize

    def broken(e, p, budget=None):
        return real(e, p) + Element.word((p.generators[0].name,))

    monkeypatch.setattr(qdc, "normalize", broken)
    verdict, rss, lat, attempted, failed, reasons, _ = child._normalize_mix(cat, 3, 0, 60, None)
    zero = sum(k == "zero" for k, _, _ in workloads.make_stream(cat, 3, 60))
    assert attempted == 60 and failed >= zero > 0
    line = run.result_line(attempted, failed, {"setup_s": 0.1})
    assert line["correct"] is False and line["failed"] == failed


def test_crashed_child_counts_as_failed():
    attempted, failed, metrics, reasons = run.aggregate(
        [0.1], [(1.0, None, "exit code 1: boom")], [1.0], owed=552)
    assert (attempted, failed) == (552, 552)
    assert reasons == ["exit code 1: boom"]


def test_scale_multiplies_every_time_but_not_memory():
    res = {"attempted": 2, "failed": 0, "reasons": [], "verdict_s": 1.0,
           "peak_rss_mb": 50.0, "latencies_ms": [1.0, 3.0]}
    one = run.aggregate([0.1], [(2.0, res, None)], [1.0], owed=2)[2]
    two = run.aggregate([0.1], [(2.0, res, None)], [2.0], owed=2)[2]
    for name in ("process_s", "verdict_s", "query_p50_ms", "query_p99_ms"):
        assert two[name] == 2 * one[name]
    assert two["queries_per_s"] == one["queries_per_s"] / 2
    assert two["peak_rss_mb"] == one["peak_rss_mb"]


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run(workload, tmp_path):
    out = tmp_path / "full.json"
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", "0", "--queries", "40", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] is True and res["failed"] == 0
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert "failed_share" in proc.stdout
    # one whole block of steps, each with its set-up probes
    info = json.loads(out.read_text())["workloads"][workload]["info"]
    steps = run.BLOCK.get(workload, 1)
    assert info["children"] == steps
    assert info["setups"] == steps * (run.SETUP_PROBES + 1)


def test_smoke_traced_run():
    proc = _bench("--workload", "normalize_mix", "--seed", "5", "--seconds", "0",
                  "--trace", "1", "--queries", "40")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is True
    assert set(res["metrics"]) == set(layers.PER_LAYER)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["kernel.normalize.calls"] == 40
    assert m["parser.calls"] > 0 and m["ring.mul.calls"] > 0
    assert m["kernel.confluence.words"] == 0 and m["cli.suite.confluence.s"] == 0


def test_without_qdc_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "verify_symbolic", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
