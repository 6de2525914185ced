"""One measured qdc process of the benchmark, started by run.py.

    python3 perfbench/child.py WORKLOAD SEED PART MODE TRACE QUERIES

MODE is "setup" (import qdc and build the catalog, nothing else) or "run";
PART picks the normalize_mix stream (workloads.make_stream).
The child times its own set-up and work with time.perf_counter, checks its
answers, and prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402

SHADOW_Q = 2


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _verify(q0, tracer):
    from qdc import cli

    argv = ["verify", "--suite", "all", "--format", "json"]
    if q0 is not None:
        argv += ["--q", str(q0)]
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    verdict = time.perf_counter() - t0
    rss = _peak_rss_mb()
    layer_values = tracer.metrics() if tracer else None
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = None
    attempted, failed, reasons = workloads.check_report(report, code, workloads.expected_ids())
    lat = [c.get("duration_ms", 0.0) for c in (report or {}).get("checks", [])]
    return verdict, rss, lat, attempted, failed, reasons, layer_values


def _normalize_mix(cat, seed, part, n, tracer):
    from qdc import format_element, normalize, parse_expression

    stream = workloads.make_stream(cat, seed, n, part)
    answers = []
    lat = []
    t0 = time.perf_counter()
    for kind, pname, text in stream:
        t = time.perf_counter()
        try:
            p = cat.presentation(pname)
            el = normalize(parse_expression(text, p), p)
            answer = format_element(el, p)
        except Exception as exc:  # a raising query is a failed query
            el, answer = None, f"{type(exc).__name__}: {exc}"
        lat.append((time.perf_counter() - t) * 1000.0)
        answers.append((kind, pname, answer, el))
    verdict = time.perf_counter() - t0
    rss = _peak_rss_mb()
    layer_values = tracer.metrics() if tracer else None
    reasons = []
    for kind, pname, answer, el in answers:
        why = (f"raised {answer}" if el is None
               else workloads.check_answer(cat, kind, pname, answer, el))
        if why is not None:
            reasons.append(why)
    return verdict, rss, lat, len(answers), len(reasons), reasons[:5], layer_values


def main(argv):
    workload, seed, part, mode, trace, queries = argv
    seed, part, trace, queries = int(seed), int(part), trace == "1", int(queries)
    q0 = SHADOW_Q if workload == "verify_shadow" else None

    t0 = time.perf_counter()
    import qdc
    if not str(Path(qdc.__file__).resolve()).startswith(str(HERE.parent / "src")):
        raise SystemExit(f"qdc imported from {qdc.__file__}, not from this checkout")
    tracer = None
    if trace:
        import layers
        tracer = layers.install()
    cat = qdc.get_catalog(q0)
    setup = time.perf_counter() - t0

    result = {"setup_s": setup}
    if mode == "run":
        if workload == "normalize_mix":
            got = _normalize_mix(cat, seed, part, queries, tracer)
        else:
            got = _verify(q0, tracer)
        keys = ("verdict_s", "peak_rss_mb", "latencies_ms", "attempted",
                "failed", "reasons", "layers")
        result.update(zip(keys, got))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
