"""The qdc benchmark: cold verification runs and a known-answer normalize stream.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Each measured sample is one fresh interpreter (perfbench/child.py) started
here, one at a time: a closed loop with one client.  A run is a series of
steps: SETUP_PROBES children that only import qdc and build the catalog
(set-up time), then one workload child; a calibration loop that times the
machine's current speed runs before the probes, before the child and
after the last step.  Steps come in whole blocks (BLOCK), and a
run starts another block as long as it then ends nearer to S seconds than
it would without (at least one block).  Every end-to-end time is scaled to a
fixed reference speed of the calibration loop (see calibrate).  With
--trace 1 a step has no probes and no calibration, and its untraced child
is followed by a traced one that answers the same stream; the traced ones
wrap qdc's layer boundaries (perfbench/layers.py) and give the per-layer
metrics, unscaled.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 means the benchmark ran; a
wrong answer shows as correct: false, not as an exit code.  Without a qdc
source tree next to perfbench/ the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "verify_symbolic": "the paper's headline run: cold `qdc verify --suite all`, symbolic; "
                       "every layer, confluence-heavy",
    "verify_shadow": "the same run at q = 2: same code path, but every scalar is a one-term "
                     "constant, so the ring layer is used differently",
    "normalize_mix": "seeded parse -> normalize -> format queries with known answers; "
                     "stresses kernel.normalize on unshared words, with little confluence",
}
END_TO_END = {
    "setup_s": "s", "process_s": "s", "verdict_s": "s", "peak_rss_mb": "MB",
    "query_p50_ms": "ms", "query_p99_ms": "ms", "queries_per_s": "1/s",
}
SETUP_PROBES = 4  # set-up probes before each workload child
SETUP_TRIM = 0.1  # setup_s drops this share of its samples at each end
# Child i of a normalize_mix run answers stream part i % PARTS, and a run
# keeps to whole blocks of parts, so it answers the same queries at any speed.
BLOCK = {"normalize_mix": workloads.PARTS}
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
# The machine is shared, and its speed drifts by 20-40% over tens of
# seconds.  A fixed loop of Fraction and dict work, which does not touch
# qdc, is timed for CAL_S seconds before a step's set-up probes, before its
# workload child and after the last step, so that every sample lies
# between two calibrations.  A sample's times are multiplied by CAL_REF_S
# over the mean pass time of the loop just before and just after it.
# Over 90 children, each between two calibrations, this scaling cut the
# spread of 40-second means from 0.15-0.20 to about 0.05.
CAL_S = 0.5
CAL_REF_S = 0.010  # seconds of one calibration pass at the reference speed


def _calibration_pass():
    total = Fraction(0)
    seen = {}
    for i in range(1, 1500):
        total += Fraction(i, i + 1) * Fraction(3, 7)
        seen[(i, i % 7)] = total
    return total


def calibrate():
    """Mean seconds of one calibration pass, over CAL_S seconds of passes."""
    times = []
    end = time.perf_counter() + CAL_S
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        _calibration_pass()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


def run_child(workload, seed, part, mode, trace, queries, timeout):
    """Start one child and wait for it; (wall seconds, result dict or None, error)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("QDC_STEP_BUDGET", None)
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(part), mode,
           "1" if trace else "0", str(queries)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return time.perf_counter() - t0, None, f"timed out after {timeout:.0f} s"
    wall = time.perf_counter() - t0
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (err.strip().splitlines() or ["no output"])[-1]
        return wall, None, f"exit code {proc.returncode}: {tail}"
    try:
        return wall, json.loads(lines[-1]), None
    except ValueError:
        return wall, None, "child printed no JSON result"


def _quantiles(values):
    """(p50, p99) of a pooled sample; p99 needs at least two values."""
    if not values:
        return 0.0, 0.0
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=100)
    return q[49], q[98]


def _trimmed_mean(values, share):
    """Mean of the values without the lowest and the highest `share` of them."""
    values = sorted(values)
    k = int(len(values) * share)
    return statistics.fmean(values[k:len(values) - k])


def aggregate(setups, samples, scales, owed):
    """Fold child results into (attempted, failed, end-to-end metrics, reasons).

    `setups` are set-up seconds, already scaled; `samples` are (wall,
    result, error) triples of workload children, and `scales` the factor
    each child's times are multiplied by.  A child that crashed counts the
    `owed` answers it did not give as failed.  Peak memory is a median over
    children; process and verdict time are means, because with the five to
    eight children a run holds, the mean moved about half as much as the
    median from run to run on a noisy 2-core machine.  Set-up time is a
    mean over the run's 20 to 35 samples without the highest and lowest
    tenth, so one cold import does not move it; query latencies are pooled
    over all children.
    """
    attempted = failed = 0
    reasons = []
    walls, verdicts, rss, lat = [], [], [], []
    total_queries = 0
    for (wall, res, err), scale in zip(samples, scales):
        if res is None:
            attempted += owed
            failed += owed
            reasons.append(err)
            continue
        attempted += res["attempted"]
        failed += res["failed"]
        reasons.extend(res["reasons"])
        walls.append(wall * scale)
        verdicts.append(res["verdict_s"] * scale)
        rss.append(res["peak_rss_mb"])
        lat.extend(ms * scale for ms in res["latencies_ms"])
        total_queries += len(res["latencies_ms"])
    p50, p99 = _quantiles(lat)
    busy = sum(verdicts)
    metrics = {
        "setup_s": _trimmed_mean(setups, SETUP_TRIM) if setups else 0.0,
        "process_s": statistics.fmean(walls) if walls else 0.0,
        "verdict_s": statistics.fmean(verdicts) if verdicts else 0.0,
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "query_p50_ms": p50,
        "query_p99_ms": p99,
        "queries_per_s": total_queries / busy if busy else 0.0,
    }
    return max(attempted, 1), failed, metrics, reasons


def layer_metrics(plain, traced):
    """Median of each per-layer metric over the traced children.

    trace.overhead_s is the median over steps of the traced child's wall
    time minus that of the untraced child just before it, which answered
    the same stream.
    """
    ok = [res for _, res, _ in traced if res is not None]
    out = {}
    for name in layers.PER_LAYER:
        if name == "trace.overhead_s":
            continue
        vals = [res["layers"].get(name, 0) for res in ok if res.get("layers")]
        out[name] = statistics.median(vals) if vals else 0
    diffs = [t[0] - u[0] for u, t in zip(plain, traced)
             if u[1] is not None and t[1] is not None]
    out["trace.overhead_s"] = statistics.median(diffs) if diffs else 0.0
    return out


def run_workload(workload, seed, seconds, trace, queries):
    start = time.perf_counter()

    def remaining():
        return RUN_DEADLINE_S - (time.perf_counter() - start)

    setups = []  # (seconds, calibrations just before and just after the sample)
    setup_errors = []
    block = BLOCK.get(workload, 1)
    plain, traced = [], []
    steps = []  # wall time of each step
    cals = []
    while True:
        step_start = time.perf_counter()
        if not trace:
            cals.append(calibrate())
        for _ in range(0 if trace else SETUP_PROBES):
            _, res, err = run_child(workload, seed, 0, "setup", False, queries, remaining())
            if res is None:
                setup_errors.append(err)
            else:
                setups.append((res["setup_s"], len(cals) - 1, len(cals)))
        if not trace:
            cals.append(calibrate())
        # step i answers stream part i % block, the same for both kinds of child
        part = len(steps) % block
        for with_trace, batch in ((False, plain), (True, traced))[:1 + trace]:
            s = run_child(workload, seed, part, "run", with_trace, queries, remaining())
            batch.append(s)
            if s[1] is not None and not with_trace:
                setups.append((s[1]["setup_s"], len(cals) - 1, len(cals)))
        steps.append(time.perf_counter() - step_start)
        if remaining() < 2 * max(steps):
            break
        # start another block only if the run would then end nearer to its
        # time than it does now
        if (len(steps) % block == 0 and time.perf_counter() - start
                + block * statistics.median(steps) / 2 > seconds):
            break
    if not trace:
        cals.append(calibrate())

    def scale(before, after):
        return CAL_REF_S / statistics.fmean(cals[before:after + 1]) if cals else 1.0

    scales = [scale(2 * i + 1, 2 * i + 2) for i in range(len(plain))] + [1.0] * len(traced)
    owed = queries if workload == "normalize_mix" else len(workloads.expected_ids())
    attempted, failed, metrics, reasons = aggregate(
        [v * scale(i, j) for v, i, j in setups], plain + traced, scales, owed)
    unscaled = aggregate([v for v, _, _ in setups], plain + traced,
                         [1.0] * len(scales), owed)[2]
    if setup_errors:
        attempted += len(setup_errors)
        failed += len(setup_errors)
        reasons = setup_errors + reasons
    if trace:
        metrics = layer_metrics(plain, traced)
    info = {"children": len(plain) + len(traced), "setups": len(setups),
            "wall_s": time.perf_counter() - start, "reasons": reasons[:5],
            "unscaled": unscaled, "calibration_s": cals,
            "setup_samples_s": [v for v, _, _ in setups],
            "child_samples": [{"traced": i >= len(plain), "process_s": w, "scale": k,
                               "verdict_s": r["verdict_s"], "peak_rss_mb": r["peak_rss_mb"],
                               "queries": len(r["latencies_ms"])}
                              for i, ((w, r, _), k) in enumerate(zip(plain + traced, scales))
                              if r]}
    return attempted, failed, metrics, info


def git_commit():
    """HEAD of the checkout, read from .git without starting git; or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed, seconds, trace):
    return {"seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "commit": git_commit()}


def _units(name):
    return END_TO_END.get(name) or layers.PER_LAYER[name]


def result_line(attempted, failed, metrics):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": _units(k)} for k, v in metrics.items()}}


def print_table(workload, attempted, failed, metrics, info, stream=sys.stdout):
    print(f"== {workload}: {info['children']} children, {info['setups']} set-ups, "
          f"{info['wall_s']:.1f} s", file=stream)
    unscaled = info["unscaled"]
    for name, value in metrics.items():
        raw = f"  (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name:34s} {value:14.6g} {_units(name)}{raw}", file=stream)
    print(f"  {'failed_share':34s} {failed / attempted:14.6g} share "
          f"({failed} of {attempted})", file=stream)
    for why in info["reasons"]:
        print(f"  failure: {why}", file=stream)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--queries", type=int, default=workloads.STREAM_QUERIES,
                    help="normalize_mix queries per stream")
    ap.add_argument("--out", help="also write the full result, with metadata, to this file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qdc" / "__init__.py").is_file():
        print(f"error: no qdc source tree at {ROOT / 'src' / 'qdc'}", file=sys.stderr)
        return 2
    if args.queries < 1:
        print("error: --queries must be at least 1", file=sys.stderr)
        return 2

    meta = metadata(args.seed, args.seconds, args.trace)
    print("# " + json.dumps(meta))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    full = {"meta": meta, "workloads": {}}
    total_attempted = total_failed = 0
    for name in names:
        attempted, failed, metrics, info = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.queries)
        print(f"# {name}: {WORKLOADS[name]}")
        print_table(name, attempted, failed, metrics, info)
        full["workloads"][name] = {**result_line(attempted, failed, metrics), "info": info}
        total_attempted += attempted
        total_failed += failed
        last = result_line(attempted, failed, metrics)
    if args.out:
        Path(args.out).write_text(json.dumps(full, indent=2) + "\n")
    if len(names) > 1:
        last = {"correct": total_failed == 0, "attempted": total_attempted,
                "failed": total_failed,
                "metrics": {f"{w}.{k}": v for w, r in full["workloads"].items()
                            for k, v in r["metrics"].items()}}
    print(json.dumps(last), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
