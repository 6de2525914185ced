"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/baseline/FILE.json

For every workload it runs perfbench/run.py once per seed (1..runs), one
run at a time, for BENCHMARK.json's run_seconds, and records each run's
result line.
The spread of a metric is the distance between the first and third
quartiles of its values (statistics.quantiles, n=4) as a share of their
median; BENCHMARK.json bounds the end-to-end spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"meta": run.metadata(1, seconds, 0), "workloads": {}}
    for wl in run.WORKLOADS:
        runs = []
        for seed in range(1, args.runs + 1):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            res["wall_s"] = time.perf_counter() - t0
            runs.append(res)
            vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
            print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']} {vals}",
                  flush=True)
        stats = {}
        for name in runs[0]["metrics"]:
            stats[name] = spread([r["metrics"][name]["value"] for r in runs])
            stats[name]["bound"] = bounds.get(name)
            print(f"  {wl} {name:14s} median {stats[name]['median']:.5g} "
                  f"spread {stats[name]['spread']:.3f} bound {bounds.get(name)}", flush=True)
        report["workloads"][wl] = {"runs": runs, "spreads": stats}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
