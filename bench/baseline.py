"""Seed-to-seed statistics of the benchmark, for the benchmark trajectory.

    python3 bench/baseline.py --label NAME [--first-seed 1]

For each workload, runs ``bench/run.py`` once per seed on ``RUNS`` seeds
from ``--first-seed`` (tracing off), one run after another, then one traced
run on the first seed.  Reports each end-to-end metric's median, quartiles
(``statistics.quantiles(n=4)``) and spread, the distance between the
quartiles as a share of the median, next to a third of the metric's bound.
Appends the whole entry, per-layer numbers of the traced run included, to
``bench/results/trajectory.json``, the record later changes compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TRAJECTORY = os.path.join(BENCH, "results", "trajectory.json")
RUNS = 10


def one_run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
    return {"environment": json.loads(lines[-2])["environment"], **json.loads(lines[-1])}


def summarize(values: list, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds = list(range(args.first_seed, args.first_seed + RUNS))

    entry = {"label": args.label, "seeds": seeds, "run_seconds": spec["run_seconds"],
             "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(one_run(spec, name, seed, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry["environment"] = {k: v for k, v in runs[-1]["environment"].items()
                                if k not in ("workload", "seed", "trace")}
        e2e = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs], m["bound"])
               for m in spec["end_to_end"]}
        traced = one_run(spec, name, seeds[0], 1)
        entry["workloads"][name] = {
            "end_to_end": e2e,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, s in e2e.items():
            print(f"{name} {metric}: median {s['median']:.4g} q1 {s['q1']:.4g} q3 {s['q3']:.4g}"
                  f" spread {s['spread']:.4f} (bound/3 {s['bound'] / 3:.4f})"
                  f"{'' if s['steady'] else '  NOT STEADY'}", flush=True)

    trajectory = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    trajectory.append(entry)
    os.makedirs(os.path.dirname(TRAJECTORY), exist_ok=True)
    with open(TRAJECTORY, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
