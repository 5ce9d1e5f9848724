"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

Run it from the root of a checkout; it imports ``rma_tse`` from the
checkout's ``src/`` and nothing else is built.  A run

1. starts ``SETUP_PROBES`` fresh interpreters that only import ``rma_tse``
   and takes their set-up times (after one unmeasured warm-up import);
2. runs passes of the workload's op list, each in a fresh interpreter so
   that one pass cannot reuse another's caches, one at a time (a closed
   loop with one client), and starts another pass only while it is
   expected to end within ``--seconds``;
3. with ``--trace 1``, alternates untraced and traced passes, and reports
   the per-layer metrics of the traced ones plus the tracing overhead.

Every metric is the median over the run's passes (set-up: over all
interpreters started).  Times are scaled to a fixed CPU speed measured
while the pass runs (``speed.py``); the raw ones stay in the record.  Each pass checks every output against the stored
references.  The last stdout line is the result JSON; the line before it
is the environment record, and ``bench/out/`` holds the full record of the
run and the spans of its last traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

# One worker thread or process everywhere; nproc on the reference machine is 2.
PINS = {
    "TSE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_PROBES = 8
# A run must end within 180 s whatever the program does: no pass starts
# after START_LIMIT_S, and every worker is killed at DEADLINE_S.
START_LIMIT_S = 100.0
DEADLINE_S = 165.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _env() -> dict:
    env = dict(os.environ)
    env.update(PINS)
    return env


def _worker(args, timeout: float):
    """Run bench/worker.py; return (record or None, op count announced, error)."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--t0", repr(t0)] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
        return None, _announced(out), f"killed after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, _announced(proc.stdout), (proc.stderr.strip().splitlines() or ["?"])[-1]
    return json.loads(lines[-1]), None, None


def _announced(stdout: str) -> int:
    for line in stdout.splitlines():
        if line.startswith('{"ops":'):
            return json.loads(line)["ops"]
    return 1


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _setup_times(record: dict) -> dict:
    return {"setup_s": record["setup_s"], "raw_setup_s": record["raw_setup_s"]}


def _setup(n: int, deadline: float) -> tuple:
    """Set-up times of n fresh interpreters, after one warm-up import."""
    samples, versions = [], None
    for i in range(n + 1):
        record, _, error = _worker(["--setup-only"], deadline - time.monotonic())
        if record is None:
            raise BenchError(f"cannot import rma_tse from {ROOT}/src: {error}")
        versions = record["versions"]
        if i:
            samples.append(_setup_times(record))
    return samples, versions


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    spec = _spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "rma_tse", "__init__.py")):
        raise BenchError(f"no rma_tse package under {ROOT}/src")
    started = time.monotonic()
    deadline = started + DEADLINE_S
    setups, versions = _setup(SETUP_PROBES, deadline)

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}.jsonl")
    base = ["--workload", workload, "--seed", str(seed)]
    kinds = [0, 1] if trace else [0]
    passes = {0: [], 1: []}
    attempted = failed = 0
    errors = []
    window = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - window
        if passes[0] and (elapsed + last > seconds or time.monotonic() - started > START_LIMIT_S):
            break
        round_start = time.monotonic()
        for kind in kinds:
            pass_id = str(len(passes[kind]))
            extra = ["--trace", str(kind), "--pass-id", pass_id]
            if kind:
                extra += ["--spans", spans_path]
            record, ops, error = _worker(base + extra, deadline - time.monotonic())
            if record is None:
                attempted += ops
                failed += ops
                errors.append(f"pass {pass_id} (trace {kind}): {error}")
                continue
            passes[kind].append(record)
            setups.append(_setup_times(record))
            attempted += record["attempted"]
            failed += record["failed"]
            errors += [f"{op['name']}: {op['error']}" for op in record["ops"] if op["error"]]
        last = time.monotonic() - round_start
        if not all(passes[k] for k in kinds):
            break  # a pass crashed or timed out; further passes would too

    if not all(passes[k] for k in kinds):
        metrics = {}
    elif trace:
        metrics = _per_layer(spec, passes)
    else:
        metrics = _end_to_end(spec, passes[0], setups, attempted, failed)
    environment = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "commit": _git_commit(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "pins": PINS, **versions,
    }
    record = {"environment": environment, "setups": setups, "passes": passes,
              "errors": errors, "metrics": metrics}
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {"environment": environment, "errors": errors,
            "result": {"correct": failed == 0 and bool(metrics), "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def _end_to_end(spec, passes, setups, attempted, failed) -> dict:
    values = {
        "wall_s": _median(passes, "wall_s"),
        "cpu_s": _median(passes, "cpu_s"),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": _median(passes, "peak_rss_mb"),
        "ok_frac": (attempted - failed) / attempted,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def _per_layer(spec, passes) -> dict:
    traced = passes[1]
    names = [m["name"] for m in spec["per_layer"]]
    values = {}
    for name in names:
        samples = [p["layers"].get(name, p["counters"].get(name, 0)) for p in traced]
        values[name] = statistics.median(samples)
    values["trace.overhead_s"] = _median(traced, "wall_s") - _median(passes[0], "wall_s")
    values["trace.coverage"] = statistics.median(
        p["layers"]["trace.top_level_s"] / p["raw_wall_s"] for p in traced)
    values["bench.check_s"] = _median(traced, "check_s")
    values["bench.raw_wall_s"] = _median(passes[0], "raw_wall_s")
    values["bench.speed"] = _median(passes[0], "speed")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in out["errors"]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"environment": out["environment"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
