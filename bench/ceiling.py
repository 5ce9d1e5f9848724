"""Ceiling probe: does each advertised size ceiling finish in a time budget?

    python3 bench/ceiling.py

A one-off mode, outside the timed workloads.  For every advertised
ceiling, N doubles from a reachable size up to the ceiling; each size runs
alone in a fresh subprocess, with the benchmark's thread pins and a 3 GiB
address-space cap, and is killed at the budget of ``BUDGET_S`` seconds.
The probe records the largest N that finished and marks the ceiling
unreachable when that N falls short of it.  The graph oracle's ceiling is
an operation budget, so its admitted configurations are run in order of
their operation counts instead.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import PINS, _git_commit  # noqa: E402

MEMORY_CAP = 3 << 30
BUDGET_S = 30.0

# name -> (module, constant holding the ceiling, first N, call run on size N)
PROBES = {
    "acc exact table": ("acc", "EXACT_TABLE_N_MAX", 8, "acc.acc_iotse_table({N})"),
    "ensemble exact table": ("ensemble", "EXACT_TABLE_N_MAX", 4,
                             "ensemble.ensemble_table(ensemble.EnsembleConfig(2, {N} // 2, 2))"),
    "ensemble exact class": ("ensemble", "EXACT_CLASS_N_MAX", 8,
                             "ensemble.ensemble_tse(ensemble.EnsembleConfig(2, {N} // 2, 2),"
                             " ensemble.TrappingSetClass({N} // 2, {N} // 10))"),
    "ensemble log table": ("ensemble", "LOG_N_MAX", 8,
                           "ensemble.ensemble_table(ensemble.EnsembleConfig(2, {N} // 2, 2),"
                           " 'log')"),
    "ensemble log class": ("ensemble", "LOG_N_MAX", 8,
                           "ensemble.ensemble_tse(ensemble.EnsembleConfig(2, {N} // 2, 2),"
                           " ensemble.TrappingSetClass({N} // 2, {N} // 10), 'log')"),
    "trellis DP": ("oracles", "TRELLIS_N_MAX", 6, "oracles.trellis_dp({N})"),
    # The exhaustive ceiling is a literal 12 in oracles.exhaustive_acc.
    "exhaustive": ("oracles", None, 3, "oracles.exhaustive_acc({N})"),
}
EXHAUSTIVE_N_MAX = 12


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _time_call(call: str, budget: float):
    """Seconds one call takes in a fresh interpreter, or None past the budget."""
    code = ("import time\nfrom rma_tse import acc, ensemble, oracles\n"
            f"t = time.perf_counter()\n{call}\nprint(time.perf_counter() - t)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **PINS)
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=budget + 5,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return None, "timeout"
    if proc.returncode != 0:
        return None, (proc.stderr.strip().splitlines() or ["?"])[-1][:200]
    seconds = float(proc.stdout.strip().splitlines()[-1])
    return (seconds, "ok") if seconds <= budget else (None, f"took {seconds:.1f} s")


def _sizes(first: int, ceiling: int):
    n = first
    while n < ceiling:
        yield n
        n *= 2
    yield ceiling


def probe_sizes(name: str, budget: float) -> dict:
    import importlib

    module, constant, first, call = PROBES[name]
    if constant is None:
        ceiling, where = EXHAUSTIVE_N_MAX, f"{module}.exhaustive_acc"
    else:
        ceiling = getattr(importlib.import_module(f"rma_tse.{module}"), constant)
        where = f"{module}.{constant}"
    steps, largest = [], None
    for n in _sizes(first, ceiling):
        seconds, status = _time_call(call.format(N=n), budget)
        steps.append({"N": n, "seconds": seconds, "status": status})
        print(f"{name}: N={n} {status} {seconds}", flush=True)
        if seconds is None:
            break
        largest = n
    return {"name": name, "advertised": where, "ceiling": ceiling, "steps": steps,
            "largest_finished": largest,
            "status": "reachable" if largest == ceiling else "unreachable"}


def probe_graph(budget: float) -> dict:
    from rma_tse import oracles

    configs = []
    for q in (1, 2):
        for K in (1, 2, 3):
            for L in (1, 2):
                N = q * K
                ops = math.factorial(N) ** L * (1 << (K + L * (N - 1)))
                if ops <= oracles.GRAPH_OP_BUDGET:
                    configs.append((ops, q, K, L))
    steps, largest = [], None
    for ops, q, K, L in sorted(configs):
        call = f"oracles.graph_ensemble_average(ensemble.EnsembleConfig({q}, {K}, {L}))"
        seconds, status = _time_call(call, budget)
        steps.append({"q": q, "K": K, "L": L, "ops": ops, "seconds": seconds, "status": status})
        print(f"graph: q={q} K={K} L={L} ops={ops} {status} {seconds}", flush=True)
        if seconds is None:
            break
        largest = (ops, seconds)
    out = {"name": "graph budget", "advertised": "oracles.GRAPH_OP_BUDGET",
           "ceiling": oracles.GRAPH_OP_BUDGET, "steps": steps,
           "largest_finished": largest[0] if largest else None}
    projected = oracles.GRAPH_OP_BUDGET * largest[1] / largest[0] if largest else None
    out["projected_s_at_ceiling"] = projected
    out["status"] = "reachable" if projected is not None and projected <= budget else "unreachable"
    out["note"] = ("the K<=3, q<=2, L<=2 guard admits no configuration near the operation "
                   "budget; projected_s_at_ceiling extrapolates the largest admitted one")
    return out


def main() -> int:
    import numpy
    import scipy

    started = time.monotonic()
    results = [probe_sizes(name, BUDGET_S) for name in PROBES]
    results.append(probe_graph(BUDGET_S))
    record = {
        "budget_s": BUDGET_S,
        "environment": {"commit": _git_commit(), "nproc": os.cpu_count(),
                        "python": sys.version.split()[0], "numpy": numpy.__version__,
                        "scipy": scipy.__version__, "pins": PINS,
                        "memory_cap_bytes": MEMORY_CAP},
        "ceilings": results,
        "probe_s": time.monotonic() - started,
    }
    out = os.path.join(BENCH, "results", "ceilings.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for r in results:
        print(f"{r['name']}: ceiling {r['ceiling']}, largest finished "
              f"{r['largest_finished']} -> {r['status']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
