"""The benchmark workloads: fixed op lists whose inputs come from a seed.

A workload's seed only picks inputs from fixed pools of equal cost, so any
seed runs the same amount of work and every input has a stored reference
(``make_refs.py`` computes the pools' references from the same constants).
Ops run one at a time, in list order, against the public API and the
``tse`` CLI entry point ``rma_tse.cli.run``.  Functions are looked up on
their module at call time, so a traced pass sees every call.

Why these workloads:

* ``exact-gate`` is what a user runs for trusted exact numbers: the full
  ``tse verify`` gate, exact tables and exact IOWE.  Its time is in exact
  ``acc`` counts, the ``Fraction`` passes of ``ensemble`` and ``oracles``;
  it does no ``asymptotic`` work.
* ``log-reach`` runs the same ``acc``/``ensemble`` layers through the float
  path, mostly the per-class profile recursion, whose ``_iotse_log`` has no
  cache.  A shared exact/log kernel that speeds up exact but slows log shows
  here.
* ``asym-figs`` is the figure workload: all of its time is in
  ``asymptotic`` (grid, Nelder-Mead, inner solve) and it does no
  ``acc``/``ensemble`` work, so it isolates the asymptotic optimizer.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, List

import checks
from checks import CliResult

NAMES = ("exact-gate", "log-reach", "asym-figs")

# exact-gate
ACC_TABLE_N = 48
ENS_TABLE = (2, 12, 2)             # q, K, L
IOWE = (2, 64, 2)                  # q, K, L; N = 128
IOWE_D_POOL = range(1, 128)      # d = N never occurs under termination
EXACT_IOWE_OPS = 4

# log-reach
LOG_ACC_TABLE_N = 40
LOG_ENS_TABLE = (2, 10, 2)
RAY = (3, 2, 0.1, 0.02)            # q, L, alpha, beta
RAY_N = (96, 192, 384)
RAY_A_JITTER = (-1, 0, 1)
RAY_B_JITTER = (0, 1)
HEAVY = ((3, 144, 72, 14), (3, 192, 96, 19))    # q, N, a = N/2, b = N/10; L = 2
L3_CLASS = (3, 32, 3)              # q, K, L; N = 96
L3_POOL = ((36, 6), (37, 6))
LOG_IOWE_OPS = 2

# asym-figs
SWEEP = (3, 2, 0.1, (0.5, 0.5))    # q, L, delta, fixed split
# The r_point cost swings by 2x with alpha, so the asymptotic queries are
# fixed; the seed picks the f_acc calls.
SWEEP_ALPHAS = ("0.02", "0.3", 10)  # --alpha-min, --alpha-max, --alpha-steps
FREE_ALPHAS = (0.05, 0.1, 0.2)
ASYM_DELTA = 0.1
DEEP = ((3, 3, (1.0, 0.0, 0.0), None, 0.1), (3, 4, (1.0, 0.0, 0.0, 0.0), 15, 0.1))
FACC_POOL = 2000
FACC_CALLS = 1000
FACC_START_CALLS = 50


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def run_cli(argv: List[str]) -> CliResult:
    from rma_tse import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def alpha_grid(lo: float, hi: float, steps: int) -> List[float]:
    """The alpha values ``tse asym-sweep`` visits for these flags."""
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps)]


def ray_class(N: int, da: int, db: int):
    _, _, alpha, beta = RAY
    return round(alpha * N) + da, round(beta * N) + db


def facc_pool() -> list:
    """Fixed (alpha_i, alpha_o, beta) triples; the seed picks among them."""
    rng = random.Random("f_acc pool")
    return [(round(rng.uniform(0.0, 0.6), 6), round(rng.uniform(0.0, 0.6), 6),
             round(rng.uniform(0.0, 0.3), 6)) for _ in range(FACC_POOL)]


def facc_start(rng: random.Random):
    return (rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5))


def _exact_gate(rng: random.Random, refs: dict) -> List[Op]:
    from rma_tse import ensemble

    q, K, L = ENS_TABLE
    ops = [
        Op("tse verify", lambda: run_cli(["verify"]),
           lambda r: checks.check_verify(r, refs["verify_sha256"])),
        Op(f"tse acc-table N={ACC_TABLE_N}",
           lambda: run_cli(["acc-table", "--N", str(ACC_TABLE_N)]),
           lambda r: checks.check_sha(r, refs["acc_table_sha256"])),
        Op(f"tse ensemble-table q={q} K={K} L={L}",
           lambda: run_cli(["ensemble-table", "--q", str(q), "--K", str(K), "--L", str(L)]),
           lambda r: checks.check_sha(r, refs["ensemble_table_sha256"])),
    ]
    config = ensemble.EnsembleConfig(*IOWE)
    for d in sorted(rng.sample(IOWE_D_POOL, EXACT_IOWE_OPS)):
        ops.append(Op(f"ensemble_iowe exact d={d}",
                      lambda d=d: ensemble.ensemble_iowe(config, d),
                      lambda v, d=d: checks.check_fraction(v, refs["iowe_sha256"][str(d)])))
    return ops


def _log_reach(rng: random.Random, refs: dict) -> List[Op]:
    from rma_tse import asymptotic, ensemble

    ops = [
        Op(f"tse acc-table N={LOG_ACC_TABLE_N} log",
           lambda: run_cli(["acc-table", "--N", str(LOG_ACC_TABLE_N), "--mode", "log"]),
           lambda r: checks.check_log_table(r, refs["acc_table"])),
    ]
    q, K, L = LOG_ENS_TABLE
    ops.append(Op(f"tse ensemble-table q={q} K={K} L={L} log",
                  lambda: run_cli(["ensemble-table", "--q", str(q), "--K", str(K),
                                   "--L", str(L), "--mode", "log"]),
                  lambda r: checks.check_log_table(r, refs["ensemble_table"])))

    def tse_op(label, q, N, L, a, b, ref, breakdown=False):
        config = ensemble.EnsembleConfig(q, N // q, L)
        cls = ensemble.TrappingSetClass(a, b)

        def check(result):
            checks.check_log_value(result.value, ref["value"])
            if breakdown:
                pairs = result.breakdown or []
                checks.require(len(pairs) == ref["profiles"],
                               f"{len(pairs)} profiles, reference {ref['profiles']}")
                from rma_tse import combinatorics
                total = combinatorics.log_sum_exp([v for _, v in pairs])
                checks.check_log_value(total, ref["value"])

        return Op(f"ensemble_tse log {label} N={N} a={a} b={b}",
                  lambda: ensemble.ensemble_tse(config, cls, "log", breakdown=breakdown),
                  check)

    rq, rL = RAY[0], RAY[1]
    for N in RAY_N:
        a, b = ray_class(N, rng.choice(RAY_A_JITTER), rng.choice(RAY_B_JITTER))
        ops.append(tse_op("ray", rq, N, rL, a, b, refs["tse"][f"{rq},{N},{rL},{a},{b}"]))
    for hq, N, a, b in HEAVY:
        ops.append(tse_op("heavy", hq, N, 2, a, b, refs["tse"][f"{hq},{N},2,{a},{b}"]))
    lq, lK, lL = L3_CLASS
    a, b = rng.choice(L3_POOL)
    ops.append(tse_op("breakdown", lq, lq * lK, lL, a, b,
                      refs["tse"][f"{lq},{lq * lK},{lL},{a},{b}"], breakdown=True))

    config = ensemble.EnsembleConfig(*IOWE)
    for d in sorted(rng.sample(IOWE_D_POOL, LOG_IOWE_OPS)):
        ops.append(Op(f"ensemble_iowe log d={d}",
                      lambda d=d: ensemble.ensemble_iowe(config, d, "log"),
                      lambda v, d=d: checks.check_log_value(v, refs["iowe_log"][str(d)])))

    query = asymptotic.AsymptoticQuery(q=rq, L=rL, alpha=RAY[2], beta=RAY[3])
    ops.append(Op("r_point free ray limit",
                  lambda: asymptotic.r_point(query),
                  lambda p: checks.check_point(p, rq, query.alpha, query.beta, None,
                                               refs["r_ray"])))
    return ops


def _asym_figs(rng: random.Random, refs: dict) -> List[Op]:
    from rma_tse import asymptotic

    q, L, delta, split = SWEEP
    lo, hi, steps = SWEEP_ALPHAS
    alphas = alpha_grid(float(lo), float(hi), steps)
    split_text = "fixed:" + ",".join(format(f, ".9g") for f in split)
    header0 = f"# q={q} L={L} delta={delta:.9g} split={split_text} grid=33"
    ops = [
        Op(f"tse asym-sweep alpha={lo}..{hi}",
           lambda: run_cli(["asym-sweep", "--q", str(q), "--L", str(L), "--delta", str(delta),
                            "--alpha-min", lo, "--alpha-max", hi, "--alpha-steps", str(steps),
                            "--split", split_text]),
           lambda r: checks.check_sweep_csv(r, q, L, split, header0, alphas, delta,
                                            refs["sweep"])),
    ]
    for alpha in FREE_ALPHAS:
        query = asymptotic.AsymptoticQuery(q=3, L=2, alpha=alpha, beta=ASYM_DELTA * alpha)
        ops.append(Op(f"r_point free alpha={alpha:.6g}",
                      lambda query=query: asymptotic.r_point(query),
                      lambda p, query=query: checks.check_point(
                          p, 3, query.alpha, query.beta, None,
                          refs["r_free"][repr(query.alpha)])))
    for dq, dL, fractions, gp, alpha in DEEP:
        query = asymptotic.AsymptoticQuery(q=dq, L=dL, alpha=alpha, beta=ASYM_DELTA * alpha,
                                           split=asymptotic.SplitPolicy.fixed(fractions))
        ops.append(Op(f"r_point L={dL} fixed alpha={alpha:.6g}",
                      lambda query=query, gp=gp: asymptotic.r_point(query, grid_points=gp),
                      lambda p, query=query, fractions=fractions, key=f"{dL},{alpha!r}":
                      checks.check_point(p, query.q, query.alpha, query.beta, fractions,
                                         refs["r_deep"][key])))

    pool = refs["f_acc"]
    picks = rng.sample(range(len(pool)), FACC_CALLS)
    args = [tuple(pool[i][:3]) for i in picks]
    ops.append(Op(f"f_acc x{FACC_CALLS}",
                  lambda: [asymptotic.f_acc(asymptotic.AccShapeArgs(*a)) for a in args],
                  lambda res: checks.check_facc_values(res, [pool[i][3] for i in picks])))
    feasible = [i for i, entry in enumerate(pool) if entry[3] is not None]
    starts = [(i, facc_start(rng)) for i in rng.sample(feasible, FACC_START_CALLS)]
    ops.append(Op(f"f_acc(start=...) x{FACC_START_CALLS}",
                  lambda: [asymptotic.f_acc(asymptotic.AccShapeArgs(*pool[i][:3]), start=s)
                           for i, s in starts],
                  lambda res: checks.check_facc_values(res, [pool[i][3] for i, _ in starts])))
    return ops


_BUILDERS = {"exact-gate": _exact_gate, "log-reach": _log_reach, "asym-figs": _asym_figs}


def build(workload: str, seed: int, refs: dict) -> List[Op]:
    """The op list of one pass; the same seed gives the same inputs."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), refs)
