"""Compute the stored references of every workload from the current code.

    python3 bench/make_refs.py [workload ...]

Run once on the seed code; the files in ``bench/refs/`` are what later
versions are checked against.  Exact references are cross-checked against
the brute-force oracles where those reach:

* ``acc-table N=48`` equals ``trellis_dp(48)`` (the oracle's ceiling);
* ``ensemble-table q=2 K=12 L=2`` has the closure mass 2^(K + L(N-1));
  the graph oracle stops at K=3;
* every exact IOWE value equals the log-mode value within 1e-8;
* log tables equal the logs of the exact tables within 1e-8, and every class
  at N <= 128 equals the log of its exact count.

The ``tse verify`` reference is the report of the verification gate itself.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads as W  # noqa: E402
from rma_tse import asymptotic, ensemble, oracles  # noqa: E402


def _close_to_exact(log_value: float, exact) -> bool:
    return checks.log_close(log_value, math.log(Fraction(exact)))


def _table_entries(text: str) -> list:
    return [e["key"] + [float(e["value"])] for e in json.loads(text)["entries"]]


def exact_gate() -> dict:
    verify = W.run_cli(["verify"])
    assert verify.code == 0, verify.stdout
    table = W.run_cli(["acc-table", "--N", str(W.ACC_TABLE_N)])
    assert table.code == 0
    parsed = {tuple(e["key"]): int(e["value"]) for e in json.loads(table.stdout)["entries"]}
    assert parsed == oracles.trellis_dp(W.ACC_TABLE_N).entries, "acc-table vs trellis DP"
    q, K, L = W.ENS_TABLE
    ens = W.run_cli(["ensemble-table", "--q", str(q), "--K", str(K), "--L", str(L)])
    assert ens.code == 0
    mass = sum((Fraction(e["value"]) for e in json.loads(ens.stdout)["entries"]), Fraction(0))
    assert mass == 2 ** (K + L * (q * K - 1)), "ensemble-table closure mass"
    config = ensemble.EnsembleConfig(*W.IOWE)
    iowe = {}
    for d in W.IOWE_D_POOL:
        value = ensemble.ensemble_iowe(config, d)
        assert value > 0 and _close_to_exact(ensemble.ensemble_iowe(config, d, "log"), value), d
        iowe[str(d)] = checks.sha256(str(value))
    return {"verify_sha256": checks.sha256(verify.stdout),
            "acc_table_sha256": checks.sha256(table.stdout),
            "ensemble_table_sha256": checks.sha256(ens.stdout),
            "iowe_sha256": iowe}


def log_reach() -> dict:
    table = W.run_cli(["acc-table", "--N", str(W.LOG_ACC_TABLE_N), "--mode", "log"])
    assert table.code == 0
    acc_entries = _table_entries(table.stdout)
    exact = oracles.trellis_dp(W.LOG_ACC_TABLE_N).entries
    assert len(exact) == len(acc_entries)
    assert all(_close_to_exact(e[3], exact[tuple(e[:3])]) for e in acc_entries)

    q, K, L = W.LOG_ENS_TABLE
    ens = W.run_cli(["ensemble-table", "--q", str(q), "--K", str(K), "--L", str(L),
                     "--mode", "log"])
    assert ens.code == 0
    ens_entries = _table_entries(ens.stdout)
    exact = ensemble.ensemble_table(ensemble.EnsembleConfig(q, K, L))
    assert len(exact) == len(ens_entries)
    assert all(_close_to_exact(e[2], exact[tuple(e[:2])]) for e in ens_entries)

    tse = {}

    def add(q, N, L, a, b, breakdown=False):
        config = ensemble.EnsembleConfig(q, N // q, L)
        cls = ensemble.TrappingSetClass(a, b)
        result = ensemble.ensemble_tse(config, cls, "log", breakdown=breakdown)
        assert result.value > -math.inf, (q, N, L, a, b)
        ref = {"value": result.value}
        if breakdown:
            ref["profiles"] = len(result.breakdown)
        if N <= ensemble.EXACT_CLASS_N_MAX:
            assert _close_to_exact(result.value, ensemble.ensemble_tse(config, cls).value)
        tse[f"{q},{N},{L},{a},{b}"] = ref

    rq, rL = W.RAY[0], W.RAY[1]
    for N in W.RAY_N:
        for da in W.RAY_A_JITTER:
            for db in W.RAY_B_JITTER:
                add(rq, N, rL, *W.ray_class(N, da, db))
    for hq, N, a, b in W.HEAVY:
        add(hq, N, 2, a, b)
    lq, lK, lL = W.L3_CLASS
    for a, b in W.L3_POOL:
        add(lq, lq * lK, lL, a, b, breakdown=True)

    config = ensemble.EnsembleConfig(*W.IOWE)
    iowe = {str(d): ensemble.ensemble_iowe(config, d, "log") for d in W.IOWE_D_POOL}
    point = asymptotic.r_point(asymptotic.AsymptoticQuery(q=rq, L=rL, alpha=W.RAY[2],
                                                          beta=W.RAY[3]))
    checks.check_point(point, rq, W.RAY[2], W.RAY[3], None, point.r)
    return {"acc_table": acc_entries, "ensemble_table": ens_entries, "tse": tse,
            "iowe_log": iowe, "r_ray": point.r}


def asym_figs() -> dict:
    q, L, delta, split = W.SWEEP
    policy = asymptotic.SplitPolicy.fixed(split)
    lo, hi, steps = W.SWEEP_ALPHAS
    alphas = W.alpha_grid(float(lo), float(hi), steps)
    points = asymptotic.sweep(asymptotic.SweepSpec(delta=delta, alpha_grid=tuple(alphas),
                                                   q=q, L=L, split=policy))
    for p, alpha in zip(points, alphas):
        checks.check_point(p, q, alpha, delta * alpha, split, p.r)
    sweep = [p.r for p in points]
    r_free = {}
    for alpha in W.FREE_ALPHAS:
        query = asymptotic.AsymptoticQuery(q=3, L=2, alpha=alpha, beta=W.ASYM_DELTA * alpha)
        p = asymptotic.r_point(query)
        checks.check_point(p, 3, query.alpha, query.beta, None, p.r)
        r_free[repr(alpha)] = p.r
    r_deep = {}
    for dq, dL, fractions, gp, alpha in W.DEEP:
        query = asymptotic.AsymptoticQuery(q=dq, L=dL, alpha=alpha, beta=W.ASYM_DELTA * alpha,
                                           split=asymptotic.SplitPolicy.fixed(fractions))
        p = asymptotic.r_point(query, grid_points=gp)
        checks.check_point(p, dq, query.alpha, query.beta, fractions, p.r)
        r_deep[f"{dL},{alpha!r}"] = p.r
    pool = []
    for args in W.facc_pool():
        value = asymptotic.f_acc(asymptotic.AccShapeArgs(*args)).value
        pool.append(list(args) + [None if value == -math.inf else value])
    return {"sweep": sweep, "r_free": r_free, "r_deep": r_deep, "f_acc": pool}


MAKERS = {"exact-gate": exact_gate, "log-reach": log_reach, "asym-figs": asym_figs}


def main(names) -> None:
    os.makedirs(checks.REFS_DIR, exist_ok=True)
    for name in names or W.NAMES:
        refs = MAKERS[name]()
        data = json.dumps(refs, sort_keys=True, separators=(",", ":")).encode("utf-8")
        path = os.path.join(checks.REFS_DIR, f"{name}.json.gz")
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(data)
        print(f"{path}: {len(data)} bytes before compression", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
