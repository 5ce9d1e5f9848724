"""Command-line interface with bit-stable CSV/JSON emission.

Exit codes: 0 success, 1 usage or I/O error, 2 infeasible asymptotic query,
3 verification mismatch.  ``TSE_THREADS`` sets the sweep worker count (at
most one per alpha and per CPU); a ``--config`` file of ``key=value`` lines
supplies argument defaults (command line wins).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from . import acc, asymptotic, ensemble, oracles
from .acc import AccTriple, RangeError, ResourceLimitError
from .asymptotic import (
    AsymptoticPoint,
    AsymptoticQuery,
    SplitPolicy,
    SweepSpec,
    r_point,
    sweep,
)
from .combinatorics import DomainError
from .ensemble import EnsembleConfig, TrappingSetClass

__all__ = [
    "run",
    "main",
    "emit_sweep_csv",
    "emit_table_json",
    "parse_table_json",
    "preset_sweeps",
]


class UsageError(Exception):
    """Bad arguments or parameter combinations."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # keep argparse from exiting
        raise UsageError(message)


def _fmt(x: float) -> str:
    return format(x, ".9g")


def _write(text: str, destination) -> None:
    """Write ``text`` to an open stream, or to the file at a path (no newline translation)."""
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def emit_sweep_csv(spec: SweepSpec, points: Iterable[AsymptoticPoint], destination) -> None:
    """Write a sweep's points with a metadata comment line and a fixed header.

    Identical inputs produce byte-identical files: one metadata line, the
    header, then one row per point at 9 significant digits: alpha, beta, r,
    ``r_clamped = max(r, 0)``, omega, then the witness of each level.  A
    point without a witness gets NaN witness cells.
    """
    L = spec.L
    grid = asymptotic._grid_resolution(L, spec.split, spec.grid_points)
    header = ["alpha", "beta", "r", "r_clamped", "omega"]
    for level in range(1, L + 1):
        header += [f"alpha_o_{level}", f"beta_{level}", f"mu_{level}", f"nu_{level}"]
    lines = [
        f"# q={spec.q} L={L} delta={_fmt(spec.delta)} split={spec.split.describe()} grid={grid}",
        ",".join(header),
    ]
    nan = float("nan")
    for p in points:
        if p.witness is None:
            omega, levels = nan, [(nan, nan, nan, nan)] * L
        else:
            omega = p.witness.omega
            levels = [(lv.alpha_o, lv.beta, lv.mu, lv.nu) for lv in p.witness.levels]
        cells = [p.alpha, p.beta, p.r, max(p.r, 0.0), omega] + [v for lv in levels for v in lv]
        lines.append(",".join(_fmt(v) for v in cells))
    _write("\n".join(lines) + "\n", destination)


def _value_str(value) -> str:
    if isinstance(value, Fraction):
        return str(value)  # "5" or "2/3"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))  # log-mode tables carry ln values


def emit_table_json(kind: str, params: Dict, entries: Dict, destination) -> None:
    """Serialize a table as {"kind", "params", "entries"} with sorted keys.

    Exact values are decimal integer or "num/den" strings, never floats.
    """
    payload = {
        "kind": kind,
        "params": params,
        "entries": [
            {"key": list(key), "value": _value_str(value)}
            for key, value in sorted(entries.items())
        ],
    }
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", destination)


def parse_table_json(text: str) -> Tuple[str, Dict, Dict]:
    """Inverse of emit_table_json; values parse to int/Fraction/float."""
    payload = json.loads(text)
    entries = {}
    for item in payload["entries"]:
        raw = item["value"]
        if "/" in raw:
            value: Union[int, Fraction, float] = Fraction(raw)
        elif "." in raw or "e" in raw or "inf" in raw or "nan" in raw:
            value = float(raw)
        else:
            value = int(raw)
        entries[tuple(item["key"])] = value
    return payload["kind"], payload["params"], entries


def _parse_split(text: str) -> SplitPolicy:
    if text == "free":
        return SplitPolicy.free()
    if text.startswith("fixed:"):
        try:
            fractions = tuple(float(p) for p in text[len("fixed:"):].split(","))
        except ValueError as exc:
            raise UsageError(f"bad split specification {text!r}") from exc
        return SplitPolicy.fixed(fractions)
    raise UsageError(f"split must be 'free' or 'fixed:f1,f2,...', got {text!r}")


def _workers(jobs: int) -> int:
    """Sweep worker count: ``TSE_THREADS``, capped by the jobs and the CPUs."""
    raw = os.environ.get("TSE_THREADS", "1")
    try:
        wanted = int(raw)
    except ValueError:
        print(f"warning: ignoring TSE_THREADS={raw!r} (not an integer); using 1 worker",
              file=sys.stderr)
        wanted = 1
    return max(1, min(wanted, jobs, os.cpu_count() or 1))


def build_parser() -> _Parser:
    parser = _Parser(prog="tse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("acc", help="one accumulator trapping-set class count")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--ai", type=int, required=True)
    p.add_argument("--ao", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "log"), default="exact")

    p = sub.add_parser("acc-table", help="all accumulator class counts for one N")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "log"), default="exact")
    p.add_argument("--out", default="-")

    p = sub.add_parser("ensemble", help="ensemble-average count of one (a, b) class")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "log"), default="exact")

    p = sub.add_parser("ensemble-table", help="all ensemble-average class counts")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "log"), default="exact")
    p.add_argument("--out", default="-")

    p = sub.add_parser("asym-point", help="spectral shape r(alpha, beta)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--split", default="free")
    p.add_argument("--grid-points", type=int, default=None)

    p = sub.add_parser("asym-sweep", help="constant-ratio spectral-shape sweep")
    source = p.add_mutually_exclusive_group()
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--L", type=int, default=2)
    source.add_argument("--delta", type=float, default=None)
    p.add_argument("--alpha-min", type=float, default=0.01)
    p.add_argument("--alpha-max", type=float, default=0.3)
    p.add_argument("--alpha-steps", type=int, default=30)
    p.add_argument("--split", default="free")
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--out", default="-")
    source.add_argument("--preset", choices=sorted(PRESET_NAMES), default=None)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("oracle", help="run one brute-force oracle")
    p.add_argument("--which", choices=("trellis", "exhaustive", "graph"), required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--out", default="-")

    p = sub.add_parser("verify", help="cross-check every oracle equality")
    # No defaults here: VerifyLimits holds them, and a flag left out keeps the
    # base's value.  The metavar names the flag, as the help text always has.
    for flag, field in _LIMIT_FLAGS.items():
        p.add_argument(flag, dest=field, type=int, metavar=flag[2:].replace("-", "_").upper())
    p.add_argument("--quick", action="store_true",
                   help="shrink all limits for a fast smoke run")
    p.add_argument("--out", default=None)
    return parser


PRESET_NAMES = ("fig4", "fig5", "fig6", "fig7")

# ``tse verify`` limit flags and the VerifyLimits fields they set.
_LIMIT_FLAGS = {
    "--n-closed": "trellis_n_max",
    "--n-exhaustive": "exhaustive_n_max",
    "--n-iowe": "iowe_n_max",
    "--n-rowsum": "rowsum_n_max",
    "--closure-kmax": "closure_k_max",
    "--closure-qmax": "closure_q_max",
    "--closure-lmax": "closure_l_max",
}

_QUICK_LIMITS = oracles.VerifyLimits(
    trellis_n_max=10,
    exhaustive_n_max=8,
    iowe_n_max=16,
    rowsum_n_max=10,
    graph_configs=((2, 2, 1),),
    closure_k_max=2,
    closure_q_max=2,
    closure_l_max=2,
)


def _alpha_grid(lo: float, hi: float, steps: int) -> Tuple[float, ...]:
    if steps < 1:
        raise UsageError(f"--alpha-steps must be >= 1, got {steps}")
    if steps == 1:
        return (lo,)
    step = (hi - lo) / (steps - 1)
    return tuple(lo + i * step for i in range(steps))


def preset_sweeps(name: str) -> List[Tuple[SweepSpec, str]]:
    """Figure-style sweep bundles (q defaults to 3 where unspecified)."""
    grid = _alpha_grid(0.01, 0.3, 30)
    if name == "fig4":
        return [
            (SweepSpec(delta=d, alpha_grid=grid, q=3, L=2,
                       split=SplitPolicy.fixed((0.5, 0.5))),
             f"fig4_delta{_fmt(d)}.csv")
            for d in (0.0, 0.05, 0.1, 0.2)
        ]
    if name == "fig5":
        return [
            (SweepSpec(delta=0.1, alpha_grid=grid, q=3, L=2,
                       split=SplitPolicy.fixed((f1, 1.0 - f1))),
             f"fig5_beta1_{_fmt(f1)}.csv")
            for f1 in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
    if name == "fig6":
        return [
            (SweepSpec(delta=0.1, alpha_grid=grid, q=q, L=2,
                       split=SplitPolicy.fixed((1.0, 0.0))),
             f"fig6_q{q}.csv")
            for q in (2, 3, 4, 5)
        ]
    if name == "fig7":
        out = []
        for L in (2, 3, 4):
            split = SplitPolicy.fixed(tuple([1.0] + [0.0] * (L - 1)))
            out.append(
                (SweepSpec(delta=0.1, alpha_grid=grid, q=3, L=L, split=split),
                 f"fig7_L{L}.csv")
            )
        return out
    raise UsageError(f"unknown preset {name!r}")


def _run_sweep(spec: SweepSpec) -> List[AsymptoticPoint]:
    workers = _workers(len(spec.alpha_grid))
    if workers <= 1:
        return sweep(spec)
    slices = [dataclasses.replace(spec, alpha_grid=(alpha,)) for alpha in spec.alpha_grid]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [point for points in pool.map(sweep, slices) for point in points]


def _open_out(path: str):
    return sys.stdout if path == "-" else path


def _load_config_args(argv: List[str]) -> List[str]:
    """Expand ``--config FILE`` into leading defaults (later args win)."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise UsageError("--config requires a file path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2:]
    injected: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line {line!r} (want key=value)")
                key, value = (part.strip() for part in line.split("=", 1))
                flag = "--" + key.replace("_", "-")
                if value.lower() in ("true", "false"):
                    if value.lower() == "true":
                        injected.append(flag)
                else:
                    injected += [flag, value]
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    # Keep the subcommand first, then config defaults, then explicit args.
    if rest and not rest[0].startswith("-"):
        return [rest[0]] + injected + rest[1:]
    return injected + rest


def _cmd_acc(args) -> int:
    triple = AccTriple(args.N, args.ai, args.ao, args.b)
    value = acc.acc_iotse(triple, args.mode)
    print(value if args.mode == "exact" else _fmt(value))
    return 0


def _cmd_acc_table(args) -> int:
    table = acc.acc_iotse_table(args.N, args.mode)
    emit_table_json(
        "iotse", {"N": args.N, "mode": args.mode}, table.entries, _open_out(args.out)
    )
    return 0


def _cmd_ensemble(args) -> int:
    config = EnsembleConfig(q=args.q, K=args.K, L=args.L)
    result = ensemble.ensemble_tse(config, TrappingSetClass(args.a, args.b), args.mode)
    print(result.value if args.mode == "exact" else _fmt(result.value))
    return 0


def _cmd_ensemble_table(args) -> int:
    config = EnsembleConfig(q=args.q, K=args.K, L=args.L)
    table = ensemble.ensemble_table(config, args.mode)
    params = {"q": args.q, "K": args.K, "L": args.L, "N": config.N, "mode": args.mode}
    emit_table_json("ensemble_tse", params, table, _open_out(args.out))
    return 0


def _cmd_asym_point(args) -> int:
    split = _parse_split(args.split)
    query = AsymptoticQuery(q=args.q, L=args.L, alpha=args.alpha, beta=args.beta, split=split)
    point = r_point(query, grid_points=args.grid_points)
    if not point.feasible:
        print("infeasible query: no admissible witness", file=sys.stderr)
        return 2
    print(f"r={_fmt(point.r)}")
    print(f"omega={_fmt(point.witness.omega)}")
    for i, lv in enumerate(point.witness.levels, start=1):
        print(
            f"level{i}: alpha_o={_fmt(lv.alpha_o)} beta={_fmt(lv.beta)} "
            f"mu={_fmt(lv.mu)} nu={_fmt(lv.nu)}"
        )
    return 0


def _cmd_asym_sweep(args) -> int:
    if args.preset:
        os.makedirs(args.out_dir, exist_ok=True)
        jobs = [(spec, os.path.join(args.out_dir, filename))
                for spec, filename in preset_sweeps(args.preset)]
    elif args.delta is None:
        raise UsageError("asym-sweep needs --delta (or --preset)")
    else:
        split = _parse_split(args.split)
        spec = SweepSpec(
            delta=args.delta,
            alpha_grid=_alpha_grid(args.alpha_min, args.alpha_max, args.alpha_steps),
            q=args.q, L=args.L, split=split, grid_points=args.grid_points,
        )
        jobs = [(spec, _open_out(args.out))]
    for spec, destination in jobs:
        emit_sweep_csv(spec, _run_sweep(spec), destination)
    return 0


def _cmd_oracle(args) -> int:
    if args.which in ("trellis", "exhaustive"):
        if args.N is None:
            raise UsageError(f"oracle --which {args.which} needs --N")
        table = oracles.trellis_dp(args.N) if args.which == "trellis" else oracles.exhaustive_acc(args.N)
        emit_table_json(
            "iotse", {"N": args.N, "method": args.which}, table.entries, _open_out(args.out)
        )
        return 0
    if args.q is None or args.K is None or args.L is None:
        raise UsageError("oracle --which graph needs --q --K --L")
    config = EnsembleConfig(q=args.q, K=args.K, L=args.L)
    table = oracles.graph_ensemble_average(config)
    params = {"q": args.q, "K": args.K, "L": args.L, "N": config.N, "method": "graph"}
    emit_table_json("ensemble_tse", params, table, _open_out(args.out))
    return 0


def _cmd_verify(args) -> int:
    given = {f: getattr(args, f) for f in _LIMIT_FLAGS.values() if getattr(args, f) is not None}
    base = _QUICK_LIMITS if args.quick else oracles.VerifyLimits()
    report = oracles.verify_all(dataclasses.replace(base, **given))
    for comparison in report.comparisons:
        if comparison.ok:
            print(f"OK {comparison.name} ({comparison.checked} keys)")
        else:
            m = comparison.mismatch
            print(f"MISMATCH {comparison.name} at {m.key}: {m.lhs} != {m.rhs}")
    if args.out:
        _write(report.to_json() + "\n", args.out)
    return 3 if report.mismatch_count else 0


_DISPATCH = {
    "acc": _cmd_acc,
    "acc-table": _cmd_acc_table,
    "ensemble": _cmd_ensemble,
    "ensemble-table": _cmd_ensemble_table,
    "asym-point": _cmd_asym_point,
    "asym-sweep": _cmd_asym_sweep,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


def run(argv: Sequence[str]) -> int:
    """Parse, dispatch, and map every failure onto the exit-code contract."""
    parser = build_parser()
    try:
        args = parser.parse_args(_load_config_args(list(argv)))
        return _DISPATCH[args.command](args)
    except (UsageError, RangeError, DomainError, ResourceLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return 0 if code in (0, None) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
