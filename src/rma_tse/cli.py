"""Command-line interface with bit-stable CSV/JSON emission.

Exit codes: 0 success, 1 usage or I/O error, 2 infeasible asymptotic query,
3 verification mismatch.  A ``--config`` file of ``key=value`` lines
supplies argument defaults (command line wins).  Only the ``asym-*``
commands import ``asymptotic``, and with it scipy.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import signal
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Sequence, Tuple, Union

from . import acc, ensemble, oracles
from .acc import AccTriple, ResourceLimitError
from .combinatorics import check_finite
from .ensemble import EnsembleConfig, TrappingSetClass

if TYPE_CHECKING:
    from .asymptotic import AsymptoticPoint, SplitPolicy, SweepSpec

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


class _Typed(argparse.Action):
    """Store the value and append the flag to ``args.typed``."""

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        setattr(namespace, self.dest, values)
        namespace.typed += (option_string,)


def _fmt(x: float) -> str:
    return format(x, ".9g")


def _write(pieces: Iterable[str], destination) -> None:
    """Write text pieces in order to an open stream, to stdout for ``"-"``,
    or to the file at a path (no newline translation)."""
    if destination == "-":
        destination = sys.stdout
    if hasattr(destination, "write"):
        for piece in pieces:
            destination.write(piece)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)


def emit_sweep_csv(spec: SweepSpec, points: Iterable[AsymptoticPoint], destination) -> None:
    """Write a sweep's points with a metadata comment line and a fixed header.

    Identical inputs produce byte-identical files: one metadata line, the
    header, then one row per point at 9 significant digits: alpha, beta, r,
    ``r_clamped = max(r, 0)``, omega, then the witness of each level.  The
    metadata's ``grid=`` is ``spec.grid_points``, the resolved points per
    axis.  A point without a witness gets NaN witness cells.
    ``destination`` is an open stream, a file path, or ``"-"`` for stdout.
    """
    L = spec.L
    header = ["alpha", "beta", "r", "r_clamped", "omega"]
    for level in range(1, L + 1):
        header += [f"alpha_o_{level}", f"beta_{level}", f"mu_{level}", f"nu_{level}"]
    lines = [
        f"# q={spec.q} L={L} delta={_fmt(spec.delta)} split={spec.split.describe()}"
        f" grid={spec.grid_points}",
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
    _write(["\n".join(lines) + "\n"], destination)


def _value_str(value) -> str:
    if isinstance(value, (int, Fraction)):
        return str(value)  # "5" or "2/3"
    return repr(float(value))  # log-mode tables carry ln values


# One entry of a table's JSON: a key of ints and a value string.
_ENTRY = '    {\n      "key": [\n        %s\n      ],\n      "value": %s\n    }'
_ENTRY_CHUNK = 1024  # entries per written piece


def _table_pieces(kind: str, params: Dict, entries: Dict) -> Iterator[str]:
    """The table's JSON text in pieces of up to ``_ENTRY_CHUNK`` entries."""
    rows = iter(sorted(entries.items()))
    yield '{\n  "entries": ' + ("[" if entries else "[]")
    separator = "\n"
    while chunk := ",\n".join(
        _ENTRY % (",\n        ".join(map(str, key)), encode_basestring_ascii(_value_str(value)))
        for key, value in itertools.islice(rows, _ENTRY_CHUNK)
    ):
        yield separator + chunk
        separator = ",\n"
    yield (
        ("\n  ]" if entries else "")
        + ',\n  "kind": ' + encode_basestring_ascii(kind)
        + ',\n  "params": ' + json.dumps(params, indent=2, sort_keys=True).replace("\n", "\n  ")
        + "\n}\n"
    )


def emit_table_json(kind: str, params: Dict, entries: Dict, destination) -> None:
    """Serialize a table as {"entries", "kind", "params"}, written directly.

    The fixed layout is that of ``json.dumps(payload, indent=2,
    sort_keys=True)`` plus a newline: entries in ascending key order, each
    ``{"key": [ints], "value": "string"}`` with one line per list element.
    Exact values are decimal integer or "num/den" strings, never floats.
    The entries are written ``_ENTRY_CHUNK`` at a time, so no string of the
    whole table is built.  ``destination`` is an open stream, a file path,
    or ``"-"`` for stdout.
    """
    _write(_table_pieces(kind, params, entries), destination)


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
    from .asymptotic import SplitPolicy

    if text == "free":
        return SplitPolicy.free()
    if text.startswith("fixed:"):
        try:
            fractions = tuple(float(p) for p in text[len("fixed:"):].split(","))
        except ValueError as exc:
            raise UsageError(f"bad split specification {text!r}") from exc
        return SplitPolicy.fixed(fractions)
    raise UsageError(f"split must be 'free' or 'fixed:f1,f2,...', got {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="tse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def command(name: str, run, summary: str, ints: Sequence[str], table: bool = False) -> _Parser:
        """A subcommand run by ``run(args)``, with required integer flags, then
        --mode (and --out for a table)."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        for flag in ints:
            p.add_argument("--" + flag, type=int, required=True)
        p.add_argument("--mode", choices=("exact", "log"), default="exact")
        if table:
            p.add_argument("--out", default="-")
        return p

    command("acc", _cmd_acc, "one accumulator trapping-set class count", ("N", "ai", "ao", "b"))
    command("acc-table", _cmd_acc_table, "all accumulator class counts for one N", ("N",),
            table=True)
    command("ensemble", _cmd_ensemble, "ensemble-average count of one (a, b) class",
            ("q", "K", "L", "a", "b"))
    command("ensemble-table", _cmd_ensemble_table, "all ensemble-average class counts",
            ("q", "K", "L"), table=True)

    p = sub.add_parser("asym-point", help="spectral shape r(alpha, beta)")
    p.set_defaults(run=_cmd_asym_point)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--split", default="free")
    p.add_argument("--grid-points", type=int, default=None)

    p = sub.add_parser("asym-sweep", help="constant-ratio spectral-shape sweep")
    p.set_defaults(run=_cmd_asym_sweep, typed=())
    source = p.add_mutually_exclusive_group()
    # A preset sets the whole sweep, so it takes none of the _Typed flags but
    # --out-dir, which only a preset takes.  A --config line only moves a
    # default, so it never counts as typed.
    p.add_argument("--q", type=int, default=3, action=_Typed)
    p.add_argument("--L", type=int, default=2, action=_Typed)
    source.add_argument("--delta", type=float, default=None, action=_Typed)
    p.add_argument("--alpha-min", type=float, default=0.01, action=_Typed)
    p.add_argument("--alpha-max", type=float, default=0.3, action=_Typed)
    p.add_argument("--alpha-steps", type=int, default=30, action=_Typed)
    p.add_argument("--split", default="free", action=_Typed)
    p.add_argument("--grid-points", type=int, default=None, action=_Typed)
    p.add_argument("--out", default="-", action=_Typed)
    source.add_argument("--preset", choices=sorted(_PRESETS), default=None)
    p.add_argument("--out-dir", default=".", action=_Typed)

    p = sub.add_parser("oracle", help="run one brute-force oracle")
    p.set_defaults(run=_cmd_oracle)
    p.add_argument("--which", choices=("trellis", "exhaustive", "graph"), required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--out", default="-")

    p = sub.add_parser("verify", help="cross-check every oracle equality")
    p.set_defaults(run=_cmd_verify)
    # No defaults here: VerifyLimits holds them, and a flag left out keeps the
    # base's value.  The metavar names the flag, as the help text always has.
    for flag, field in _LIMIT_FLAGS.items():
        p.add_argument(flag, dest=field, type=int, metavar=flag[2:].replace("-", "_").upper())
    p.add_argument("--quick", action="store_true",
                   help="shrink all limits for a fast smoke run")
    p.add_argument("--out", default=None)
    return parser


# (delta, q, L, split fractions, file name) of each sweep of each preset.
_PRESETS = {
    "fig4": [(d, 3, 2, (0.5, 0.5), f"fig4_delta{_fmt(d)}.csv") for d in (0.0, 0.05, 0.1, 0.2)],
    "fig5": [(0.1, 3, 2, (f1, 1.0 - f1), f"fig5_beta1_{_fmt(f1)}.csv")
             for f1 in (0.0, 0.25, 0.5, 0.75, 1.0)],
    "fig6": [(0.1, q, 2, (1.0, 0.0), f"fig6_q{q}.csv") for q in (2, 3, 4, 5)],
    "fig7": [(0.1, 3, L, (1.0,) + (0.0,) * (L - 1), f"fig7_L{L}.csv") for L in (2, 3, 4)],
}

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
    lo, hi = check_finite("--alpha-min", lo), check_finite("--alpha-max", hi)
    if steps == 1:
        return (lo,)
    step = (hi - lo) / (steps - 1)
    return tuple(lo + i * step for i in range(steps))


def preset_sweeps(name: str) -> List[Tuple[SweepSpec, str]]:
    """Figure-style sweep bundles (q defaults to 3 where unspecified)."""
    from .asymptotic import SplitPolicy, SweepSpec

    if name not in _PRESETS:
        raise UsageError(f"unknown preset {name!r}")
    grid = _alpha_grid(0.01, 0.3, 30)
    return [(SweepSpec(delta=d, alpha_grid=grid, q=q, L=L, split=SplitPolicy.fixed(split)), path)
            for d, q, L, split, path in _PRESETS[name]]


def _apply_config(parser: _Parser, argv: List[str]) -> List[str]:
    """Drop ``--config FILE`` (or ``--config=FILE``) from argv; each
    ``key=value`` line defaults the flag ``--key``.

    The defaults belong to the subcommand, so an explicit flag wins and a
    required flag may come from the file.  A line only moves a default: it
    runs no action, so ``asym-sweep`` never counts it as typed.
    """
    config = _Parser(add_help=False, allow_abbrev=False)
    config.add_argument("--config")
    options, argv = config.parse_known_args(argv)
    if options.config is None:
        return argv
    name = next((arg for arg in argv if not arg.startswith("-")), None)
    if name not in parser.commands:
        return argv  # argparse reports the missing or unknown subcommand
    command = parser.commands[name]
    flags = {flag: action for action in command._actions for flag in action.option_strings}
    with open(options.config, "r", encoding="utf-8") as fh:  # run() reports an OSError
        lines = [line.strip() for line in fh]
    defaults = {}
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line {line!r} (want key=value)")
        key, raw = (part.strip() for part in line.split("=", 1))
        action = flags.get("--" + key.replace("_", "-"))
        if action is None or action.dest == "help":
            raise UsageError(f"config key {key!r} names no flag of tse {name}")
        try:
            if action.nargs == 0:  # an on/off flag
                value = {"true": action.const, "false": action.default}[raw.lower()]
            else:
                value = action.type(raw) if action.type else raw
                if value not in (action.choices or [value]):
                    raise ValueError
        except (KeyError, ValueError):
            raise UsageError(f"config key {key!r}: bad value {raw!r}") from None
        action.required = False
        defaults[action.dest] = value
    command.set_defaults(**defaults)
    return argv


def _cmd_acc(args) -> int:
    triple = AccTriple(args.N, args.ai, args.ao, args.b)
    value = acc.acc_iotse(triple, args.mode)
    print(value if args.mode == "exact" else _fmt(value))
    return 0


def _cmd_acc_table(args) -> int:
    table = acc.acc_iotse_table(args.N, args.mode)
    emit_table_json("iotse", {"N": args.N, "mode": args.mode}, table.entries, args.out)
    return 0


def _cmd_ensemble(args) -> int:
    config = EnsembleConfig(q=args.q, K=args.K, L=args.L)
    result = ensemble.ensemble_tse(config, TrappingSetClass(args.a, args.b), args.mode)
    print(result.value if args.mode == "exact" else _fmt(result.value))
    return 0


def _cmd_ensemble_table(args) -> int:
    config = EnsembleConfig(q=args.q, K=args.K, L=args.L)
    table = ensemble.ensemble_table(config, args.mode)
    emit_table_json("ensemble_tse", {**dataclasses.asdict(config), "mode": args.mode}, table, args.out)
    return 0


def _cmd_asym_point(args) -> int:
    from . import asymptotic

    split = _parse_split(args.split)
    query = asymptotic.AsymptoticQuery(q=args.q, L=args.L, alpha=args.alpha, beta=args.beta,
                                       split=split)
    point = asymptotic.r_point(query, grid_points=args.grid_points)
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
    from . import asymptotic

    if args.preset:
        # Each flag once, in typed order; --out-dir is the preset's own flag.
        if typed := ", ".join(dict.fromkeys(f for f in args.typed if f != "--out-dir")):
            raise UsageError(f"--preset sets the whole sweep; it takes no {typed}")
        os.makedirs(args.out_dir, exist_ok=True)
        jobs = [(spec, os.path.join(args.out_dir, filename))
                for spec, filename in preset_sweeps(args.preset)]
    elif "--out-dir" in args.typed:
        raise UsageError("--out-dir needs --preset (one sweep goes to --out)")
    elif args.delta is None:
        raise UsageError("asym-sweep needs --delta (or --preset)")
    else:
        split = _parse_split(args.split)
        spec = asymptotic.SweepSpec(
            delta=args.delta,
            alpha_grid=_alpha_grid(args.alpha_min, args.alpha_max, args.alpha_steps),
            q=args.q, L=args.L, split=split, grid_points=args.grid_points,
        )
        jobs = [(spec, args.out)]
    for spec, destination in jobs:
        emit_sweep_csv(spec, asymptotic.sweep(spec), destination)
    return 0


def _cmd_oracle(args) -> int:
    if args.which in ("trellis", "exhaustive"):
        if args.N is None:
            raise UsageError(f"oracle --which {args.which} needs --N")
        table = oracles.trellis_dp(args.N) if args.which == "trellis" else oracles.exhaustive_acc(args.N)
        emit_table_json("iotse", {"N": args.N, "method": args.which}, table.entries, args.out)
        return 0
    if args.q is None or args.K is None or args.L is None:
        raise UsageError("oracle --which graph needs --q --K --L")
    config = EnsembleConfig(q=args.q, K=args.K, L=args.L)
    table = oracles.graph_ensemble_average(config)
    emit_table_json("ensemble_tse", {**dataclasses.asdict(config), "method": "graph"}, table, args.out)
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
    if args.out is not None:
        _write([report.to_json() + "\n"], args.out)
    return 3 if report.mismatch_count else 0


def run(argv: Sequence[str]) -> int:
    """Parse, dispatch, and map every failure onto the exit-code contract.

    ``RangeError`` and ``DomainError`` are ``ValueError``s, so they exit 1.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config(parser, list(argv)))
        return args.run(args)
    except (UsageError, ResourceLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return 0 if code in (0, None) else 1


def main() -> None:
    # A reader that closes stdout early (``tse acc-table | head``) ends tse
    # by SIGPIPE, as it ends any Unix filter, not with an error and exit 1.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
