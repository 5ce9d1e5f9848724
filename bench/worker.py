"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --t0 T --workload W --seed S --trace 0|1 --pass-id P
    python3 bench/worker.py --t0 T --setup-only

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from then until ``import rma_tse`` (numpy and
scipy included) completes.  A pass runs every op, timed, then checks every
output against its reference, untimed.  Times are reported raw and scaled
to a fixed CPU speed (``speed.py``).  The last stdout line is a JSON record
of the pass.
"""

import os
import sys
import time

from speed import CAL_SAMPLES, Speedometer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

SETUP_SPEED = Speedometer()
with SETUP_SPEED.sampling():
    import rma_tse  # noqa: E402  (set-up ends here)

SETUP_END = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def execute(ops, tracer=None):
    """Run every op in order; an op that raises is recorded, not fatal.

    Returns (outputs, errors, per-op seconds, times, peak_rss_mb), where
    ``times`` holds the pass's wall and CPU seconds, scaled (``wall_s``,
    ``cpu_s``, without the sampling handler's time) and raw
    (``raw_wall_s``, ``raw_cpu_s``), and its median ``speed`` factor.
    """
    speed = Speedometer()
    speed.calibrate()
    outputs, errors, seconds = [], [], []
    times = dict.fromkeys(("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s"), 0.0)
    factors = []
    if tracer is not None:
        tracer.active = True
    for op in ops:
        first = len(speed.samples) - CAL_SAMPLES
        in_handler = speed.in_handler_s
        cpu0 = _cpu_s()
        start = time.perf_counter()
        with speed.sampling():
            try:
                outputs.append(op.run())
                errors.append(None)
            except Exception as exc:  # a failing op counts as failed; the pass goes on
                outputs.append(None)
                errors.append(f"{type(exc).__name__}: {exc}"[:300])
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
        in_handler = speed.in_handler_s - in_handler
        speed.calibrate()
        factor = speed.factor(first)
        factors.append(factor)
        seconds.append(wall)
        times["raw_wall_s"] += wall
        times["raw_cpu_s"] += cpu
        times["wall_s"] += (wall - in_handler) * factor
        times["cpu_s"] += (cpu - in_handler) * factor
    if tracer is not None:
        tracer.active = False
    times["speed"] = statistics.median(factors)
    return outputs, errors, seconds, times, _peak_rss_mb()


def check_all(ops, outputs, errors):
    """Reason for each failed op (None when its output checks out)."""
    import checks

    failures = []
    for op, out, err in zip(ops, outputs, errors):
        if err is None:
            try:
                op.check(out)
            except checks.CheckFailed as exc:
                err = f"check: {exc}"[:300]
            except Exception as exc:  # a malformed output is a failed check
                err = f"check: {type(exc).__name__}: {exc}"[:300]
        failures.append(err)
    return failures


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-id", default="0")
    parser.add_argument("--spans", default=None, help="write the pass's spans here")
    args = parser.parse_args()

    expected = os.path.join(ROOT, "src", "rma_tse", "__init__.py")
    if os.path.realpath(rma_tse.__file__) != os.path.realpath(expected):
        sys.exit(f"rma_tse imported from {rma_tse.__file__}, not from {expected}")
    raw_setup = SETUP_END - args.t0
    SETUP_SPEED.calibrate()
    record = {"setup_s": (raw_setup - SETUP_SPEED.in_handler_s) * SETUP_SPEED.factor(),
              "raw_setup_s": raw_setup}
    if args.setup_only:
        record["versions"] = _versions()
        print(json.dumps(record))
        return

    import checks
    import workloads
    from spans import Tracer

    ops = workloads.build(args.workload, args.seed, checks.load_refs(args.workload))
    print(json.dumps({"ops": len(ops)}), flush=True)
    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}:{args.seed}:{args.pass_id}")
        tracer.install()
    outputs, errors, seconds, times, peak = execute(ops, tracer)
    start = time.perf_counter()
    failures = check_all(ops, outputs, errors)
    check_s = time.perf_counter() - start

    bytes_out = sum(len(o.stdout.encode("utf-8")) for o in outputs
                    if isinstance(o, checks.CliResult))
    record.update({
        **times, "peak_rss_mb": peak, "check_s": check_s,
        "attempted": len(ops), "failed": sum(f is not None for f in failures),
        "ops": [{"name": op.name, "s": s, "error": f}
                for op, s, f in zip(ops, seconds, failures)],
        "counters": {"cli.bytes_out": bytes_out},
    })
    if tracer is not None:
        record["layers"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
