"""Tier-1 timing record: total wall time and per-criterion time with setup.

    python3 bench/tier1.py

A one-off mode, outside the timed workloads.  Runs the tier-1 command of
ROADMAP.md with ``--durations=0`` from the checkout root and records the
total wall time and, for each acceptance criterion, the sum of its setup,
call and teardown phases.  A module-scoped fixture is set up in the first
test that uses it, so that test's setup carries the fixture's cost (for
criterion 7, the fig4 sweeps its own body timer does not see).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

from run import PINS, _git_commit  # noqa: E402

DURATION = re.compile(r"^\s*([0-9.]+)s (setup|call|teardown)\s+(\S+)")
CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def parse(text: str) -> dict:
    """Per-test phase seconds from pytest's --durations=0 report."""
    tests: dict = {}
    for line in text.splitlines():
        m = DURATION.match(line)
        if m:
            seconds, phase, node = float(m.group(1)), m.group(2), m.group(3)
            tests.setdefault(node, {})[phase] = seconds
    return tests


def criteria(tests: dict) -> dict:
    out = {}
    for node, phases in tests.items():
        m = CRITERION.search(node)
        if m:
            out[f"criterion_{int(m.group(1)):02d}"] = {
                "test": node, **phases, "total_s": sum(phases.values())}
    return dict(sorted(out.items()))


def main() -> int:
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.monotonic() - started
    tests = parse(proc.stdout)
    summary = next((line for line in reversed(proc.stdout.splitlines()) if " in " in line), "")
    record = {
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors "
                   "--durations=0",
        "environment": {"commit": _git_commit(), "nproc": os.cpu_count(),
                        "python": sys.version.split()[0], "pins": PINS},
        "exit_code": proc.returncode,
        "summary": summary.strip("= "),
        "wall_s": wall,
        "sum_of_phases_s": sum(sum(p.values()) for p in tests.values()),
        "criteria": criteria(tests),
    }
    out = os.path.join(BENCH, "results", "tier1.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"{record['summary']}; wall {wall:.1f} s")
    for name, c in record["criteria"].items():
        print(f"{name}: {c['total_s']:.1f} s (setup {c.get('setup', 0.0):.1f} s)")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
