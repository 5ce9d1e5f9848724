"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py [workload ...]

For each workload it runs one pass of the op list in this interpreter,
then checks the outputs three ways:

1. against the stored references: no op may fail;
2. against a copy of the references with every stored value corrupted:
   every op must fail;
3. with one op's output perturbed at a time, against the true references:
   exactly that op must fail.  An r point is perturbed twice: once in r,
   and once into a self-consistent point of a shifted alpha whose r is not
   lower, which only the comparison with the query's alpha can catch.

Only the copies held here are corrupted; ``src/`` and ``refs/`` are never
touched.  Exits 1 if any expectation is not met.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from fractions import Fraction

import worker  # puts the checkout's src/ first on sys.path and imports rma_tse
import checks
import workloads
from checks import CliResult

NUDGE = 1e-3


def corrupt(value):
    """A copy of a reference tree with every stored value moved.

    In a list of scalars, such as a table entry (key..., value) or an f_acc
    pool entry (inputs..., value), only the last element is the value.
    """
    if isinstance(value, dict):
        return {k: corrupt(v) for k, v in value.items()}
    if isinstance(value, list):
        if value and all(not isinstance(v, (list, dict)) for v in value):
            return value[:-1] + [corrupt(value[-1])]
        return [corrupt(v) for v in value]
    if isinstance(value, str):
        return value[:-1] + ("0" if value[-1] != "0" else "1")
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + NUDGE
    raise TypeError(type(value))


def _perturb_text(text: str) -> str:
    if text.startswith("{"):
        payload = json.loads(text)
        entry = payload["entries"][0]
        raw = entry["value"]
        if "/" in raw or raw.lstrip("-").isdigit():
            entry["value"] = str(Fraction(raw) + 1)
        else:
            entry["value"] = repr(float(raw) + NUDGE)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if text.startswith("OK "):
        return "MISMATCH" + text[2:]
    lines = text.splitlines()  # sweep CSV: move r (and r_clamped) of the first row
    cells = lines[2].split(",")
    r = float(cells[2]) + NUDGE
    cells[2], cells[3] = format(r, ".9g"), format(max(r, 0.0), ".9g")
    lines[2] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _shift_alpha(point):
    """The point's witness moved to answer alpha +- NUDGE instead.

    The last level's alpha_o and the point's alpha move together, so the
    witness still meets alpha = omega/q + sum alpha_o, and r is re-evaluated
    from it; of the two directions, the one with the larger r is kept.
    """
    w = point.witness
    q = round(w.omega / (point.alpha - sum(lv.alpha_o for lv in w.levels)))
    moved = []
    for step in (NUDGE, -NUDGE):
        levels = w.levels[:-1] + (dataclasses.replace(w.levels[-1],
                                                      alpha_o=w.levels[-1].alpha_o + step),)
        r = checks.reevaluate_r(q, w.omega, [(lv.alpha_o, lv.beta) for lv in levels])
        moved.append(dataclasses.replace(point, alpha=point.alpha + step, r=r,
                                         witness=dataclasses.replace(w, levels=levels)))
    return max(moved, key=lambda p: p.r)


def perturbations(output) -> list:
    """Copies of one op's output, each with one value moved."""
    if isinstance(output, CliResult):
        return [dataclasses.replace(output, stdout=_perturb_text(output.stdout))]
    if isinstance(output, Fraction):
        return [output + 1]
    if isinstance(output, float):
        return [output + NUDGE]
    if isinstance(output, list):  # f_acc results: move the first finite value
        i = next(i for i, r in enumerate(output) if r.value > float("-inf"))
        return [output[:i] + [dataclasses.replace(output[i], value=output[i].value + NUDGE)]
                + output[i + 1:]]
    if hasattr(output, "breakdown"):
        return [dataclasses.replace(output, value=output.value + NUDGE)]
    if hasattr(output, "witness"):
        return [dataclasses.replace(output, r=output.r + NUDGE), _shift_alpha(output)]
    raise TypeError(type(output))


def error_frac(failures) -> float:
    return sum(f is not None for f in failures) / len(failures)


def selftest(workload: str, seed: int = 1) -> list:
    problems = []
    refs = checks.load_refs(workload)
    ops = workloads.build(workload, seed, refs)
    outputs, errors, *_ = worker.execute(ops)

    clean = worker.check_all(ops, outputs, errors)
    print(f"{workload}: {len(ops)} ops, error_frac {error_frac(clean):.3f} on true references")
    problems += [f"{workload}: {op.name} fails on true references: {f}"
                 for op, f in zip(ops, clean) if f is not None]

    bad_ops = workloads.build(workload, seed, corrupt(copy.deepcopy(refs)))
    corrupted = worker.check_all(bad_ops, outputs, errors)
    print(f"{workload}: error_frac {error_frac(corrupted):.3f} on corrupted references")
    problems += [f"{workload}: {op.name} passes on corrupted references"
                 for op, f in zip(ops, corrupted) if f is None]

    for i, op in enumerate(ops):
        for variant in perturbations(outputs[i]):
            moved = outputs[:i] + [variant] + outputs[i + 1:]
            failures = worker.check_all(ops, moved, errors)
            hit = [j for j, f in enumerate(failures) if f is not None]
            print(f"{workload}: perturbed {op.name!r}: error_frac {error_frac(failures):.3f}"
                  f" ({failures[i]})")
            if hit != [i]:
                problems.append(f"{workload}: perturbing {op.name} failed ops {hit}")
    return problems


def main(names) -> int:
    problems = []
    for name in names or workloads.NAMES:
        problems += selftest(name)
    for line in problems:
        print(f"PROBLEM {line}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
