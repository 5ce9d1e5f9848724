"""Correctness checks of benchmark outputs against stored references.

Each check raises ``CheckFailed`` with a reason.  The references in
``refs/`` were produced from the seed code by ``make_refs.py``:

* exact output is pinned by the sha256 of its bytes;
* log values must match within 1e-8 relative on the count, the tier-1
  tolerance, i.e. |exp(got - ref) - 1| <= 1e-8;
* ``f_acc`` values must match within 1e-9;
* an r value must be reproduced from its own witness through the public
  ``f_rep``, ``f_acc`` and ``binary_entropy``, and may not fall below the
  reference by more than 1e-6 (r is a supremum: a better optimizer may raise
  it, never lower it).  Sweep CSV bytes are not pinned.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
from dataclasses import dataclass

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

LOG_TOL = 1e-8
FACC_TOL = 1e-9
R_FLOOR_TOL = 1e-6
R_REEVAL_TOL = 1e-9
# Sweep CSV cells carry 9 significant digits, so a witness read back from
# the CSV reproduces r only to about 1e-9 of each cell's magnitude.
R_REEVAL_CSV_TOL = 1e-8
WITNESS_TOL = 1e-10
WITNESS_CSV_TOL = 1e-8


class CheckFailed(Exception):
    """An output disagrees with its reference."""


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def load_refs(workload: str) -> dict:
    with gzip.open(os.path.join(REFS_DIR, f"{workload}.json.gz"), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def check_cli_exit(result: CliResult) -> None:
    require(result.code == 0, f"exit code {result.code}: {result.stderr.strip()[:200]}")


def check_sha(result: CliResult, expected: str) -> None:
    check_cli_exit(result)
    require(sha256(result.stdout) == expected, "output sha256 differs from the reference")


def check_verify(result: CliResult, expected_sha: str) -> None:
    check_cli_exit(result)
    lines = result.stdout.splitlines()
    require(bool(lines) and all(line.startswith("OK ") for line in lines),
            "a verify comparison is not OK")
    require(sha256(result.stdout) == expected_sha, "verify report differs from the reference")


def check_fraction(value, expected_sha: str) -> None:
    require(sha256(str(value)) == expected_sha, "exact value differs from the reference")


def log_close(got: float, ref: float) -> bool:
    if ref == -math.inf or got == -math.inf:
        return got == ref
    return abs(math.expm1(got - ref)) <= LOG_TOL


def check_log_value(got: float, ref: float) -> None:
    require(log_close(got, ref), f"log value {got!r} differs from reference {ref!r}")


def check_log_table(result: CliResult, ref_entries: list) -> None:
    """Every (key, ln value) of a log-mode table JSON against the reference."""
    check_cli_exit(result)
    payload = json.loads(result.stdout)
    got = {tuple(e["key"]): float(e["value"]) for e in payload["entries"]}
    ref = {tuple(e[:-1]): e[-1] for e in ref_entries}
    require(got.keys() == ref.keys(), f"table keys differ ({len(got)} vs {len(ref)} entries)")
    for key, value in got.items():
        require(log_close(value, ref[key]), f"entry {key}: {value!r} vs reference {ref[key]!r}")


def reevaluate_r(q: int, omega: float, levels) -> float:
    """r at a witness, from the definition of the spectral shape.

    ``levels`` holds (alpha_o, beta) per accumulator; level 1 takes omega
    as its input fraction and level l > 1 takes alpha_o of level l - 1.
    """
    from rma_tse import asymptotic, combinatorics

    total = asymptotic.f_rep(omega, q) - combinatorics.binary_entropy(omega)
    a_in = omega
    for index, (alpha_o, beta) in enumerate(levels):
        total += asymptotic.f_acc(asymptotic.AccShapeArgs(a_in, alpha_o, beta)).value
        if index < len(levels) - 1:
            total -= combinatorics.binary_entropy(alpha_o)
        a_in = alpha_o
    return total


def check_r(q: int, alpha: float, beta: float, split, r: float, omega: float, levels,
            r_ref: float, csv: bool = False) -> None:
    """One r value with its witness: constraints, re-evaluation, floor.

    ``split`` is None for a free split, else the fixed fractions.
    """
    w_tol = WITNESS_CSV_TOL if csv else WITNESS_TOL
    require(math.isfinite(r), f"r={r!r} is not finite")
    require(abs(omega / q + sum(ao for ao, _ in levels) - alpha) <= w_tol,
            "witness violates alpha = omega/q + sum alpha_o")
    require(abs(sum(b for _, b in levels) - beta) <= w_tol, "witness violates beta = sum beta_l")
    if split is not None:
        require(all(abs(b - f * beta) <= w_tol for (_, b), f in zip(levels, split)),
                "witness violates the fixed split")
    again = reevaluate_r(q, omega, levels)
    tol = R_REEVAL_CSV_TOL if csv else R_REEVAL_TOL
    require(abs(again - r) <= tol, f"witness gives r={again!r}, reported {r!r}")
    require(r >= r_ref - R_FLOOR_TOL, f"r={r!r} below the reference {r_ref!r}")


def check_point(point, q: int, alpha: float, beta: float, split, r_ref: float) -> None:
    """A point of the query (q, alpha, beta, split): its own alpha and beta,
    then its witness against the query's constraints."""
    require(abs(point.alpha - alpha) <= WITNESS_TOL and abs(point.beta - beta) <= WITNESS_TOL,
            f"point is at alpha={point.alpha!r}, beta={point.beta!r}; "
            f"the query asked alpha={alpha!r}, beta={beta!r}")
    require(point.witness is not None, "no witness returned")
    levels = [(lv.alpha_o, lv.beta) for lv in point.witness.levels]
    check_r(q, alpha, beta, split, point.r, point.witness.omega, levels, r_ref)


def check_sweep_csv(result: CliResult, q: int, L: int, split, header0: str, alphas,
                    delta: float, r_refs) -> None:
    """A fixed-split sweep CSV: metadata, header, alpha grid and every row."""
    check_cli_exit(result)
    lines = result.stdout.splitlines()
    require(lines[0] == header0, f"metadata line {lines[0]!r}")
    columns = ["alpha", "beta", "r", "r_clamped", "omega"]
    for level in range(1, L + 1):
        columns += [f"alpha_o_{level}", f"beta_{level}", f"mu_{level}", f"nu_{level}"]
    require(lines[1] == ",".join(columns), "CSV header differs")
    rows = lines[2:]
    require(len(rows) == len(alphas), f"{len(rows)} rows, expected {len(alphas)}")
    for row, alpha, r_ref in zip(rows, alphas, r_refs):
        cells = [float(c) for c in row.split(",")]
        require(len(cells) == len(columns), "row has the wrong number of cells")
        a, b, r, r_clamped, omega = cells[:5]
        require(abs(a - alpha) <= 1e-8 * alpha, f"alpha {a!r} differs from {alpha!r}")
        require(abs(b - delta * alpha) <= 1e-8 * alpha, f"beta {b!r} at alpha {alpha!r}")
        require(r_clamped == max(r, 0.0), "r_clamped is not max(r, 0)")
        levels = [(cells[5 + 4 * i], cells[6 + 4 * i]) for i in range(L)]
        check_r(q, a, b, split, r, omega, levels, r_ref, csv=True)


def check_facc_values(results, refs) -> None:
    for i, (got, ref) in enumerate(zip(results, refs)):
        ref = -math.inf if ref is None else ref
        if ref == -math.inf or got.value == -math.inf:
            require(got.value == ref, f"call {i}: value {got.value!r} vs reference {ref!r}")
        else:
            require(abs(got.value - ref) <= FACC_TOL,
                    f"call {i}: value {got.value!r} vs reference {ref!r}")
    require(len(results) == len(refs), "wrong number of results")
