"""Correctness check of experiment results, beyond their ``passed`` flags.

Signal columns carry the measured quantities (errors, roots, norms).  At
seed 0 they are compared with the rows recorded in ``reference/`` by
``record_reference.py``.  Roundoff-level columns are checked against the
experiments' own tolerances on every seed, since a reference at roundoff
level would only record noise.
"""

from __future__ import annotations

import json
import math
import os

SIGNAL_COLUMNS = ("error", "z_root", "z_discrete", "resolvent_norm", "rel_error")
# line_models keeps both kinds of quantity in one ``value`` column
SIGNAL_KINDS = {"model_error"}
ROUNDOFF_TOLS = {
    "additivity": 1e-11,
    "symmetry": 1e-12,
    "deviation": 1e-12,
    "residual": 1e-9,
    "symbol_defect": 1e-10,
}
# Far above the same-code spread (bands eigenvalues move by up to 6e-12
# between runs, because ARPACK draws a fresh start vector per eigsh call, and
# the power iterations stop at a relative tolerance of 1e-8) and far below
# any change of a measured error that matters.
RTOL = 1e-6
ATOL = 1e-14

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def signals(rows: list[dict]) -> dict[str, list]:
    """Signal values per column, aligned with ``rows`` (None where absent)."""
    out: dict[str, list] = {}
    for i, row in enumerate(rows):
        for col in SIGNAL_COLUMNS:
            if col in row:
                out.setdefault(col, [None] * len(rows))[i] = float(row[col])
        if row.get("kind") in SIGNAL_KINDS:
            out.setdefault("value", [None] * len(rows))[i] = float(row["value"])
    return out


def _roundoff(row: dict):
    for col, tol in ROUNDOFF_TOLS.items():
        if col in row:
            yield col, float(row[col]), tol
    if row.get("kind") in ROUNDOFF_TOLS:
        yield row["kind"], float(row["value"]), ROUNDOFF_TOLS[row["kind"]]


def problems(result, expected: dict | None) -> list[str]:
    """Reasons ``result`` is wrong; empty when it passes every check.

    ``expected`` is the reference entry of this experiment ({"rows": count,
    "signals": {column: values}}), or None where no reference applies.
    """
    out = [] if result.passed else ["experiment reported passed=False"]
    for i, row in enumerate(result.rows):
        for col, value, tol in _roundoff(row):
            if not value <= tol:
                out.append(f"row {i}: {col} = {value:.3e} above {tol:.0e}")
    got = signals(result.rows)
    for col, values in got.items():
        bad = [i for i, v in enumerate(values) if v is not None and not math.isfinite(v)]
        if bad:
            out.append(f"{col}: non-finite at rows {bad[:5]}")
    if expected is None:
        return out
    if len(result.rows) != expected["rows"]:
        return out + [f"{len(result.rows)} rows, reference has {expected['rows']}"]
    if set(got) != set(expected["signals"]):
        return out + [f"signal columns {sorted(got)}, reference {sorted(expected['signals'])}"]
    for col, ref_values in expected["signals"].items():
        for i, (v, r) in enumerate(zip(got[col], ref_values)):
            if (v is None) != (r is None):
                out.append(f"row {i}: {col} present in only one of result and reference")
            elif v is not None and not abs(v - r) <= RTOL * max(abs(v), abs(r)) + ATOL:
                out.append(f"row {i}: {col} = {v!r}, reference {r!r}")
    return out


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> list[dict]:
    """Per-experiment reference entries of a workload at seed 0, in run order."""
    with open(reference_path(workload)) as fh:
        return json.load(fh)["experiments"]
