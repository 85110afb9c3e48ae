"""Correctness gate for `glt-lab run` reports.

A report produced with the default seed is compared against the stored
reference for its workload: same row keys in the same order, identical
verdicts, values and bounds equal within a fixed roundoff tolerance, and the
exit code the reference implies.  Reports from other seeds have no stored
values; they are held to the report contract instead: the reference's row
keys once the seed-dependent hat labels are masked, finite values, known
verdicts and an exit code that agrees with the verdicts.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

HEADER = ["experiment", "n", "metric", "value", "bound", "verdict"]
VERDICTS = ("PASS", "FAIL", "N/A")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0

# hat labels carry centres and widths scaled by the symbol's size, so they
# move with the seed; every other part of a metric name is fixed by the config
_HAT_LABEL = re.compile(r"hat\([^)]*\)")


@dataclass(frozen=True)
class Row:
    experiment: str
    n: int
    metric: str
    value: float
    bound: float | None
    verdict: str

    @property
    def key(self):
        return (self.experiment, self.n, self.metric)

    @property
    def masked_key(self):
        return (self.experiment, self.n, _HAT_LABEL.sub("hat", self.metric))


def parse_report(text: str) -> list:
    """Rows of a CSV report; raises ValueError on a malformed report."""
    records = list(csv.reader(io.StringIO(text)))
    if not records or records[0] != HEADER:
        raise ValueError(f"report header is {records[0] if records else 'missing'}")
    rows = []
    for rec in records[1:]:
        if len(rec) != len(HEADER):
            raise ValueError(f"report row {rec} has {len(rec)} fields")
        exp, n, metric, value, bound, verdict = rec
        rows.append(Row(exp, int(n), metric, float(value), float(bound) if bound else None, verdict))
    return rows


def expected_exit(rows) -> int:
    """The CLI contract: exit 1 when any row FAILs, else 0."""
    return 1 if any(r.verdict == "FAIL" for r in rows) else 0


def close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def compare(rows, ref_rows, rtol: float, atol: float) -> list:
    """Differences between a report and its reference, as messages."""
    if [r.key for r in rows] != [r.key for r in ref_rows]:
        got, want = {r.key for r in rows}, {r.key for r in ref_rows}
        return [f"row set differs: {len(rows)} rows vs {len(ref_rows)} in the reference; "
                f"missing {sorted(want - got)[:3]}, extra {sorted(got - want)[:3]}"]
    problems = []
    for r, ref in zip(rows, ref_rows):
        if r.verdict != ref.verdict:
            problems.append(f"{r.key}: verdict {r.verdict}, reference {ref.verdict}")
        if not close(r.value, ref.value, rtol, atol):
            problems.append(f"{r.key}: value {r.value!r}, reference {ref.value!r}")
        if (r.bound is None) != (ref.bound is None) or (
            r.bound is not None and not close(r.bound, ref.bound, rtol, atol)
        ):
            problems.append(f"{r.key}: bound {r.bound!r}, reference {ref.bound!r}")
    return problems


def check_contract(rows, ref_rows) -> list:
    """Seed-independent checks for reports without stored values."""
    problems = []
    if sorted(r.masked_key for r in rows) != sorted(r.masked_key for r in ref_rows):
        problems.append(f"row set differs from the workload's: {len(rows)} rows vs {len(ref_rows)}")
    for r in rows:
        if r.verdict not in VERDICTS:
            problems.append(f"{r.key}: unknown verdict {r.verdict!r}")
        if not math.isfinite(r.value) or (r.bound is not None and not math.isfinite(r.bound)):
            problems.append(f"{r.key}: non-finite value or bound")
    return problems


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.csv"


def check_report(workload: str, seed: int, text: str, exit_code: int, rtol: float, atol: float) -> list:
    """All problems with one run's report and exit code; empty when correct."""
    ref_rows = parse_report(reference_path(workload).read_text(encoding="utf-8"))
    try:
        rows = parse_report(text)
    except ValueError as exc:
        return [f"malformed report: {exc}"]
    if seed == DEFAULT_SEED:
        problems = compare(rows, ref_rows, rtol, atol)
        want = expected_exit(ref_rows)
    else:
        problems = check_contract(rows, ref_rows)
        want = expected_exit(rows)
    if exit_code != want:
        problems.append(f"exit code {exit_code}, expected {want}")
    return problems
