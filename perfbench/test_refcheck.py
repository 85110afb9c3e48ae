"""Tests of the report comparator, with the tolerance BENCHMARK.json records."""

import csv
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from refcheck import (  # noqa: E402
    DEFAULT_SEED,
    HEADER,
    check_report,
    expected_exit,
    parse_report,
    reference_path,
)
from workloads import WORKLOADS  # noqa: E402

_COMMAND = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["command"]
RTOL = float(_COMMAND[_COMMAND.index("--rtol") + 1])
ATOL = float(_COMMAND[_COMMAND.index("--atol") + 1])


def to_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    for r in rows:
        bound = "" if r.bound is None else format(r.bound, ".17g")
        writer.writerow([r.experiment, r.n, r.metric, format(r.value, ".17g"), bound, r.verdict])
    return buf.getvalue()


def reference(workload):
    return parse_report(reference_path(workload).read_text(encoding="utf-8"))


def check(workload, rows, exit_code=None, seed=DEFAULT_SEED):
    code = expected_exit(reference(workload)) if exit_code is None else exit_code
    return check_report(workload, seed, to_text(rows), code, RTOL, ATOL)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_accepts_itself(workload):
    assert check(workload, reference(workload)) == []


def test_small_sweep_reference_exits_one():
    # alt_identity FAILs by design, so the whole report exits 1
    assert expected_exit(reference("small-sweep")) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_flipped_verdict_is_rejected(workload):
    rows = reference(workload)
    i = next(i for i, r in enumerate(rows) if r.verdict == "PASS")
    rows[i] = replace(rows[i], verdict="FAIL")
    problems = check(workload, rows)
    assert any("verdict FAIL, reference PASS" in p for p in problems)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_value_beyond_tolerance_is_rejected(workload):
    rows = reference(workload)
    i = max(range(len(rows)), key=lambda i: abs(rows[i].value))
    v = rows[i].value
    rows[i] = replace(rows[i], value=v + 2 * (ATOL + RTOL * abs(v)))
    problems = check(workload, rows)
    assert len(problems) == 1 and "value" in problems[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_roundoff_drift_is_accepted(workload):
    # between OPENBLAS_NUM_THREADS=1 and 2 the reference reports drift by
    # at most 5e-13 relative on values above 1e-3 and 1.1e-15 absolute
    rows = [
        replace(r, value=r.value * (1 + (-1) ** k * 5e-13) + (-1) ** k * 2e-15)
        for k, r in enumerate(reference(workload))
    ]
    assert check(workload, rows) == []


def test_missing_row_is_rejected():
    rows = reference("acs-normal-form")[:-1]
    assert any("row set" in p for p in check("acs-normal-form", rows))


def test_unexpected_exit_code_is_rejected():
    problems = check("acs-normal-form", reference("acs-normal-form"), exit_code=1)
    assert problems == ["exit code 1, expected 0"]


def test_other_seed_is_held_to_the_contract():
    rows = reference("spectral-ladder")
    # other seeds move values and the hat labels, not the row keys
    moved = [replace(r, value=r.value * 1.5, metric=r.metric.replace("c=", "c=9")) for r in rows]
    assert check("spectral-ladder", moved, seed=DEFAULT_SEED + 1) == []
    moved[0] = replace(moved[0], value=float("nan"))
    assert check("spectral-ladder", moved, seed=DEFAULT_SEED + 1) != []
    assert check("spectral-ladder", moved[1:], seed=DEFAULT_SEED + 1) != []
