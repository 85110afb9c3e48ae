"""Tests of the span tracer.  The traced run happens in a child interpreter,
so the library's bindings in the test process stay untouched."""

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Span, self_times  # noqa: E402

CONFIG = """
[global]
seed = 1
output = {output}

[nf]
kind = normal-form
terms = x | 2*cos(theta)
sizes = 16, 36, 64
"""


def span(i, name, start, end, parent=None, thread=1):
    return Span(i, name, start, end, parent, thread, "run", False, None)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        span(0, "spectra.sv_symbol_residual", 0.0, 10.0),
        # two pool workers, overlapping on [3, 5]
        span(1, "spectra.singular_values", 1.0, 5.0, parent=0, thread=2),
        span(2, "spectra.singular_values", 3.0, 8.0, parent=0, thread=3),
        span(3, "matrices.seq_call", 1.0, 2.0, parent=1, thread=2),
    ]
    st = self_times(spans)
    assert st == {0: 3.0, 1: 3.0, 2: 5.0, 3: 1.0}


def test_traced_run_reaches_every_binding(tmp_path):
    config = tmp_path / "config.ini"
    config.write_text(CONFIG.format(output=tmp_path / "report.csv"), encoding="utf-8")
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(config), "--spawned", repr(time.monotonic()),
         "--trace", str(spans_path), "--run-id", "test"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["exit_code"] == 0 and out["traceback"] is None
    layers = out["layers"]
    # acs_equivalent looks p_metric up in acs; one call per ladder size
    assert layers["acs.p_metric.calls"] == 3
    assert layers["acs.p_metric.n3"] == 16**3 + 36**3 + 64**3
    assert layers["spectra.eigenvalues.calls"] == 3
    assert all(layers[f"{m}.errors"] == 0 for m in ("symbols", "matrices", "spectra", "acs",
                                                     "normal_form", "cli"))
    recorded = json.loads(spans_path.read_text(encoding="utf-8"))
    names = {row[recorded["fields"].index("name")] for row in recorded["spans"]}
    # reached through cli.RUNNERS, `from ... import` bindings in cli and
    # normal_form, and the NormalForm method
    assert {"cli.main", "cli.run_normal_form", "normal_form.verify_normal_form",
            "acs.acs_equivalent", "matrices.q_block", "matrices.d_af",
            "normal_form.NormalForm.matrix", "matrices.seq_call"} <= names
