"""Per-layer spans for a traced `glt-lab run`, recorded from outside the library.

`Tracer.install()` wraps the public functions of the six library modules and
rebinds every reference to them that the package holds: module globals,
including names brought in by `from ... import`, and the values of
module-level dicts such as the CLI's runner table.  Spans stay in memory and
are written out when the run ends.  The library itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

MODULES = ("symbols", "matrices", "spectra", "acs", "normal_form", "cli")

DECOMPOSITIONS = ("spectra.singular_values", "spectra.eigenvalues", "acs.p_metric")
LADDERS = ("spectra.sv_symbol_residual", "spectra.eig_symbol_residual", "acs.acs_equivalent")

# per-layer metrics and units; `<name>.calls` counts spans and `<name>.self_s`
# sums their self time (see `self_times`)
CALLS = (
    "spectra.singular_values", "spectra.eigenvalues", "spectra.symbol_functional",
    "spectra.empirical_functional", "acs.p_metric", "matrices.seq_call",
    "symbols.parse_expr", "cli.build_sequence",
)
SELF = CALLS + (
    "spectra.default_family",
    "normal_form.NormalForm.matrix", "normal_form.normal_form", "normal_form.group_embed",
    "normal_form.affine_shift_test", "normal_form.hermitian_function",
    "matrices.toeplitz", "matrices.circulant", "matrices.diag_sampling", "matrices.lt_op",
    "matrices.lc_op", "matrices.q_block", "matrices.d_af",
    "symbols.trig_poly_from_expr", "symbols.sample_symbol", "cli.load_config",
)
UNITS = {
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{name}.self_s": "s" for name in SELF},
    "spectra.decomp_n3": "count",
    "spectra.ladder_parallelism": "ratio",
    "acs.p_metric.n3": "count",
    "matrices.dense_bytes": "bytes",
    "symbols.sample_symbol.samples": "count",
    **{f"{module}.errors": "count" for module in MODULES},
}


def _n3(args, result):
    return float(np.shape(args[0])[0]) ** 3


def _nbytes(args, result):
    return float(result.nbytes) if isinstance(result, np.ndarray) else None


def _samples(args, result):
    return float(result.samples.size)


# what a span records besides its times, from the call's arguments and result
MEASURES = {
    "spectra.singular_values": _n3,
    "spectra.eigenvalues": _n3,
    "acs.p_metric": _n3,
    "symbols.sample_symbol": _samples,
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: str
    error: bool
    measure: float | None


class Tracer:
    """Wraps the library's public functions and records one span per call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        measure = _nbytes if name.startswith("matrices.") else MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool worker has an empty stack; its caller is whatever the
            # main thread has open, i.e. the ladder waiting on the pool
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            result, error = None, True
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = measure(args, result) if measure is not None and not error else None
                self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident(),
                                       self.run_id, error, value))

        return traced

    def install(self) -> None:
        """Wrap the public functions of every traced module and rebind them."""
        modules = {m: importlib.import_module(f"glt_lab.{m}") for m in MODULES}
        replace = {}
        for short, mod in modules.items():
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    replace[fn] = self.wrap(f"{short}.{attr}", fn)
        matrix_seq = modules["matrices"].MatrixSeq
        matrix_seq.__call__ = self.wrap("matrices.seq_call", matrix_seq.__call__)
        nf_cls = modules["normal_form"].NormalForm
        nf_cls.matrix = self.wrap("normal_form.NormalForm.matrix", nf_cls.matrix)
        # `glt_lab.normal_form` the attribute is the function that shadows
        # the module, so bindings are found through sys.modules
        for name, mod in list(sys.modules.items()):
            if name != "glt_lab" and not name.startswith("glt_lab."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in replace:
                            value[key] = replace[item]
                elif inspect.isfunction(value) and value in replace:
                    setattr(mod, attr, replace[value])


def _ancestors(span, by_id):
    parent = span.parent
    while parent is not None:
        up = by_id[parent]
        yield up
        parent = up.parent


def self_times(spans) -> dict:
    """Span id -> self time: its duration minus the part of its interval that
    child spans cover.  Children in pool threads count too, so a ladder
    waiting on its workers is not busy; children running in parallel are
    counted once.  The self times of parallel spans add up to CPU-side busy
    time, which may exceed the wall time."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = s.end - s.start - covered
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metric values from one traced run's spans."""
    by_id = {s.id: s for s in spans}
    self_s = self_times(spans)
    out = {f"{name}.calls": 0.0 for name in CALLS}
    out.update({f"{name}.self_s": 0.0 for name in SELF})
    out.update({f"{module}.errors": 0.0 for module in MODULES})
    out.update({"spectra.decomp_n3": 0.0, "acs.p_metric.n3": 0.0, "matrices.dense_bytes": 0.0,
                "symbols.sample_symbol.samples": 0.0})
    busy = 0.0
    for s in spans:
        if f"{s.name}.calls" in out:
            out[f"{s.name}.calls"] += 1
        if f"{s.name}.self_s" in out:
            out[f"{s.name}.self_s"] += self_s[s.id]
        if s.error:
            out[f"{s.name.split('.')[0]}.errors"] += 1
        if s.name in DECOMPOSITIONS and not s.error:
            out["acs.p_metric.n3" if s.name == "acs.p_metric" else "spectra.decomp_n3"] += s.measure
            if any(a.name in LADDERS for a in _ancestors(s, by_id)):
                busy += s.end - s.start
        elif s.name == "symbols.sample_symbol" and not s.error:
            out["symbols.sample_symbol.samples"] += s.measure
        elif s.measure is not None and not any(
            a.name.startswith("matrices.") for a in _ancestors(s, by_id)
        ):
            # outermost matrices-layer calls only, so nested constructors
            # (toeplitz inside lt_op) are not counted twice
            out["matrices.dense_bytes"] += s.measure
    ladder_wall = sum(s.end - s.start for s in spans if s.name in LADDERS)
    out["spectra.ladder_parallelism"] = busy / ladder_wall if ladder_wall > 0 else 0.0
    return out


def self_time_table(spans, top: int = 8) -> list:
    """(name, self seconds) of the spans with the most self time."""
    totals = {}
    self_s = self_times(spans)
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + self_s[s.id]
    return sorted(totals.items(), key=lambda kv: -kv[1])[:top]
