"""Configuration-driven experiment runner with deterministic CSV reports.

Usage:
    glt-lab run <config-file> [--dump-matrices]
    glt-lab demo <name>
    glt-lab parse <expr>

Config files are flat INI: one section per experiment and an optional
`[global]` section whose `output` is the path of the CSV report (stdout when
absent).  Each section is parsed against `KINDS`, the keys its kind reads,
before any runs; `[global]` reads `output` and ignores `seed` (nothing in
the package is random).  Any other key that a section sets itself is an
error; a `[DEFAULT]` key that a section does not read is ignored.  Exit code
0 when every verdict is PASS or N/A, 1 when any row FAILs, 2 on
configuration errors.  `run` and `demo` use one BLAS thread and give the
caller's count back when they end.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import matrices, spectra
from .acs import acs_equivalent, p_metric
from .errors import ConfigError, ExprSyntaxError, GltLabError, NumericalError, VariableError
from .matrices import MatrixSeq, counterexample_seq
from .normal_form import (
    DEFAULT_SHIFTS,
    _misfit_p,
    affine_shift_test,
    hermitian_function,
    normal_form_seq,
    verify_normal_form,
)
from .spectra import (
    default_family,
    eig_symbol_residual,
    eigenvalues,
    family_with_extra_centers,
    singular_values,
    sv_symbol_residual,
    zero_distributed_test,
)
from .symbols import (
    GltExpr,
    SymbolGrid,
    TrigPoly,
    _ast_to_sexpr,
    _parse_any,
    _unit_axis,
    parse_expr,
    trig_poly_from_expr,
)

CSV_HEADER = ("experiment", "n", "metric", "value", "bound", "verdict")

@dataclass(frozen=True)
class ReportRow:
    experiment: str
    n: int
    metric: str
    value: float
    bound: float | None
    verdict: str  # PASS | FAIL | N/A

    def __post_init__(self):
        if self.verdict not in ("PASS", "FAIL", "N/A"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if not math.isfinite(self.value):
            raise ValueError("row values must be finite")


def _fmt(v: float | None) -> str:
    return "" if v is None else format(float(v), ".17g")


def _csv_records(rows):
    yield CSV_HEADER
    for r in rows:
        yield [r.experiment, r.n, r.metric, _fmt(r.value), _fmt(r.bound), r.verdict]


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_csv_records(rows))
    return buf.getvalue()


def _write_csv(path, records) -> None:
    """Write CSV records to `path`; an OSError becomes a ConfigError (exit 2)."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(records)
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc


def _emit(rows, output=None) -> int:
    """Write the report to `output` (stdout when None); return the exit code."""
    if output:
        _write_csv(output, _csv_records(rows))
    else:
        sys.stdout.write(rows_to_csv(rows))
    return 1 if any(r.verdict == "FAIL" for r in rows) else 0


# ---------------------------------------------------------------------------
# config parsing


def _parse_sizes(text: str):
    try:
        sizes = tuple(int(s) for s in text.replace(" ", "").split(",") if s)
    except ValueError as exc:
        raise ConfigError(f"bad sizes {text!r}: {exc}") from exc
    if len(sizes) < 1:
        raise ConfigError("sizes must be non-empty")
    if min(sizes) < 1 or max(sizes) > MAX_SIZE:
        raise ConfigError(f"sizes must be positive and at most {MAX_SIZE}, got {sizes}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(f"sizes must be strictly ascending, got {sizes}")
    return sizes


def _parse_grid(text: str):
    parts = text.lower().replace(" ", "").split("x")
    try:
        res = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}") from exc
    if len(res) not in (1, 2):
        raise ConfigError(f"grid needs 1 or 2 axes, got {text!r}")
    if min(res) < 1 or max(res) > MAX_SIZE:
        raise ConfigError(f"grid resolutions must be positive and at most {MAX_SIZE}, got {text!r}")
    return res


def _parse_complex(text: str) -> complex:
    text = text.strip()
    s = text.replace(" ", "").replace("i", "j")
    s = re.sub(r"(?<![\d.])j", "1j", s)
    try:
        z = complex(s)
    except ValueError as exc:
        raise ConfigError(f"bad complex literal {text!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ConfigError(f"complex literal {text!r} is not finite")
    return z


def _shift_label(c: complex) -> str:
    """The name of shift c in the report's metric names."""
    return f"{c:g}"


def _parse_shifts(text: str) -> tuple:
    """The shifts, once no two of them share a label in the report."""
    shifts = tuple(_parse_complex(s) for s in text.split(","))
    labels = [_shift_label(c) for c in shifts]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"shifts {text!r} share report labels: {', '.join(labels)}")
    return shifts


def _parse_expr_cfg(text: str, role: str):
    try:
        return parse_expr(text, role)
    except (ExprSyntaxError, VariableError) as exc:
        raise ConfigError(f"bad expression {text!r}: {exc}") from exc


def _parse_trig_poly(text: str, max_degree: int) -> TrigPoly:
    """Parse a trig factor, an expression in theta only, into its polynomial."""
    try:
        return trig_poly_from_expr(_parse_expr_cfg(text, "k"), max_degree)
    except VariableError as exc:
        raise ConfigError(f"bad trig factor {text!r}: {exc}") from exc


def _parse_terms(text: str, max_degree: int) -> GltExpr:
    """Parse 'a1 | f1 ; a2 | f2' into a separable symbol expression."""
    terms = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        parts = chunk.split("|")
        if len(parts) != 2:
            raise ConfigError(f"term {chunk.strip()!r} must look like 'a-expr | f-expr'")
        a = _parse_expr_cfg(parts[0].strip(), "a")
        terms.append((a, _parse_trig_poly(parts[1].strip(), max_degree)))
    if not terms:
        raise ConfigError("term list is empty")
    return GltExpr(tuple(terms))


_SEQ_RE = re.compile(r"^([a-z-]+)(?:\((.*)\))?$", re.S)


def build_sequence(spec: str, max_degree: int = 8) -> MatrixSeq:
    """Build a matrix sequence from a spec like 'toeplitz(2*cos(theta))'.

    Supported heads: toeplitz(f), circulant(f), diag(a), lt(a | f),
    lc(a | f), glt(a1 | f1 ; ...), normal-form(a1 | f1 ; ...),
    counterexample(name), identity, zero.
    """
    m = _SEQ_RE.match(spec.strip())
    if m is None:
        raise ConfigError(f"bad sequence spec {spec!r}")
    head, inner = m.group(1), (m.group(2) or "").strip()
    if head in ("identity", "zero"):
        if inner:
            raise ConfigError(f"sequence {head!r} takes no arguments")
        return matrices.identity_seq() if head == "identity" else matrices.zero_seq()
    if not inner:
        raise ConfigError(f"sequence {head!r} needs arguments")
    if head == "counterexample":
        if inner not in matrices.COUNTEREXAMPLES:
            raise ConfigError(
                f"unknown counterexample {inner!r}; choose from {matrices.COUNTEREXAMPLES}"
            )
        return counterexample_seq(inner)
    if head in ("toeplitz", "circulant"):
        f = _parse_trig_poly(inner, max_degree)
        return (matrices.toeplitz_seq if head == "toeplitz" else matrices.circulant_seq)(f, inner)
    if head == "diag":
        return matrices.diag_seq(_parse_expr_cfg(inner, "a"))
    if head in ("lt", "lc"):
        expr = _parse_terms(inner, max_degree)
        if len(expr.terms) != 1:
            raise ConfigError(f"{head} takes a single 'a | f' term")
        a, f = expr.terms[0]
        return matrices.lt_seq(a, f, inner) if head == "lt" else matrices.lc_seq(a, f, inner)
    if head == "glt":
        return matrices.glt_product_seq(_parse_terms(inner, max_degree))
    if head == "normal-form":
        return normal_form_seq(_parse_terms(inner, max_degree))
    raise ConfigError(f"unknown sequence head {head!r}")


@dataclass
class Experiment:
    name: str
    kind: str
    options: dict  # key -> parsed value, every key of KINDS[kind]


@dataclass
class RunConfig:
    output: str | None
    experiments: list


def _number(key, text, kind=float, maximum=math.inf):
    """`text` as a non-negative `kind` (finite for floats) at most `maximum`."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        what = "integer" if kind is int else "number"
        raise ConfigError(f"{key} must be a non-negative {what}, got {text!r}")
    if value > maximum:
        raise ConfigError(f"{key} must be at most {maximum}, got {text!r}")
    return value


def _choice(what, text, choices):
    if text not in choices:
        raise ConfigError(f"unknown {what} {text!r}; choose from {tuple(choices)}")
    return text


# Coefficients past degree n - 1 fall outside an n x n Toeplitz band, so a
# degree above the desk-scale sizes adds cost and no entry.
MAX_DEGREE_CAP = 4096
# The largest size and grid axis: an n x n complex array holds < 2^63 bytes,
# so an allocation too large fails with MemoryError (an error row), not ValueError.
MAX_SIZE = 2**29

# key -> parser(text, the options parsed before it); a key means the same
# thing in every kind that reads it
PARSERS = {
    "max_degree": lambda text, _: _number("max_degree", text, int, MAX_DEGREE_CAP),
    **dict.fromkeys(("sequence", "sequence_a", "sequence_b"),
                    lambda text, opts: build_sequence(text, opts["max_degree"])),
    "terms": lambda text, opts: _parse_terms(text, opts["max_degree"]),
    "symbol": lambda text, _: _parse_expr_cfg(text, "k"),
    "function": lambda text, _: _parse_expr_cfg(text, "F"),
    "mode": lambda text, _: _choice("mode", text, ("sv", "eig")),
    "sizes": lambda text, _: _parse_sizes(text),
    "grid": lambda text, _: _parse_grid(text),
    "tolerance": lambda text, _: _number("tolerance", text),
    "acs_tolerance": lambda text, _: _number("acs_tolerance", text),
    "shifts": lambda text, _: _parse_shifts(text),
    "name": lambda text, _: _choice("counterexample", text, DEMOS),
}


def load_config(path: str) -> RunConfig:
    """Parse every experiment section into its options, checked against KINDS."""
    parser = configparser.ConfigParser(delimiters=("=",), inline_comment_prefixes=("#",))
    parser.optionxform = str.lower
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        defaults = parser.defaults()
        sections = [(s, dict(parser.items(s)), dict(parser.items(s, raw=True)))
                    for s in parser.sections()]
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc
    experiments = []
    output = defaults.get("output")
    for section, items, raw in sections:
        if section.lower() == "global":
            for key in items:
                if key not in ("output", "seed") and raw[key] != defaults.get(key):
                    raise ConfigError(f"[{section}] has unknown key {key!r}")
            output = items.get("output", output)
            continue
        kind = items.pop("kind", None)
        if kind not in KINDS:
            raise ConfigError(f"experiment [{section}] has unknown kind {kind!r}" if kind
                              else f"experiment [{section}] is missing a kind")
        # configparser copies [DEFAULT] into every section: a key that
        # holds its [DEFAULT] text came from there, and is ignored if unread
        for key in items:
            if key not in KINDS[kind] and raw[key] != defaults.get(key):
                raise ConfigError(f"experiment [{section}] has unknown key {key!r} for {kind}")
        options = {}
        for key, default in KINDS[kind].items():
            if key not in items and default is REQUIRED:
                raise ConfigError(f"experiment [{section}] is missing the {key!r} key")
            options[key] = PARSERS[key](items[key], options) if key in items else default
        experiments.append(Experiment(section, kind, options))
    if not experiments:
        raise ConfigError("config defines no experiments")
    return RunConfig(output, experiments)


# ---------------------------------------------------------------------------
# experiment execution


def _row(name, n, metric, value, bound=None, ok=None) -> ReportRow:
    """A report row.  Its verdict is N/A when neither `bound` nor `ok` is
    given, else PASS when `ok`, which defaults to `value <= bound`."""
    if not math.isfinite(value):
        raise NumericalError(f"{metric} is not finite: {value}")
    if bound is None and ok is None:
        verdict = "N/A"
    elif value <= bound if ok is None else ok:
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return ReportRow(name, n, metric, float(value), bound, verdict)


def _ladder(name, sizes, metric, values, bounds=None) -> list:
    """One row per size, each judged against its bound when `bounds` is given."""
    bounds = [None] * len(sizes) if bounds is None else bounds
    return [_row(name, n, metric, v, b) for n, v, b in zip(sizes, values, bounds)]


def _shift_rows(name, sizes, report) -> list:
    """Per-shift residual ladders and verdicts, the normality residuals, and
    whether the shift verdicts license an eigenvalue conclusion."""
    rows = []
    for c, table, ok in zip(report.shifts, report.tables, report.shift_pass):
        worst, label = table.max_per_size(), _shift_label(c)
        rows += _ladder(name, sizes, f"sv_residual_max[shift={label}]", worst)
        rows.append(_row(name, sizes[-1], f"shift_verdict[shift={label}]", worst[-1], ok=ok))
    rows += _ladder(name, sizes, "normality_residual", report.normality_residuals)
    licensed = report.all_pass and report.is_normal
    rows.append(_row(name, sizes[-1], "eig_conclusion_licensed", 1.0 if licensed else 0.0))
    return rows


def _max_rows(name, metric, table) -> list:
    """The table's largest residual per size, judged against its bound."""
    return _ladder(name, table.sizes, metric, table.max_per_size(), table.bounds)


def _residual_rows(name, table):
    """Per size, one unjudged row per test function and the largest residual
    judged against the table's bound."""
    rows = []
    for n, residuals, bound in zip(table.sizes, table.residuals, table.bounds):
        for label, res in zip(table.labels, residuals):
            rows.append(_row(name, n, f"{table.kind}_residual[{label}]", res))
        rows.append(_row(name, n, f"{table.kind}_residual_max", residuals.max(), bound))
    return rows


def run_symbol_check(name, opts) -> list:
    grid = spectra.as_symbol_grid(opts["symbol"], opts["grid"])
    fn = sv_symbol_residual if opts["mode"] == "sv" else eig_symbol_residual
    table = fn(opts["sequence"], grid, opts["sizes"])
    if opts["tolerance"] is not None:
        table = replace(table, bounds=np.full(len(opts["sizes"]), opts["tolerance"]))
    return _residual_rows(name, table)


def run_acs(name, opts) -> list:
    sizes, tol = opts["sizes"], opts["tolerance"]
    verdict, est = acs_equivalent(opts["sequence_a"], opts["sequence_b"], sizes, tol)
    rows = _ladder(name, est.sizes, "p", est.p_values)
    rows.append(_row(name, sizes[-1], "rho_estimate", est.rho_estimate, tol, verdict))
    return rows


def run_normal_form(name, opts) -> list:
    sizes, acs_tol = opts["sizes"], opts["acs_tolerance"]
    report = verify_normal_form(opts["terms"], sizes, resolution=opts["grid"], acs_tol=acs_tol)
    rows = _ladder(name, sizes, "acs_p", report.acs_p_values)
    rows.append(_row(name, sizes[-1], "acs_rho", report.acs_rho, acs_tol, report.acs_pass))
    return rows + _max_rows(name, "eig_residual_max", report.eig_table)


def run_embed(name, opts) -> list:
    """The p of `group_embed`'s misfit per size, from the two singular value
    spectra alone (`normal_form._misfit_p`), each taken by the route of the
    sv ladders (`spectra._spectrum`), A_n's first: no singular vectors and
    no n x n product."""
    sizes, seq_a, seq_b = opts["sizes"], opts["sequence_a"], opts["sequence_b"]
    residuals = [_misfit_p(spectra._spectrum(seq_a, n, "sv"), spectra._spectrum(seq_b, n, "sv"))
                 for n in sizes]
    return _ladder(name, sizes, "embed_residual_p", residuals)


def run_hermitian_fn(name, opts) -> list:
    report = hermitian_function(opts["sequence"], opts["function"], opts["sizes"],
                                resolution=opts["grid"])
    return (_max_rows(name, "sv_residual_max", report.sv_table)
            + _max_rows(name, "eig_residual_max", report.eig_table))


def run_shift_test(name, opts) -> list:
    report = affine_shift_test(opts["sequence"], opts["symbol"], opts["sizes"], opts["shifts"],
                               resolution=opts["grid"])
    return _shift_rows(name, opts["sizes"], report)


# ---------------------------------------------------------------------------
# counterexample demos


def _constant_unit_grid(value: complex) -> SymbolGrid:
    res = spectra.DEFAULT_UNIT_RESOLUTION
    return SymbolGrid("UNIT", res, np.full(res, complex(value)))


def demo_alt_identity(name="alt_identity") -> list:
    sizes = (128, 129, 256, 257)
    seq = counterexample_seq("alt_identity")
    one = _constant_unit_grid(1.0)
    family = family_with_extra_centers(default_family(1.0), (1.0, -1.0), 0.5)
    rows = _residual_rows(name, eig_symbol_residual(seq, one, sizes, family))
    even_emp = family.means(eigenvalues(seq(256)))
    odd_emp = family.means(eigenvalues(seq(257)))
    gap = np.abs(even_emp - odd_emp).max()
    rows.append(_row(name, 257, "even_odd_gap", gap, 0.9, ok=gap < 0.9))
    return rows


def demo_half_shift(name="half_shift") -> list:
    sizes = (32, 64, 128, 256)
    seq = counterexample_seq("half_shift")
    res = spectra.DEFAULT_UNIT_RESOLUTION
    step = SymbolGrid("UNIT", res, (_unit_axis(*res) < 0.5).astype(complex))
    rows = _residual_rows(name, sv_symbol_residual(seq, step, sizes))
    squares = [np.abs(A @ A).max() for A in map(seq, sizes)]
    return rows + _ladder(name, sizes, "square_norm", squares, [0.0] * len(sizes))


def demo_scaled_cycle(name="scaled_cycle") -> list:
    sizes = (8, 16, 32, 64)
    seq = counterexample_seq("scaled_cycle")
    verdict, table = zero_distributed_test(seq, sizes)
    rows = _residual_rows(name, table)
    rows.append(_row(name, sizes[-1], "zero_distributed", table.max_per_size()[-1],
                     table.bounds[-1], verdict))
    p_values = [p_metric(seq(n)) for n in sizes]
    rows += _ladder(name, sizes, "p", p_values, [2.0 / n + 1e-10 for n in sizes])
    # the function t + 1 - |t|^2 fixes every eigenvalue on the unit circle,
    # so applying it leaves the matrix alone while moving 0 to 1: the
    # singular value functionals stay near F(0), far from F(1)
    n_fn = 12
    E = seq(n_fn)
    lam, S = np.linalg.eig(E)
    f_lam = lam + 1.0 - np.abs(lam) ** 2
    fE = S @ np.diag(f_lam) @ np.linalg.inv(S)
    rows.append(_row(name, n_fn, "fn_fixed_point_error", np.abs(fE - E).max()))
    family = default_family(1.0)
    gap = np.abs(family.means(singular_values(fE)) - family.means([1.0])).max()
    rows.append(_row(name, n_fn, "fn_pathology_gap", gap))
    return rows


def demo_jordan_shift(name="jordan_shift") -> list:
    sizes = (32, 64, 128, 256)
    seq = counterexample_seq("jordan_shift")
    shift_poly = TrigPoly.from_coeff_map({1: 1.0})
    report = affine_shift_test(seq, shift_poly, sizes, shifts=(0, 1))
    rows = _shift_rows(name, sizes, report)
    table = eig_symbol_residual(seq, _constant_unit_grid(0.0), sizes)
    return rows + _max_rows(name, "eig_residual_vs_zero", table)


DEMOS = {
    "alt_identity": demo_alt_identity,
    "half_shift": demo_half_shift,
    "scaled_cycle": demo_scaled_cycle,
    "jordan_shift": demo_jordan_shift,
}


def run_counterexample(name, opts) -> list:
    return DEMOS[opts["name"]](name=name)


RUNNERS = {
    "symbol-check": run_symbol_check,
    "acs": run_acs,
    "normal-form": run_normal_form,
    "embed": run_embed,
    "counterexample": run_counterexample,
    "hermitian-fn": run_hermitian_fn,
    "shift-test": run_shift_test,
}

# kind -> the keys its runner reads, in parse order, each with its default
# or REQUIRED; max_degree comes first, since sequences and terms read it
REQUIRED = object()
KINDS = {
    "symbol-check": {"max_degree": 8, "sequence": REQUIRED, "symbol": REQUIRED, "mode": "sv",
                     "sizes": REQUIRED, "grid": None, "tolerance": None},
    "acs": {"max_degree": 8, "sequence_a": REQUIRED, "sequence_b": REQUIRED, "sizes": REQUIRED,
            "tolerance": 0.5},
    "normal-form": {"max_degree": 8, "terms": REQUIRED, "sizes": REQUIRED, "grid": None,
                    "acs_tolerance": 0.5},
    "embed": {"max_degree": 8, "sequence_a": REQUIRED, "sequence_b": REQUIRED, "sizes": REQUIRED},
    "counterexample": {"name": REQUIRED},
    "hermitian-fn": {"max_degree": 8, "sequence": REQUIRED, "function": REQUIRED,
                     "sizes": REQUIRED, "grid": None},
    "shift-test": {"max_degree": 8, "sequence": REQUIRED, "symbol": REQUIRED, "sizes": REQUIRED,
                   "grid": None, "shifts": DEFAULT_SHIFTS},
}


def _dump_matrices(exp: Experiment, out_dir: Path) -> None:
    """Write the sequence `exp` tested, one file per size: `sequence` for
    single-sequence kinds, `sequence_a` for acs and embed, the normal form
    Q^H D Q for normal-form, and nothing for counterexample."""
    if exp.kind == "counterexample":
        return
    opts = exp.options
    seq = (normal_form_seq(opts["terms"]) if exp.kind == "normal-form"
           else opts.get("sequence", opts.get("sequence_a")))
    for n in opts["sizes"]:
        A = seq(n)
        i, j = np.nonzero(A)
        z = A[i, j]
        entries = zip(i + 1, j + 1, map(_fmt, z.real), map(_fmt, z.imag))
        _write_csv(out_dir / f"{exp.name}_{n}.csv", entries)


def run_config(path: str, dump_matrices: bool = False) -> int:
    """Run every experiment in a config file; returns the process exit code."""
    try:
        config = load_config(path)
        out_dir = Path(config.output).parent if config.output else Path(".")
        rows = []
        for exp in config.experiments:
            try:
                rows.extend(RUNNERS[exp.kind](exp.name, exp.options))
                if dump_matrices:
                    _dump_matrices(exp, out_dir)
            except ConfigError:
                raise
            except (GltLabError, MemoryError) as exc:
                # numerical and allocation failures become FAIL rows, not crashes
                rows.append(ReportRow(exp.name, 0, f"error[{exc}]", 0.0, None, "FAIL"))
        return _emit(rows, config.output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def run_demo(name: str) -> int:
    if name not in DEMOS:
        print(f"unknown demo {name!r}; available: {', '.join(sorted(DEMOS))}", file=sys.stderr)
        return 2
    return _emit(DEMOS[name]())


def run_parse(source: str) -> int:
    try:
        expr = _parse_any(source)
    except (ExprSyntaxError, VariableError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    print(_ast_to_sexpr(expr.ast))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="glt-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the experiments in a config file")
    p_run.add_argument("config")
    p_run.add_argument("--dump-matrices", action="store_true")
    p_demo = sub.add_parser("demo", help="run a canned counterexample experiment")
    p_demo.add_argument("name")
    p_parse = sub.add_parser("parse", help="print the ast of an expression")
    p_parse.add_argument("expr")
    args = parser.parse_args(argv)
    if args.command == "parse":
        return run_parse(args.expr)
    # one BLAS thread, so that no report depends on OPENBLAS_NUM_THREADS
    with matrices._one_blas_thread():
        if args.command == "run":
            return run_config(args.config, args.dump_matrices)
        return run_demo(args.name)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
