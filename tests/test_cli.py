import csv
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from glt_lab import acs, cli, matrices
from glt_lab.cli import (
    CSV_HEADER,
    MAX_DEGREE_CAP,
    ReportRow,
    _parse_terms,
    build_sequence,
    load_config,
    main,
    rows_to_csv,
)
from glt_lab.errors import ConfigError
from glt_lab.normal_form import normal_form


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_config(tmp_path, body, name="exp.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


GOOD_CONFIG = """
[global]
seed = 7

[szego]
kind = symbol-check
sequence = toeplitz(2*cos(theta))
symbol = 2*cos(theta)
mode = sv
sizes = 32, 64, 128, 256
grid = 4x512
"""


class TestParseCommand:
    def test_prints_ast(self):
        code, out, _ = run_cli(["parse", "x^2 + sin(theta)"])
        assert code == 0
        assert out.strip() == "(+ (^ x 2) (sin theta))"

    def test_malformed_expression_exits_2_with_position(self):
        code, _, err = run_cli(["parse", "x^2 +* 3"])
        assert code == 2
        assert "position 5" in err

    def test_unknown_variable_exits_2(self):
        code, _, err = run_cli(["parse", "y + 1"])
        assert code == 2
        assert "y" in err

    def test_prints_nested_ast(self):
        code, out, _ = run_cli(["parse", "2 - exp(i*(x - theta))^2/abs(t - 1.5) * cos(x)"])
        assert code == 0
        assert out == "(- 2 (* (/ (^ (exp (* i (- x theta))) 2) (abs (- t 1.5))) (cos x)))\n"

    @pytest.mark.parametrize("source, tree", [("i*x", "(* i x)"), ("2*i", "(* 2 i)")])
    def test_prints_imaginary_unit_as_i(self, source, tree):
        # the printed tree names i as the grammar does, not as Python's 1j
        code, out, _ = run_cli(["parse", source])
        assert code == 0
        assert out == tree + "\n"


class TestSequenceSpecs:
    def test_toeplitz_spec(self):
        seq = build_sequence("toeplitz(2*cos(theta))")
        T = seq(5)
        np.testing.assert_allclose(T, np.eye(5, k=1) + np.eye(5, k=-1), atol=1e-12)

    def test_glt_spec(self):
        seq = build_sequence("glt(x | 1)")
        np.testing.assert_allclose(seq(4), np.diag([0.25, 0.5, 0.75, 1.0]), atol=1e-12)

    def test_counterexample_spec(self):
        seq = build_sequence("counterexample(alt_identity)")
        np.testing.assert_array_equal(seq(3), -np.eye(3))

    def test_identity_zero(self):
        np.testing.assert_array_equal(build_sequence("identity")(3), np.eye(3))
        np.testing.assert_array_equal(build_sequence("zero")(3), np.zeros((3, 3)))

    def test_lc_spec(self):
        seq = build_sequence("lc(x | exp(i*theta))")
        A = seq(16)
        assert np.linalg.norm(A.conj().T @ A - A @ A.conj().T, "fro") <= 1e-10

    def test_lt_spec(self):
        seq = build_sequence("lt(x | 1)")
        np.testing.assert_allclose(
            seq(9), np.diag([1 / 3] * 3 + [2 / 3] * 3 + [1.0] * 3), atol=1e-12
        )

    def test_normal_form_spec(self):
        seq = build_sequence("normal-form(x | 2*cos(theta))")
        A = seq(16)
        assert np.linalg.norm(A.conj().T @ A - A @ A.conj().T, "fro") <= 1e-10

    def test_multi_term_glt_spec(self):
        seq = build_sequence("glt(x | 2*cos(theta) ; 1 | 1)")
        A = seq(8)
        expect = np.diag(np.arange(1, 9) / 8) @ (np.eye(8, k=1) + np.eye(8, k=-1)) + np.eye(8)
        np.testing.assert_allclose(A, expect, atol=1e-12)

    def test_bad_spec_raises_config_error(self):
        with pytest.raises(ConfigError):
            build_sequence("frobnicate(x)")
        with pytest.raises(ConfigError):
            build_sequence("toeplitz(x)")  # x not allowed in a theta symbol

    @pytest.mark.parametrize("spec", [
        "toeplitz(2*cos(theta))", "circulant(2*cos(theta))", "diag(1+x)",
        "lt(1+x | 2*cos(theta))", "lc(1+x | 2*cos(theta))", "glt(x | 2*cos(theta) ; 1 | 1)",
        "normal-form(x | 2*cos(theta))",
    ])
    def test_every_structured_head_carries_a_symbol(self, spec):
        assert build_sequence(spec).symbol is not None

    @pytest.mark.parametrize("spec", ["identity", "zero", "counterexample(alt_identity)"])
    def test_symbol_free_heads(self, spec):
        assert build_sequence(spec).symbol is None

    @pytest.mark.parametrize("head", ["lt", "lc"])
    def test_locally_structured_symbol_is_a_times_f(self, head):
        k = build_sequence(f"{head}(1+x | 2*cos(theta))").symbol
        x, theta = np.linspace(0, 1, 7), np.linspace(-3, 3, 7)
        np.testing.assert_allclose(k(x, theta), (1 + x) * 2 * np.cos(theta), atol=1e-12)


class TestConfigValidation:
    def test_missing_seed(self, tmp_path):
        # nothing in the package is random: a seed is optional, and one the
        # runner cannot read as an integer is ignored like any other global key
        body = "[exp]\nkind = symbol-check\nsequence = identity\nsymbol = 1\nsizes = 8,16\n"
        for head in ("", "[global]\nseed = not-a-number\n\n"):
            code, out, err = run_cli(["run", write_config(tmp_path, head + body)])
            assert code == 0
            assert err == ""
            assert out.startswith(",".join(CSV_HEADER) + "\n")

    def test_unknown_kind(self, tmp_path):
        cfg = write_config(tmp_path, "[global]\nseed = 1\n\n[exp]\nkind = nonsense\n")
        code, _, err = run_cli(["run", cfg])
        assert code == 2

    def test_malformed_expression_reports_position(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[exp]\nkind = symbol-check\n"
            "sequence = toeplitz(2**cos(theta))\nsymbol = 1\nsizes = 8,16\n",
        )
        code, _, err = run_cli(["run", cfg])
        assert code == 2
        assert "position" in err

    def test_descending_sizes_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[exp]\nkind = symbol-check\n"
            "sequence = identity\nsymbol = 1\nsizes = 16,8\n",
        )
        code, _, err = run_cli(["run", cfg])
        assert code == 2

    @pytest.mark.parametrize("sizes", ["-4, 8", "0, 8"])
    def test_nonpositive_sizes_rejected(self, tmp_path, sizes):
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[exp]\nkind = symbol-check\n"
            f"sequence = identity\nsymbol = 1\nsizes = {sizes}\n",
        )
        code, out, err = run_cli(["run", cfg])
        assert code == 2
        assert out == ""
        assert "sizes must be positive" in err

    @pytest.mark.parametrize("sizes", ["600, abc", "abc, 600", "1e3, 2e3"])
    def test_bad_sizes_in_a_later_experiment(self, tmp_path, sizes):
        # the band-solver pre-load reads sizes first and must leave bad text to the runner
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[first]\nkind = symbol-check\n"
            "sequence = identity\nsymbol = 1\nsizes = 8, 16\n\n[later]\nkind = symbol-check\n"
            f"sequence = identity\nsymbol = 1\nsizes = {sizes}\n",
        )
        bad = next(s for s in sizes.replace(" ", "").split(",") if not s.isdigit())
        code, out, err = run_cli(["run", cfg])
        assert code == 2
        assert out == ""
        assert err == (f"config error: bad sizes {sizes!r}: "
                       f"invalid literal for int() with base 10: {bad!r}\n")

    @pytest.mark.parametrize("grid", ["0", "-4", "0x8"])
    def test_nonpositive_grid_rejected(self, tmp_path, grid):
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[exp]\nkind = symbol-check\n"
            "sequence = toeplitz(2*cos(theta))\nsymbol = 2*cos(theta)\n"
            f"sizes = 16, 32\ngrid = {grid}\n",
        )
        code, out, err = run_cli(["run", cfg])
        assert code == 2
        assert out == ""
        assert "grid resolutions must be positive" in err

    @pytest.mark.parametrize(
        "body, key",
        [
            ("kind = symbol-check\nsequence = toeplitz(2*cos(theta))\nsymbol = 2*cos(theta)\n"
             "max_degree = abc\n", "max_degree"),
            ("kind = symbol-check\nsequence = toeplitz(2*cos(theta))\nsymbol = 2*cos(theta)\n"
             "max_degree = -1\n", "max_degree"),
            ("kind = symbol-check\nsequence = toeplitz(2*cos(theta))\nsymbol = 2*cos(theta)\n"
             "tolerance = nan\n", "tolerance"),
            ("kind = acs\nsequence_a = toeplitz(2*cos(theta))\n"
             "sequence_b = circulant(2*cos(theta))\ntolerance = half\n", "tolerance"),
            ("kind = normal-form\nterms = x | 2*cos(theta)\nacs_tolerance = 1/2\n",
             "acs_tolerance"),
        ],
        ids=["max_degree-abc", "max_degree-negative", "tolerance-nan", "acs-tolerance-half",
             "acs_tolerance-fraction"],
    )
    def test_bad_numeric_option_rejected(self, tmp_path, body, key):
        cfg = write_config(
            tmp_path, f"[global]\nseed = 1\n\n[exp]\n{body}sizes = 16, 36, 64\n"
        )
        code, out, err = run_cli(["run", cfg])
        assert code == 2
        assert out == ""
        assert f"{key} must be a non-negative" in err

    @pytest.mark.parametrize("kind_keys", [
        "kind = symbol-check\nsequence = toeplitz(2*cos(theta))\nsymbol = 2*cos(theta)\n",
        "kind = normal-form\nterms = x | 2*cos(theta)\n",
    ], ids=["symbol-check", "normal-form"])
    def test_max_degree_above_cap_rejected(self, tmp_path, kind_keys):
        cfg = write_config(
            tmp_path,
            f"[global]\nseed = 1\n\n[exp]\n{kind_keys}max_degree = {MAX_DEGREE_CAP + 1}\n"
            "sizes = 16, 36, 64\n",
        )
        code, out, err = run_cli(["run", cfg])
        assert code == 2
        assert out == ""
        assert f"max_degree must be at most {MAX_DEGREE_CAP}" in err

    @pytest.mark.parametrize("shift", ["nan", "1e400", "1e400i", "nan+1i"])
    def test_non_finite_shift_rejected(self, tmp_path, shift):
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[exp]\nkind = shift-test\n"
            "sequence = circulant(2*cos(theta))\nsymbol = 2*cos(theta)\n"
            f"shifts = 0, {shift}\nsizes = 16, 32\n",
        )
        code, out, err = run_cli(["run", cfg])
        assert code == 2
        assert out == ""
        assert f"complex literal {shift!r} is not finite" in err

    @pytest.mark.parametrize("section", [
        "kind = symbol-check\nsequence = toeplitz(x)\nsymbol = x\n",
        "kind = symbol-check\nsequence = circulant(x*cos(theta))\nsymbol = x\n",
        "kind = symbol-check\nsequence = lt(1 | x)\nsymbol = x\n",
        "kind = symbol-check\nsequence = glt(1 | x*cos(theta))\nsymbol = x\n",
        "kind = normal-form\nterms = 1 | x\n",
    ], ids=["toeplitz", "circulant", "lt", "glt", "normal-form"])
    def test_trig_factor_in_x_exits_2(self, tmp_path, section):
        cfg = write_config(tmp_path, f"[exp]\n{section}sizes = 16, 36\n")
        code, out, err = run_cli(["run", cfg])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: bad trig factor ")
        assert "expression in theta only" in err
        assert "Traceback" not in err

    def test_load_config_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, GOOD_CONFIG)
        rc = load_config(cfg)
        assert len(rc.experiments) == 1
        assert rc.experiments[0].kind == "symbol-check"


class TestRunCommand:
    def test_szego_ladder_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path, GOOD_CONFIG)
        code, out, _ = run_cli(["run", cfg])
        assert code == 0
        reader = csv.reader(io.StringIO(out))
        header = next(reader)
        assert tuple(header) == CSV_HEADER
        rows = list(reader)
        assert all(r[5] in ("PASS", "FAIL", "N/A") for r in rows)
        assert any(r[5] == "PASS" for r in rows)

    def test_alt_identity_eig_check_exits_one(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[alt]\nkind = symbol-check\n"
            "sequence = counterexample(alt_identity)\nsymbol = 1\nmode = eig\n"
            "sizes = 128, 129, 256, 257\n",
        )
        code, out, _ = run_cli(["run", cfg])
        assert code == 1
        assert "FAIL" in out

    def test_output_file_and_determinism(self, tmp_path):
        out_path = tmp_path / "report.csv"
        cfg = write_config(
            tmp_path,
            f"[global]\nseed = 3\noutput = {out_path}\n\n[t_vs_c]\nkind = acs\n"
            "sequence_a = toeplitz(2*cos(theta))\nsequence_b = circulant(2*cos(theta))\n"
            "sizes = 8, 16, 32, 64\n",
        )
        code1, _, _ = run_cli(["run", cfg])
        first = out_path.read_bytes()
        code2, _, _ = run_cli(["run", cfg])
        second = out_path.read_bytes()
        assert code1 == code2 == 0
        assert first == second
        assert b"\r" not in first

    def test_dump_matrices(self, tmp_path):
        out_path = tmp_path / "report.csv"
        cfg = write_config(
            tmp_path,
            f"[global]\nseed = 3\noutput = {out_path}\n\n[shift]\nkind = symbol-check\n"
            "sequence = toeplitz(exp(i*theta))\nsymbol = exp(i*theta)\nsizes = 8, 16\n",
        )
        code, _, _ = run_cli(["run", cfg, "--dump-matrices"])
        assert code == 0
        dump = tmp_path / "shift_8.csv"
        assert dump.exists()
        rows = list(csv.reader(dump.read_text(encoding="utf-8").splitlines()))
        # the shift Toeplitz has n-1 subdiagonal entries
        assert len(rows) == 7
        i, j, re, im = rows[0]
        assert int(i) == int(j) + 1
        assert float(re) == 1.0 and float(im) == 0.0

    def test_dump_matrices_normal_form_dumps_the_verified_matrix(self, tmp_path):
        out_path = tmp_path / "report.csv"
        terms = "1+x | 2*cos(theta) + i*sin(theta)"
        cfg = write_config(
            tmp_path,
            f"[global]\nseed = 3\noutput = {out_path}\n\n[nf]\nkind = normal-form\n"
            f"terms = {terms}\nsizes = 16, 36\n",
        )
        run_cli(["run", cfg, "--dump-matrices"])
        expr = _parse_terms(terms, 8)
        for n in (16, 36):
            A = normal_form(expr, n).matrix()
            text = (tmp_path / f"nf_{n}.csv").read_text(encoding="utf-8")
            rows = list(csv.reader(text.splitlines()))
            i, j = np.nonzero(A)
            assert [(int(r[0]), int(r[1])) for r in rows] == list(zip(i + 1, j + 1))
            dumped = np.array([complex(float(r[2]), float(r[3])) for r in rows])
            assert np.array_equal(dumped, A[i, j])

    def test_dump_matrices_normal_form_ignores_a_stray_sequence(self, tmp_path):
        # the dump follows the kind: a normal-form section dumps the normal
        # form it verified, whatever other keys it carries
        terms = "x | 2*cos(theta)"
        cfg = write_config(
            tmp_path,
            f"[global]\noutput = {tmp_path / 'report.csv'}\n\n[nf]\nkind = normal-form\n"
            f"terms = {terms}\nsequence = identity\nsizes = 16, 36, 64\n",
        )
        code, _, _ = run_cli(["run", cfg, "--dump-matrices"])
        assert code == 0
        for n in (16, 36, 64):
            A = normal_form(_parse_terms(terms, 8), n).matrix()
            text = (tmp_path / f"nf_{n}.csv").read_text(encoding="utf-8")
            rows = list(csv.reader(text.splitlines()))
            assert len(rows) == np.count_nonzero(A) != n
            assert all(complex(float(r[2]), float(r[3])) == A[int(r[0]) - 1, int(r[1]) - 1]
                       for r in rows)

    def test_dump_matrices_counterexample_writes_nothing(self, tmp_path):
        # a counterexample section runs a demo with its own sizes, so a stray
        # `sizes` key names no matrix the run built
        cfg = write_config(
            tmp_path,
            f"[global]\noutput = {tmp_path / 'report.csv'}\n\n[hs]\nkind = counterexample\n"
            "name = half_shift\nsizes = 8\n",
        )
        code, _, _ = run_cli(["run", cfg, "--dump-matrices"])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "report.csv"]

    def test_shift_test_kind(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[jordan]\nkind = shift-test\n"
            "sequence = counterexample(jordan_shift)\nsymbol = exp(i*theta)\n"
            "shifts = 0, 1\nsizes = 16, 32, 64\n",
        )
        code, out, _ = run_cli(["run", cfg])
        assert code == 0
        assert "eig_conclusion_licensed,0" in out

    def test_hermitian_fn_kind(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[sq]\nkind = hermitian-fn\n"
            "sequence = toeplitz(2*cos(theta))\nfunction = t^2\nsizes = 16, 32, 64\n",
        )
        code, out, _ = run_cli(["run", cfg])
        assert code == 0

    @pytest.mark.parametrize("head", ["lt", "lc"])
    def test_hermitian_fn_on_locally_structured_sequence(self, tmp_path, head):
        # the a(x) f(theta) symbol of lt and lc is attached, so the Hermitian
        # sequence is tested rather than reported as an error row
        cfg = write_config(
            tmp_path,
            f"[sq]\nkind = hermitian-fn\nsequence = {head}(1+x | 2*cos(theta))\n"
            "function = t^2\nsizes = 16, 64\n",
        )
        code, out, _ = run_cli(["run", cfg])
        metrics = [row.split(",")[2] for row in out.splitlines()[1:]]
        assert metrics == ["sv_residual_max"] * 2 + ["eig_residual_max"] * 2
        assert code == 0

    def test_normal_form_kind(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[nf]\nkind = normal-form\n"
            "terms = x | 2*cos(theta)\nsizes = 16, 36, 64\n",
        )
        code, out, _ = run_cli(["run", cfg])
        assert code == 0
        assert "acs_rho" in out

    def test_embed_kind(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[emb]\nkind = embed\n"
            "sequence_a = circulant(exp(i*theta))\nsequence_b = toeplitz(exp(i*theta))\n"
            "sizes = 16, 32\n",
        )
        code, out, _ = run_cli(["run", cfg])
        assert code == 0
        assert "embed_residual_p" in out

    def test_counterexample_kind_routes_to_demo(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[hs]\nkind = counterexample\nname = half_shift\n",
        )
        code, out, _ = run_cli(["run", cfg])
        assert code == 0
        assert "square_norm" in out


class TestReportLayout:
    def test_every_kind_matches_the_stored_report(self):
        # one experiment of each kind plus a non-Hermitian hermitian-fn error
        # row; the stored report pins row order, labels, bounds and verdicts
        data = Path(__file__).parent / "data"
        code, out, _ = run_cli(["run", str(data / "report_layout.ini")])
        assert code == 1
        got = list(csv.DictReader(io.StringIO(out)))
        with open(data / "report_layout.csv", encoding="utf-8", newline="") as fh:
            want = list(csv.DictReader(fh))
        assert {r["experiment"] for r in want} == {
            "szego", "acs_tc", "nf", "emb", "sq", "jordan", "hs", "bad"
        }
        keys = ("experiment", "n", "metric", "bound", "verdict")
        assert [[r[k] for k in keys] for r in got] == [[r[k] for k in keys] for r in want]
        np.testing.assert_allclose(
            [float(r["value"]) for r in got], [float(r["value"]) for r in want],
            rtol=1e-9, atol=1e-12,
        )


class TestDemoCommand:
    def test_unknown_demo(self):
        code, _, err = run_cli(["demo", "nope"])
        assert code == 2

    def test_alt_identity_fails(self):
        code, out, _ = run_cli(["demo", "alt_identity"])
        assert code == 1
        reader = csv.reader(io.StringIO(out))
        next(reader)
        gap_rows = [r for r in reader if r[2] == "even_odd_gap"]
        assert len(gap_rows) == 1
        assert float(gap_rows[0][3]) >= 0.9

    def test_half_shift_passes(self):
        code, out, _ = run_cli(["demo", "half_shift"])
        assert code == 0
        reader = csv.reader(io.StringIO(out))
        next(reader)
        rows = list(reader)
        squares = [r for r in rows if r[2] == "square_norm"]
        assert squares and all(float(r[3]) == 0.0 for r in squares)
        assert all(r[5] != "FAIL" for r in rows)

    def test_scaled_cycle_passes_with_p_bound(self):
        code, out, _ = run_cli(["demo", "scaled_cycle"])
        assert code == 0
        reader = csv.reader(io.StringIO(out))
        next(reader)
        rows = list(reader)
        p_rows = [r for r in rows if r[2] == "p"]
        assert p_rows
        for r in p_rows:
            assert float(r[3]) <= 2.0 / int(r[1]) + 1e-9
        assert any(r[2] == "zero_distributed" and r[5] == "PASS" for r in rows)
        assert any(r[2] == "fn_pathology_gap" for r in rows)

    def test_jordan_shift_flags_unlicensed_conclusion(self):
        code, out, _ = run_cli(["demo", "jordan_shift"])
        assert code == 0
        assert "eig_conclusion_licensed,0" in out

    def test_demo_determinism(self):
        _, out1, _ = run_cli(["demo", "scaled_cycle"])
        _, out2, _ = run_cli(["demo", "scaled_cycle"])
        assert out1 == out2


class TestNumericalFailureRows:
    def test_hermitian_violation_becomes_fail_row(self, tmp_path):
        # the shift Toeplitz is not Hermitian: the experiment must record a
        # FAIL row and exit 1 instead of crashing
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[bad]\nkind = hermitian-fn\n"
            "sequence = toeplitz(exp(i*theta))\nfunction = t\nsizes = 8, 16\n",
        )
        code, out, _ = run_cli(["run", cfg])
        assert code == 1
        assert "error[" in out and "FAIL" in out


    def test_symbol_pole_on_grid_becomes_fail_row(self, tmp_path):
        # the 3-point midpoint grid puts x = 1/2 on the pole of the symbol
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[pole]\nkind = symbol-check\n"
            "sequence = diag(1/x)\nsymbol = 1/(x-0.5)\nsizes = 16, 32\ngrid = 3\n",
        )
        code, out, _ = run_cli(["run", cfg])
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][0] == "pole" and rows[1][2].startswith("error[symbol is non-finite")
        assert rows[1][5] == "FAIL"


    @pytest.mark.parametrize("terms, sizes, message", [
        ("x | 2*cos(theta)", "3, 16", "locally structured operators need n >= 4"),
        ("x | 2*cos(5*theta)", "16, 36", "block size 4 must exceed 2*degree=10 at n=16"),
        ("x | 2*cos(theta) ; 1/(x-0.25) | 2*cos(theta)", "16, 36",
         "'1/(x-0.25)' is non-finite at x=0.25"),
    ])
    def test_invalid_normal_form_becomes_fail_row(self, tmp_path, terms, sizes, message):
        cfg = write_config(
            tmp_path,
            f"[global]\nseed = 1\n\n[nf]\nkind = normal-form\nterms = {terms}\n"
            f"sizes = {sizes}\n",
        )
        code, out, _ = run_cli(["run", cfg])
        assert code == 1
        assert list(csv.reader(io.StringIO(out)))[1] == ["nf", "0", f"error[{message}]", "0", "",
                                                         "FAIL"]


class TestThetaOnlySymbols:
    """A symbol without x is sampled once per theta midpoint; its report is
    byte for byte that of the same symbol written with x."""

    @pytest.mark.parametrize("section", [
        "kind = symbol-check\nsequence = toeplitz({f})\nsymbol = {k}\nmode = sv\nsizes = 16, 32",
        "kind = symbol-check\nsequence = circulant({f})\nsymbol = {k}\nmode = eig\n"
        "sizes = 16, 32",
        "kind = shift-test\nsequence = toeplitz({f})\nsymbol = {k}\nsizes = 16, 32",
        "kind = symbol-check\nsequence = toeplitz({f})\nsymbol = {k}\nsizes = 16\ngrid = 3x8",
    ], ids=["sv", "eig", "shift-test", "non-finite"])
    def test_same_report_with_and_without_x(self, tmp_path, section):
        f = "2*cos(theta) + 0.5*i*sin(2*theta)"
        # the non-finite case overflows at 2 of its 8 theta midpoints
        k = "exp(1000*cos(theta))" if "grid" in section else f
        reports = []
        for symbol in (k, f"{k} + 0*x"):
            cfg = write_config(tmp_path, "[t]\n" + section.format(f=f, k=symbol))
            reports.append(run_cli(["run", cfg])[1])
        assert reports[0] == reports[1]
        if "grid" in section:
            assert "error[symbol is non-finite at 6 of 24 grid samples]" in reports[0]


class TestToleranceOverride:
    def test_override_can_force_failure(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[strict]\nkind = symbol-check\n"
            "sequence = toeplitz(2*cos(theta))\nsymbol = 2*cos(theta)\n"
            "sizes = 16, 32\ntolerance = 1e-12\n",
        )
        code, out, _ = run_cli(["run", cfg])
        assert code == 1
        assert "FAIL" in out

    def test_override_replaces_every_max_bound(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[global]\nseed = 1\n\n[loose]\nkind = symbol-check\n"
            "sequence = toeplitz(2*cos(theta))\nsymbol = 2*cos(theta)\n"
            "sizes = 16, 32\ntolerance = 0.25\n",
        )
        code, out, _ = run_cli(["run", cfg])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        maxima = [r for r in rows if r["metric"].endswith("_residual_max")]
        hats = [r for r in rows if "_residual[" in r["metric"]]
        assert [r["n"] for r in maxima] == ["16", "32"]
        assert all(float(r["bound"]) == 0.25 for r in maxima)
        assert hats and all(r["bound"] == "" for r in hats)


class TestReportRows:
    def test_verdict_validation(self):
        with pytest.raises(ValueError):
            ReportRow("e", 1, "m", 0.0, None, "MAYBE")

    def test_nonfinite_value_rejected(self):
        with pytest.raises(ValueError):
            ReportRow("e", 1, "m", float("nan"), None, "PASS")

    def test_csv_format_17_digits(self):
        rows = [ReportRow("e", 4, "m", 1 / 3, 2 / 3, "PASS")]
        text = rows_to_csv(rows)
        assert "0.33333333333333331" in text
        assert "0.66666666666666663" in text
        assert text.endswith("\n")
        assert "\r" not in text


def run_installed_cli(*args, **environ):
    """`python -m glt_lab.cli` in a fresh interpreter, so stderr holds any
    traceback that escapes `main`; `environ` adds environment variables."""
    env = dict(os.environ, **environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "glt_lab.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


SMALL_CHECK = (
    "[tiny]\nkind = symbol-check\nsequence = toeplitz(2*cos(theta))\n"
    "symbol = 2*cos(theta)\nsizes = 8, 16\n"
)


class TestRefusedExpressionsExit2:
    """Deep nesting and a trig factor that its polynomial does not fit end
    as exit 2 with one message line, never a traceback or a report."""

    def assert_one_line(self, proc, prefix, *fragments):
        assert proc.returncode == 2
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1
        for fragment in fragments:
            assert fragment in proc.stderr

    def test_parse_of_3000_nested_parentheses(self):
        proc = run_installed_cli("parse", "(" * 3000 + "x" + ")" * 3000)
        self.assert_one_line(proc, "parse error: ", "parentheses nested deeper than 100",
                             "(at position 100)")

    def test_run_with_300_nested_parentheses(self, tmp_path):
        cfg = write_config(tmp_path, "[deep]\nkind = symbol-check\n"
                           f"sequence = diag({'(' * 300}x{')' * 300})\nsymbol = x\nsizes = 4\n")
        self.assert_one_line(run_installed_cli("run", cfg), "config error: ",
                             "parentheses nested deeper than 100")

    @pytest.mark.parametrize("factor", ["cos(20*theta)", "cos(9*theta)", "cos(64*theta)",
                                        "exp(theta)"])
    def test_run_with_a_factor_beyond_max_degree(self, tmp_path, factor):
        # at the parent, toeplitz(cos(20*theta)) built the zero matrix and
        # this check PASSed at n = 64 and 256 with exit 0
        cfg = write_config(tmp_path, "[z]\nkind = symbol-check\n"
                           f"sequence = toeplitz({factor})\nsymbol = 0\nsizes = 64, 256\n")
        self.assert_one_line(run_installed_cli("run", cfg), "config error: ",
                             f"bad trig factor {factor!r}", "degree <= 8")

    def test_random_refused_configs(self, tmp_path):
        # seeded draws: factors above max_degree, degrees that alias onto
        # the extraction nodes (multiples of quad, plus or minus a small
        # degree), and nesting past the limit, in every head that takes a
        # trig factor; each run ends as exit 2 with one `config error:` line
        # before any ladder runs, and no report
        rng = np.random.default_rng(26)
        heads = ["toeplitz({f})", "circulant({f})", "lt(x | {f})", "lc(1 + x | {f})",
                 "glt(1 | 2 ; x | {f})", "normal-form(1 | 2 + cos(theta) ; x | {f})"]
        for draw in range(40):
            max_degree = int(rng.integers(0, 12))
            quad = max(4 * (max_degree + 1), 64)
            kind = draw % 3
            if kind == 0:
                f = f"2 + cos({int(rng.integers(max_degree + 1, 4 * quad))}*theta)"
            elif kind == 1:
                degree = int(rng.integers(1, 4)) * quad + int(rng.integers(-max_degree, max_degree + 1))
                f = f"1 + 0.5*sin({degree}*theta + {rng.uniform(0, 3):.3f})"
            else:
                depth = int(rng.integers(101, 2000))
                f = "(" * depth + "2 + cos(theta)" + ")" * depth
            out = tmp_path / f"r{draw}.csv"
            cfg = write_config(tmp_path, f"[global]\noutput = {out}\n\n[s]\nkind = acs\n"
                               f"sequence_a = {heads[draw % len(heads)].format(f=f)}\n"
                               f"sequence_b = zero\nmax_degree = {max_degree}\nsizes = 16, 36\n")
            code, stdout, err = run_cli(["run", cfg])
            assert code == 2 and stdout == "" and not out.exists(), f
            assert err.startswith("config error: ") and err.count("\n") == 1, err

    def test_a_higher_max_degree_fits(self, tmp_path):
        cfg = write_config(tmp_path, "[z]\nkind = symbol-check\nmax_degree = 20\n"
                           "sequence = toeplitz(cos(20*theta))\nsymbol = cos(20*theta)\n"
                           "sizes = 64, 256\n")
        assert run_cli(["run", cfg])[0] == 0


class TestIOErrorsExit2:
    """A config that cannot be read and a report or dump that cannot be
    written end as `config error:` and exit 2, never a traceback (exit 1
    would read as a FAIL verdict)."""

    def assert_config_error(self, proc, *fragments):
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: ")
        for fragment in fragments:
            assert fragment in proc.stderr

    def test_report_in_a_missing_directory(self, tmp_path):
        out = tmp_path / "missing" / "report.csv"
        cfg = write_config(tmp_path, f"[global]\noutput = {out}\n\n{SMALL_CHECK}")
        proc = run_installed_cli("run", cfg)
        self.assert_config_error(proc, f"cannot write {str(out)!r}: ")
        assert proc.stdout == ""

    def test_dump_into_a_missing_directory(self, tmp_path):
        out = tmp_path / "missing" / "report.csv"
        cfg = write_config(tmp_path, f"[global]\noutput = {out}\n\n{SMALL_CHECK}")
        proc = run_installed_cli("run", cfg, "--dump-matrices")
        self.assert_config_error(proc, f"cannot write {str(out.parent / 'tiny_8.csv')!r}: ")

    def test_config_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes(f"# caf\xe9\n{SMALL_CHECK}".encode("latin-1"))
        proc = run_installed_cli("run", str(path))
        self.assert_config_error(proc, f"cannot parse config {str(path)!r}: ")


@pytest.fixture
def threads():
    """The reader of the BLAS thread count, with two threads set in the
    caller of `main`; the count from before the test is given back after it."""
    table = matrices._lapack() or {}
    if "openblas_set_num_threads" not in table:
        pytest.skip("numpy's BLAS exports no thread routines")
    get, put = table["openblas_get_num_threads"], table["openblas_set_num_threads"]
    before = get()
    put(np.full(1, 2, np.intc))
    yield get
    put(np.full(1, before, np.intc))


def spy_threads(monkeypatch, registry, key, threads, outcome=None):
    """Replace registry[key] with a runner that records the BLAS thread count
    it runs on, then raises `outcome` if it is an exception, returns one row
    with verdict `outcome` if it is a string, and otherwise runs the real
    runner; returns the recorded counts."""
    real, seen = registry[key], []

    def runner(*args, **kwargs):
        seen.append(threads())
        if isinstance(outcome, Exception):
            raise outcome
        if outcome:
            return [ReportRow("t", 8, "m", 0.0, None, outcome)]
        return real(*args, **kwargs)

    monkeypatch.setitem(registry, key, runner)
    return seen


# every size takes a band route (`_banded_svdvals` at 512, the band Gram
# route of p_metric at 576 and 1024), and those give the same bits on one
# and on two BLAS threads
BAND_CONFIG = """
[sv]
kind = symbol-check
sequence = toeplitz(2 + cos(theta))
symbol = 2 + cos(theta)
sizes = 512

[acs]
kind = acs
sequence_a = glt(1 + x^2 | 2 + cos(theta))
sequence_b = lc(1 + x^2 | 2 + cos(theta))
sizes = 576, 1024
"""


class TestOneBlasThread:
    """`run` and `demo` use one BLAS thread and give the caller's count back
    on every way out."""

    @pytest.mark.parametrize("outcome, code", [
        ("PASS", 0), ("FAIL", 1), (ConfigError("bad key"), 2), (RuntimeError("bug"), None),
    ], ids=["exit-0", "exit-1", "exit-2", "raises"])
    def test_run_restores_the_callers_count(self, tmp_path, monkeypatch, threads, outcome,
                                           code):
        seen = spy_threads(monkeypatch, cli.RUNNERS, "symbol-check", threads, outcome)
        cfg = write_config(tmp_path, SMALL_CHECK)
        if code is None:
            with pytest.raises(RuntimeError, match="bug"):
                run_cli(["run", cfg])
        else:
            assert run_cli(["run", cfg])[0] == code
        assert seen == [1] and threads() == 2

    def test_unreadable_config_restores_the_callers_count(self, tmp_path, threads):
        assert run_cli(["run", str(tmp_path / "missing.ini")])[0] == 2
        assert threads() == 2

    @pytest.mark.parametrize("name, code", [("half_shift", 0), ("alt_identity", 1)])
    def test_demo_restores_the_callers_count(self, monkeypatch, threads, name, code):
        seen = spy_threads(monkeypatch, cli.DEMOS, name, threads)
        assert run_cli(["demo", name])[0] == code
        assert seen == [1] and threads() == 2
        assert run_cli(["demo", "nope"])[0] == 2
        assert threads() == 2

    def test_without_thread_routines_nothing_is_set(self, tmp_path, monkeypatch, threads):
        out = tmp_path / "report.csv"
        cfg = write_config(tmp_path, f"[global]\noutput = {out}\n{BAND_CONFIG}")
        assert run_cli(["run", cfg])[0] == 0
        pinned = out.read_bytes()
        for name in ("openblas_get_num_threads", "openblas_set_num_threads"):
            monkeypatch.delitem(matrices._lapack(), name)
        seen = [spy_threads(monkeypatch, cli.RUNNERS, kind, threads)
                for kind in ("symbol-check", "acs")]
        band = []
        for module, name in ((matrices, "_band_svdvals"), (acs, "_band_tridiagonal")):
            routine = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, name=name, routine=routine:
                                band.append(name) or routine(*a))
        assert run_cli(["run", cfg])[0] == 0
        assert out.read_bytes() == pinned
        assert seen == [[2], [2]] and threads() == 2
        assert band == ["_band_svdvals", "_band_tridiagonal", "_band_tridiagonal"]


def test_reports_do_not_depend_on_openblas_num_threads(tmp_path):
    # the eigenvalues of this non-normal sequence move by far more than
    # roundoff between one and two BLAS threads, so only a run that fixes
    # its own count writes the same bytes under both
    cfg = write_config(tmp_path, (
        "[nonnormal]\nkind = symbol-check\n"
        "sequence = glt(1+x | 2*cos(theta) + i*sin(2*theta))\n"
        "symbol = (1+x)*(2*cos(theta) + i*sin(2*theta))\nmode = eig\nsizes = 64, 256, 512\n"))
    one, two = (run_installed_cli("run", cfg, OPENBLAS_NUM_THREADS=count) for count in "12")
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout == two.stdout
