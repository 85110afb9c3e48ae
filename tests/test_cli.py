import csv
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from glt_lab import cli, matrices
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
from glt_lab.normal_form import group_embed, normal_form


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

    @pytest.mark.parametrize("spec", ["identity(2*cos(theta))", "zero(x)", "identity(1)"])
    def test_nullary_head_with_arguments_raises_config_error(self, spec):
        with pytest.raises(ConfigError, match="takes no arguments"):
            build_sequence(spec)

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
        # nothing in the package is random: a seed is optional, and [global]
        # ignores it, even one that is not an integer (it reads only output;
        # any other key of its own exits 2)
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
        # every section is parsed before any runs, so a later bad section
        # exits 2 with no report, not after the first one's ladder
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

    @pytest.mark.parametrize("shifts", ["1, 1.0000001", "1, 1", "0, 0.5i, 0.50000001i"])
    def test_shifts_sharing_a_label_exit_2(self, tmp_path, shifts):
        # each shift's rows are named by its label, which must tell them apart
        cfg = write_config(
            tmp_path,
            "[exp]\nkind = shift-test\nsequence = circulant(2*cos(theta))\n"
            f"symbol = 2*cos(theta)\nshifts = {shifts}\nsizes = 16, 32\n",
        )
        code, out, err = run_cli(["run", cfg])
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: shifts {shifts!r} share report labels")
        assert "Traceback" not in err

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


# one valid value per key, so that a section of any kind built from it runs
VALID = {
    "max_degree": "4", "sequence": "toeplitz(2*cos(theta))",
    "sequence_a": "toeplitz(2*cos(theta))", "sequence_b": "circulant(2*cos(theta))",
    "terms": "x | 2*cos(theta)", "symbol": "2*cos(theta)", "function": "t^2", "mode": "sv",
    "sizes": "16, 36", "grid": "4x64", "tolerance": "0.5", "acs_tolerance": "0.5",
    "shifts": "0, 1", "name": "half_shift",
}

# values each key's parser refuses (a max_degree of 0 refuses the valid
# sequences and terms, whose factors have degree 1)
REFUSED = {
    "max_degree": ["-1", "abc", "4097", "1.5", "0", ""],
    "sequence": ["frobnicate(x)", "toeplitz(x)", "identity(2*cos(theta))", "zero(x)",
                 "toeplitz(cos(9*theta))", "counterexample(nope)", "lt(x | 1 ; 1 | 1)",
                 "diag(", "glt()", ""],
    "terms": ["x", "x | 2*cos(9*theta)", "x | x", ";", "y | 1", ""],
    "symbol": ["2**x", "y", "t", ""],
    "function": ["x", "t +", "theta", ""],
    "mode": ["svd", "EIG", ""],
    "sizes": ["16, 8", "0, 8", "abc", "1e3", ""],
    "grid": ["0", "4x0", "4x4x4", "a", ""],
    "tolerance": ["nan", "-1", "inf", "half", ""],
    "shifts": ["nan", "0, 1e400", "1+", "0,,1", ""],
    "name": ["nope", "HALF_SHIFT", ""],
}
REFUSED["sequence_a"] = REFUSED["sequence_b"] = REFUSED["sequence"]
REFUSED["acs_tolerance"] = REFUSED["tolerance"]


def section(name, kind, **keys):
    keys = {key: VALID[key] for key in cli.KINDS[kind]} | keys
    return f"[{name}]\nkind = {kind}\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())


def spy_runners(monkeypatch):
    """Replace every runner with one that records its kind and returns no
    rows; returns the record."""
    called = []
    for kind in cli.KINDS:
        monkeypatch.setitem(cli.RUNNERS, kind,
                            lambda name, opts, kind=kind: called.append(kind) or [])
    return called


class TestConfigSchema:
    """Every section is parsed against its kind's keys before any runner
    starts: a key the kind does not read, a missing key and a value its
    parser refuses end as exit 2 with one `config error:` line."""

    def assert_refused(self, proc, *fragments):
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        for fragment in fragments:
            assert fragment in proc.stderr

    def test_parsers_cover_every_key_of_every_kind(self):
        assert list(cli.KINDS) == list(cli.RUNNERS)
        assert {key for keys in cli.KINDS.values() for key in keys} == cli.PARSERS.keys()
        assert cli.PARSERS.keys() == VALID.keys() == REFUSED.keys()

    def test_readme_lists_the_keys_of_every_kind(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", text, re.M))
        for kind, keys in cli.KINDS.items():
            listed = re.findall(r"(?:^|, )`(\w+)`( \*req\*)?", rows[kind])
            assert [(key, bool(req)) for key, req in listed] == [
                (key, default is cli.REQUIRED) for key, default in keys.items()]

    def test_misspelt_tolerance_exits_2(self, tmp_path):
        # an ignored key would leave the default bound, which PASSes this
        # wrong symbol at n = 64 and 256 with exit 0
        cfg = write_config(tmp_path, "[wrong]\nkind = symbol-check\n"
                           "sequence = toeplitz(2*cos(theta))\nsymbol = 3*cos(theta)\n"
                           "sizes = 64, 256\ntolerence = 0.001\n")
        self.assert_refused(run_installed_cli("run", cfg),
                            "experiment [wrong] has unknown key 'tolerence'")

    @pytest.mark.parametrize("key, value", [("grid", "4x512"), ("mode", "eig")])
    def test_acs_with_a_key_of_another_kind_exits_2(self, tmp_path, key, value):
        cfg = write_config(tmp_path, section("close", "acs") + f"{key} = {value}\n")
        self.assert_refused(run_installed_cli("run", cfg),
                            f"experiment [close] has unknown key {key!r} for acs")

    @pytest.mark.parametrize("spec", ["identity(2*cos(theta))", "zero(x)"])
    def test_nullary_head_with_arguments_exits_2(self, tmp_path, spec):
        # not I and 0 with the arguments dropped
        cfg = write_config(tmp_path, section("nullary", "acs", sequence_a=spec))
        self.assert_refused(run_installed_cli("run", cfg), "takes no arguments")

    def test_bad_key_in_the_last_section_runs_nothing(self, tmp_path, monkeypatch):
        out = tmp_path / "report.csv"
        body = "".join(section(kind, kind) + "\n" for kind in cli.KINDS)
        cfg = write_config(tmp_path, f"[global]\noutput = {out}\n\n{body}tolerance = 0.5\n")
        called = spy_runners(monkeypatch)
        code, stdout, err = run_cli(["run", cfg])
        assert (code, stdout, called) == (2, "", [])
        assert err == ("config error: experiment [shift-test] has unknown key 'tolerance' for "
                       "shift-test\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["ouptut", "kind", "tolerance"])
    def test_unknown_global_key_exits_2(self, tmp_path, monkeypatch, key):
        # a misspelt output used to send the report to stdout with exit 0
        out = tmp_path / "report.csv"
        cfg = write_config(tmp_path, f"[global]\nseed = 1\n{key} = {out}\n\n"
                           + section("close", "acs"))
        called = spy_runners(monkeypatch)
        code, stdout, err = run_cli(["run", cfg])
        assert (code, stdout, called) == (2, "", [])
        assert err == f"config error: [global] has unknown key {key!r}\n"
        assert not out.exists()

    def test_default_keys_the_kind_does_not_read_are_ignored(self, tmp_path, monkeypatch):
        # configparser copies [DEFAULT] into every section, [global] too; a
        # seed there, or a key only some kinds read, is ignored where it is
        # not read
        out = tmp_path / "report.csv"
        body = "".join(section(kind, kind) + "\n" for kind in cli.KINDS)
        cfg = write_config(tmp_path, f"[DEFAULT]\nseed = 3\nmode = eig\noutput = {out}\n\n"
                           "[global]\nseed = 1\n\n" + body.replace("mode = sv\n", ""))
        called = spy_runners(monkeypatch)
        assert run_cli(["run", cfg]) == (0, "", "")
        assert called == list(cli.KINDS)
        assert out.exists()
        rc = load_config(cfg)
        assert [exp.options["mode"] for exp in rc.experiments if "mode" in exp.options] == ["eig"]

    def test_percent_sign_in_a_value_exits_2(self, tmp_path):
        # configparser interpolates '%' when the sections are read
        cfg = write_config(tmp_path, section("pct", "acs", sequence_a="toeplitz(50%)"))
        code, out, err = run_cli(["run", cfg])
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: cannot parse config {cfg!r}: '%' must be followed")

    def test_random_mutants_exit_2_before_any_runner(self, tmp_path, monkeypatch):
        # seeded draws over every kind: rename a key (a typo, or a key of
        # another kind), drop a required key, or give a key a value its
        # parser refuses; the mutant is the last section, after a valid one
        rng = np.random.default_rng(28)
        every_key = sorted(cli.PARSERS)
        called = spy_runners(monkeypatch)
        out = tmp_path / "report.csv"
        for draw in range(120):
            kind = list(cli.KINDS)[draw % len(cli.KINDS)]
            keys = {key: VALID[key] for key in cli.KINDS[kind]}
            key = str(rng.choice(list(keys)))
            how = draw // len(cli.KINDS) % 3
            if how == 0:
                name = key
                while name in keys or name == "kind":
                    i = int(rng.integers(len(key)))
                    name = str(rng.choice([key[:i] + key[i + 1:], key[:i] + key[i] + key[i:],
                                           key[:i] + key[i + 1:i + 2] + key[i:i + 1] + key[i + 2:],
                                           rng.choice(every_key)]))
                keys[name] = keys.pop(key)
            elif how == 1 and cli.KINDS[kind][key] is cli.REQUIRED:
                del keys[key]
            else:
                keys[key] = str(rng.choice(REFUSED[key]))
            body = section("valid", "embed") + "\n[mutant]\nkind = " + kind + "\n" + "".join(
                f"{k} = {v}\n" for k, v in keys.items())
            cfg = write_config(tmp_path, f"[global]\noutput = {out}\n\n{body}")
            code, stdout, err = run_cli(["run", cfg])
            assert (code, stdout, called) == (2, "", []), body
            assert err.startswith("config error: ") and err.count("\n") == 1, (body, err)
            assert not out.exists()

    def test_every_kind_runs_from_its_valid_section(self, tmp_path):
        body = "".join(section(kind, kind) + "\n" for kind in cli.KINDS)
        code, out, err = run_cli(["run", write_config(tmp_path, body)])
        assert code in (0, 1) and err == ""
        assert {row.split(",")[0] for row in out.splitlines()[1:]} == set(cli.KINDS)


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

    def test_dump_matrices_normal_form_dumps_the_normal_form(self, tmp_path):
        # the dump follows the kind: a normal-form section dumps the normal
        # form it verified at every size
        terms = "x | 2*cos(theta)"
        cfg = write_config(
            tmp_path,
            f"[global]\noutput = {tmp_path / 'report.csv'}\n\n[nf]\nkind = normal-form\n"
            f"terms = {terms}\nsizes = 16, 36, 64\n",
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
        # a counterexample section runs a demo with its own sizes, so no
        # matrix of the run is dumped
        cfg = write_config(
            tmp_path,
            f"[global]\noutput = {tmp_path / 'report.csv'}\n\n[hs]\nkind = counterexample\n"
            "name = half_shift\n",
        )
        code, _, _ = run_cli(["run", cfg, "--dump-matrices"])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "report.csv"]

    @pytest.mark.parametrize("body, key", [
        ("kind = normal-form\nterms = x | 2*cos(theta)\nsequence = identity\nsizes = 16, 36\n",
         "sequence"),
        ("kind = counterexample\nname = half_shift\nsizes = 8\n", "sizes"),
    ], ids=["normal-form-sequence", "counterexample-sizes"])
    def test_dump_matrices_with_a_stray_key_exits_2(self, tmp_path, body, key):
        # the stray key is refused before anything runs or is dumped
        cfg = write_config(tmp_path, f"[global]\noutput = {tmp_path / 'report.csv'}\n\n"
                           f"[x]\n{body}")
        code, out, err = run_cli(["run", cfg, "--dump-matrices"])
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: experiment [x] has unknown key {key!r}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]

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

    @pytest.mark.parametrize("a, b", [("circulant", "toeplitz"), ("toeplitz", "circulant")])
    def test_embed_error_row_of_a_small_circulant(self, tmp_path, a, b):
        # circulant(cos(3*theta)) needs n > 6: on either side, the row carries
        # the generator's error, as when both matrices were built
        cfg = write_config(
            tmp_path,
            f"[emb]\nkind = embed\nsequence_a = {a}(cos(3*theta))\n"
            f"sequence_b = {b}(cos(3*theta))\nsizes = 4, 8\n",
        )
        code, out, _ = run_cli(["run", cfg])
        assert code == 1
        assert out.splitlines()[1:] == [
            'emb,0,"error[circulant needs n > 2*degree, got n=4, degree=3]",0,,FAIL'
        ]

    def test_embed_takes_no_singular_vectors(self, tmp_path, monkeypatch):
        # the misfit's p comes from the two spectra: every SVD the runner
        # makes is values only, and no unitary pair is formed; the rows are
        # group_embed's residual_p within roundoff
        uv = []
        svd = np.linalg.svd

        def spy(A, full_matrices=True, compute_uv=True, **kwargs):
            uv.append(compute_uv)
            return svd(A, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

        specs = [("circulant(2*cos(theta))", "toeplitz(2*cos(theta))"),
                 ("counterexample(half_shift)", "counterexample(jordan_shift)"),
                 ("lt(1 + x | 2*cos(theta))", "lc(1 + x | 2*cos(theta))")]
        sizes = (16, 64, 128)
        body = "".join(f"[e{i}]\nkind = embed\nsequence_a = {a}\nsequence_b = {b}\n"
                       f"sizes = {', '.join(map(str, sizes))}\n\n" for i, (a, b) in enumerate(specs))
        cfg = write_config(tmp_path, body)
        want = [group_embed(build_sequence(a), build_sequence(b), n).residual_p
                for a, b in specs for n in sizes]
        monkeypatch.setattr(np.linalg, "svd", spy)
        code, out, _ = run_cli(["run", cfg])
        assert code == 0 and uv and not any(uv)
        values = [float(row.split(",")[3]) for row in out.splitlines()[1:]]
        np.testing.assert_allclose(values, want, rtol=1e-10, atol=1e-12)

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


class TestHermitianFnScale:
    """hermitian-fn judges A_n Hermitian and its symbol real relative to
    their scale, as normality is judged."""

    def run(self, tmp_path, sequence):
        cfg = write_config(tmp_path, f"[h]\nkind = hermitian-fn\nsequence = {sequence}\n"
                                     "function = t^2\nsizes = 16, 64\n")
        return run_cli(["run", cfg])

    def test_a_small_jordan_shift_is_an_error_row(self, tmp_path):
        # 1e-11 T_n(e^{i theta}) is all off Hermitian, below an absolute 1e-10
        code, out, err = self.run(tmp_path, "toeplitz(0.00000000001*exp(i*theta))")
        assert code == 1
        assert out.splitlines()[1:] == [
            "h,0,error[symbol of a Hermitian sequence must be real-valued],0,,FAIL"]
        assert "Traceback" not in err

    def test_a_large_hermitian_toeplitz_passes(self, tmp_path):
        # its symbol's roundoff lies above an absolute 1e-10
        code, out, _ = self.run(tmp_path, "toeplitz(100000000*cos(theta) + 30000000*cos(2*theta))")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 4 and all(row[5] == "PASS" for row in rows)


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


class TestOversizedInputs:
    """Sizes and grid axes above MAX_SIZE exit 2 before any allocation; within
    it, an allocation numpy cannot make, and a report value that overflows,
    end as the experiment's error row, never a traceback."""

    @pytest.mark.parametrize("keys", [f"sizes = 32, {10**14}", f"sizes = 32, {10**30}",
                                      "sizes = 32, 536870913", f"grid = {10**14}x8\nsizes = 8"])
    def test_above_the_cap_exits_2(self, tmp_path, keys):
        # half_shift has no band: each of these sizes asks for 4 EiB or more
        cfg = write_config(tmp_path, "[big]\nkind = symbol-check\n"
                           f"sequence = counterexample(half_shift)\nsymbol = 1\n{keys}\n")
        code, out, err = run_cli(["run", cfg])
        assert code == 2 and out == "" and f"at most {cli.MAX_SIZE}, got" in err

    @pytest.mark.parametrize("spec, mode, top, row", [
        ("counterexample(half_shift)", "sv", cli.MAX_SIZE, 'big,0,"error[Unable to allocate 4.00'
         ' EiB for an array with shape (536870912, 536870912) and data type complex128]",0,,FAIL'),
        ("circulant(2*cos(theta))", "eig", 10**6, None)])
    def test_sizes_within_the_cap_run(self, tmp_path, spec, mode, top, row):
        cfg = write_config(tmp_path, f"[big]\nkind = symbol-check\nsequence = {spec}\n"
                           f"symbol = 1\nmode = {mode}\nsizes = 32, {top}\ntolerance = 2\n")
        code, out, _ = run_cli(["run", cfg])
        assert code == (row is not None) and [r for r in out.splitlines() if "error[" in r] == [
            row] * (row is not None)

    def test_non_finite_report_value_is_an_error_row(self, tmp_path):
        f = "1" + "0" * 200 + "*cos(theta)"  # |A^H A - A A^H|_F overflows
        cfg = write_config(tmp_path, f"[s]\nkind = shift-test\nsequence = toeplitz({f})\n"
                           f"symbol = {f}\nsizes = 16, 32\n")
        proc = run_installed_cli("run", cfg)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        row = "s,0,error[normality_residual is not finite: nan],0,,FAIL"
        assert proc.stdout.splitlines()[1:] == [row]


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


# every size takes a band route (the band SVD at 512, the band Gram
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

    def test_without_thread_routines_nothing_is_set(self, tmp_path, monkeypatch, threads,
                                                    routes):
        out = tmp_path / "report.csv"
        cfg = write_config(tmp_path, f"[global]\noutput = {out}\n{BAND_CONFIG}")
        assert run_cli(["run", cfg])[0] == 0
        pinned = out.read_bytes()
        for name in ("openblas_get_num_threads", "openblas_set_num_threads"):
            monkeypatch.delitem(matrices._lapack(), name)
        seen = [spy_threads(monkeypatch, cli.RUNNERS, kind, threads)
                for kind in ("symbol-check", "acs")]
        routes.clear()
        assert run_cli(["run", cfg])[0] == 0
        assert out.read_bytes() == pinned
        assert seen == [[2], [2]] and threads() == 2
        assert [entry for entry in routes if entry[0] != "sv"] == [("svdvals", 512, "band", 1),
            ("p_metric", 576, "counts", 24), ("p_metric", 1024, "counts", 32)]


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
