"""Acceptance criteria for the laboratory, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output) and asserts the criterion at its stated tolerance.
"""

import csv
import io
import time
from contextlib import redirect_stdout

import numpy as np
from scipy.optimize import linear_sum_assignment

from glt_lab import (
    GltExpr,
    TrigPoly,
    circulant_seq,
    circulant_spectrum,
    diag_seq,
    group_embed,
    lt_seq,
    optimal_split,
    p_metric,
    parse_expr,
    sv_symbol_residual,
    toeplitz_seq,
    verify_normal_form,
)
from glt_lab.cli import main

X = parse_expr("x", "a")
TWO_COS = TrigPoly.from_coeff_map({1: 1, -1: 1})
SHIFT = TrigPoly.from_coeff_map({1: 1})


def report(number, name, passed):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


def random_trig_corpus(count=20, max_degree=4, seed=20240601):
    rng = np.random.default_rng(seed)
    polys = []
    for _ in range(count):
        d = int(rng.integers(0, max_degree + 1))
        c = rng.standard_normal(2 * d + 1) + 1j * rng.standard_normal(2 * d + 1)
        polys.append(TrigPoly(c))
    return polys


def matching_distance(a, b):
    """Optimal bijective matching distance between two complex multisets."""
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


def test_criterion_1_circulant_exactness():
    # the time limits here count this process's CPU time (BLAS threads
    # included), so load from other processes cannot fail a criterion
    start = time.process_time()
    worst = 0.0
    for f in random_trig_corpus():
        for n in (16, 64, 256):
            lam = np.linalg.eigvals(circulant_seq(f)(n))
            expect = np.diag(circulant_spectrum(f, n))
            worst = max(worst, matching_distance(lam, expect))
    elapsed = time.process_time() - start
    report(1, "circulant-exactness", worst <= 1e-9 and elapsed < 10.0)


def test_criterion_2_corner_rank_bound():
    ok = True
    for f in random_trig_corpus():
        d = f.degree
        for n in (16, 64, 256):
            diff = toeplitz_seq(f)(n) - circulant_seq(f)(n)
            s = np.linalg.svd(diff, compute_uv=False)
            rank = 0 if s[0] == 0 else int(np.count_nonzero(s > 1e-10 * s[0]))
            ok = ok and rank <= 2 * d * d
    report(2, "corner-rank-bound", ok)


def test_criterion_3_lt_approximation_bound():
    ok = True
    for n in (64, 256, 1024):
        m = int(np.sqrt(n))
        A = diag_seq(X)(n) @ toeplitz_seq(TWO_COS)(n) - lt_seq(X, TWO_COS)(n)
        p = p_metric(A)
        bound = (2 * m + 2 * np.sqrt(n)) / n + 3 * 2.0 / m
        ok = ok and p <= bound + 1e-8
    report(3, "lt-approximation-bound", ok)


def test_criterion_4_normal_form_fidelity():
    start = time.process_time()
    expr = GltExpr(((X, TWO_COS),))
    sizes = (64, 256, 1024)
    rep = verify_normal_form(expr, sizes)
    ps = rep.acs_p_values
    decreasing = all(b < a for a, b in zip(ps, ps[1:]))
    final_ok = ps[-1] <= 0.15
    eig_ok = all(
        rep.eig_table.max_per_size()[i] <= 10.0 / np.sqrt(n) for i, n in enumerate(sizes)
    )
    elapsed = time.process_time() - start
    report(
        4,
        "normal-form-fidelity",
        decreasing and final_ok and eig_ok and elapsed < 120.0,
    )


def test_criterion_5_szego_ladder():
    table = sv_symbol_residual(
        toeplitz_seq(TWO_COS), TWO_COS, (32, 512), resolution=(4, 4096)
    )
    r32, r512 = table.residuals
    violations = int(np.sum(r512 > r32 / 3))
    report(5, "szego-ladder", violations <= 1)


def test_criterion_6_p_metric_oracle():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(50):
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        # independent route: Gram-matrix eigenvalues + exhaustive enumeration
        w = np.linalg.eigvalsh(A.conj().T @ A)
        s = np.sqrt(np.clip(w, 0, None))[::-1]
        brute = min(
            (i - 1) / 8 + (s[i - 1] if i <= 8 else 0.0) for i in range(1, 10)
        )
        p = p_metric(A)
        ok = ok and abs(p - brute) <= 1e-8
        split = optimal_split(A)
        s_r = np.linalg.svd(split.rank_part, compute_uv=False)
        rank = int(np.count_nonzero(s_r > 1e-10 * max(s_r[0], 1e-300)))
        achieved = rank / 8 + np.linalg.svd(split.norm_part, compute_uv=False)[0]
        ok = ok and achieved - p <= 1e-10
    report(6, "p-metric-oracle", ok)


def test_criterion_7_group_embedding():
    ok = True
    for n in (32, 128):
        pair = group_embed(circulant_seq(SHIFT), toeplitz_seq(SHIFT), n)
        ok = ok and pair.residual_p <= 1 / n + 1e-8
    report(7, "group-embedding", ok)


def run_demo_csv(name):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["demo", name])
    reader = csv.reader(io.StringIO(buf.getvalue()))
    next(reader)
    return code, list(reader)


def test_criterion_8_counterexample_suite():
    code_alt, rows_alt = run_demo_csv("alt_identity")
    gaps = [float(r[3]) for r in rows_alt if r[2] == "even_odd_gap"]
    alt_ok = code_alt == 1 and gaps and gaps[0] >= 0.9

    code_hs, rows_hs = run_demo_csv("half_shift")
    res_rows = [r for r in rows_hs if r[2] == "sv_residual_max"]
    sq_rows = [r for r in rows_hs if r[2] == "square_norm"]
    hs_ok = (
        code_hs == 0
        and res_rows
        and all(r[5] == "PASS" for r in res_rows)
        and all(float(r[3]) <= float(r[4]) for r in res_rows)
        and sq_rows
        and all(float(r[3]) == 0.0 for r in sq_rows)
    )

    code_sc, rows_sc = run_demo_csv("scaled_cycle")
    zd = [r for r in rows_sc if r[2] == "zero_distributed"]
    p_rows = [r for r in rows_sc if r[2] == "p"]
    sc_ok = (
        code_sc == 0
        and zd
        and zd[0][5] == "PASS"
        and p_rows
        and all(float(r[3]) <= 2.0 / int(r[1]) + 1e-9 for r in p_rows)
    )
    report(8, "counterexample-suite", alt_ok and hs_ok and sc_ok)


def test_criterion_9_determinism(tmp_path):
    out = tmp_path / "report.csv"
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        f"[global]\nseed = 11\noutput = {out}\n\n"
        "[szego]\nkind = symbol-check\nsequence = toeplitz(2*cos(theta))\n"
        "symbol = 2*cos(theta)\nsizes = 16, 32, 64\n\n"
        "[dist]\nkind = acs\nsequence_a = toeplitz(2*cos(theta))\n"
        "sequence_b = circulant(2*cos(theta))\nsizes = 8, 16, 32, 64\n",
        encoding="utf-8",
    )
    code1 = main(["run", str(cfg)])
    first = out.read_bytes()
    code2 = main(["run", str(cfg)])
    second = out.read_bytes()
    report(9, "determinism", code1 == code2 == 0 and first == second and len(first) > 0)
