import importlib
import math
import re

import numpy as np
import pytest
import scipy.linalg

from glt_lab import (
    DomainError,
    EvalError,
    TrigPoly,
    UnknownNameError,
    block_layout,
    circulant,
    circulant_seq,
    circulant_spectrum,
    counterexample,
    counterexample_seq,
    d_af,
    GltExpr,
    diag_sampling,
    diag_seq,
    fourier_matrix,
    glt_product_seq,
    lc_op,
    lc_seq,
    lt_op,
    lt_seq,
    normal_form,
    normal_form_seq,
    parse_expr,
    q_block,
    toeplitz,
    toeplitz_seq,
)
from glt_lab import matrices
from glt_lab.cli import build_sequence
from glt_lab.errors import GltLabError
from glt_lab.normal_form import diagonal_factor_seq

ONE = parse_expr("1", "a")
X = parse_expr("x", "a")
CONST1 = TrigPoly.from_coeff_map({0: 1})
TWO_COS = TrigPoly.from_coeff_map({1: 1, -1: 1})
SHIFT = TrigPoly.from_coeff_map({1: 1})


class TestBlockLayout:
    @pytest.mark.parametrize("n", range(4, 150))
    def test_partition_identities(self, n):
        lay = block_layout(n)
        assert lay.m**2 <= n < (lay.m + 1) ** 2
        assert lay.t == n % lay.m
        assert lay.m * lay.block + lay.t == n


SIZE_RULE = "locally structured operators need n >= 4"
LOCAL_BUILDERS = {
    "block_layout": block_layout,
    "lt_op": lambda n: lt_op(X, TWO_COS, n),
    "lc_op": lambda n: lc_op(X, TWO_COS, n),
    "q_block": q_block,
    "d_af": lambda n: d_af(X, TWO_COS, n),
    "normal_form": lambda n: normal_form(GltExpr(((X, TWO_COS),)), n),
    "normal_form_seq": lambda n: normal_form_seq(GltExpr(((X, TWO_COS),)))(n),
    "lt_seq.svals": lambda n: lt_seq(X, TWO_COS).svals(n),
    "lc_seq.eigs": lambda n: lc_seq(X, TWO_COS).eigs(n),
    "lc_seq.band": lambda n: lc_seq(X, TWO_COS).band(n),
    "normal_form_seq.band": lambda n: normal_form_seq(GltExpr(((X, TWO_COS),))).band(n),
}


class TestSizeRule:
    """block_layout holds the one size check of the locally structured
    operators, their factors and their closed-form spectra."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("build", LOCAL_BUILDERS.values(), ids=LOCAL_BUILDERS.keys())
    def test_small_sizes_raise_one_error(self, build, n):
        with pytest.raises(DomainError) as info:
            build(n)
        assert str(info.value) == SIZE_RULE


class TestToeplitz:
    def test_constant_gives_identity(self):
        np.testing.assert_array_equal(toeplitz(CONST1, 5), np.eye(5))

    def test_shift_polynomial_fills_subdiagonal(self):
        T = toeplitz(SHIFT, 4)
        np.testing.assert_array_equal(T, np.eye(4, k=-1))

    def test_two_cos_tridiagonal(self):
        T = toeplitz(TWO_COS, 5)
        np.testing.assert_array_equal(T, np.eye(5, k=1) + np.eye(5, k=-1))

    def test_bandwidth_equals_degree(self):
        f = TrigPoly.from_coeff_map({-2: 1j, 0: 3, 2: 2})
        T = toeplitz(f, 8)
        for i in range(8):
            for j in range(8):
                if abs(i - j) > 2:
                    assert T[i, j] == 0
                else:
                    assert T[i, j] == f.coeff(i - j)


class TestDiagSampling:
    def test_constant(self):
        np.testing.assert_array_equal(diag_sampling(ONE, 3), np.eye(3))

    def test_linear(self):
        np.testing.assert_allclose(diag_sampling(X, 4), np.diag([0.25, 0.5, 0.75, 1.0]))

    def test_square(self):
        np.testing.assert_allclose(diag_sampling(parse_expr("x^2", "a"), 2), np.diag([0.25, 1.0]))

    def test_singular_node_raises(self):
        with pytest.raises(EvalError):
            diag_sampling(parse_expr("1/(x-1)", "a"), 4)


class TestCirculant:
    def test_shift_matches_cyclic_matrix(self):
        # downward cyclic shift: subdiagonal ones and a top-right corner one,
        # sharing the band of toeplitz(SHIFT, 4)
        expect = np.array(
            [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=float
        )
        np.testing.assert_array_equal(circulant(SHIFT, 4).real, expect)

    def test_band_agrees_with_toeplitz(self):
        f = TrigPoly.from_coeff_map({-2: 1j, -1: 2, 1: 3, 2: 0.5})
        C = circulant(f, 9)
        T = toeplitz(f, 9)
        for i in range(9):
            for j in range(9):
                if abs(i - j) <= 2:
                    assert C[i, j] == T[i, j]

    def test_constant_identity(self):
        np.testing.assert_array_equal(circulant(CONST1, 5), np.eye(5))

    def test_two_cos_adds_corners(self):
        C = circulant(TWO_COS, 5)
        expect = np.eye(5, k=1) + np.eye(5, k=-1)
        expect[0, 4] = expect[4, 0] = 1
        np.testing.assert_array_equal(C.real, expect)

    def test_rows_are_cyclic_shifts(self):
        f = TrigPoly.from_coeff_map({-1: 2j, 0: 1, 1: 3})
        C = circulant(f, 7)
        for i in range(1, 7):
            np.testing.assert_array_equal(C[i], np.roll(C[i - 1], 1))

    def test_size_precondition(self):
        with pytest.raises(DomainError):
            circulant(TWO_COS, 2)


class TestBuildersMatchDenseFormulas:
    """The circulant and glt builders against the dense formulas they
    replaced: a sum of 2d+1 permutation matrices, and D_n(a) @ T_n(f)."""

    @staticmethod
    def permutation_sum(f, n):
        M = np.zeros((n, n), dtype=complex)
        for k in range(-f.degree, f.degree + 1):
            c = f.coeff(k)
            if c != 0:
                P = np.zeros((n, n))
                P[np.arange(n), (np.arange(n) - k) % n] = 1.0
                M += c * P
        return M

    @pytest.mark.parametrize("n", [5, 6, 7, 12, 17])
    @pytest.mark.parametrize(
        "f",
        [
            CONST1,
            SHIFT,
            TWO_COS,
            TrigPoly.from_coeff_map({-2: 1j, -1: -2, 1: 3.5, 2: -0.5 - 1e-3j}),
        ],
    )
    def test_circulant_bitwise(self, f, n):
        np.testing.assert_array_equal(circulant(f, n), self.permutation_sum(f, n))

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
    def test_glt_rows_scaled_bitwise_for_real_coefficients(self, n):
        f = TrigPoly.from_coeff_map({-1: 2j, 0: 1, 1: -0.5, 2: 0.25 + 1j})
        expr = GltExpr(((X, f), (parse_expr("1+x^2", "a"), TWO_COS)))
        oracle = sum(diag_sampling(a, n) @ toeplitz(g, n) for a, g in expr.terms)
        np.testing.assert_array_equal(glt_product_seq(expr)(n), oracle)

    @pytest.mark.parametrize("n", [5, 16, 33])
    def test_glt_rows_scaled_within_one_rounding_for_complex_coefficients(self, n):
        # a fused complex product in the matrix multiply may round differently
        f = TrigPoly.from_coeff_map({-1: 2j, 0: 1, 1: -0.5 + 0.3j})
        expr = GltExpr(((parse_expr("x+i*x^2", "a"), f),))
        oracle = diag_sampling(expr.terms[0][0], n) @ toeplitz(f, n)
        np.testing.assert_allclose(glt_product_seq(expr)(n), oracle, rtol=1e-15, atol=0)

    def test_glt_size_and_pole_errors(self):
        expr = GltExpr(((parse_expr("1/(x-0.5)", "a"), TWO_COS),))
        with pytest.raises(DomainError, match="size must be positive"):
            glt_product_seq(expr)(0)
        with pytest.raises(EvalError, match="non-finite at x=0.5"):
            glt_product_seq(expr)(4)


class TestBuildersMatchScipy:
    """The numpy builders against the scipy constructions they replaced,
    entry for entry."""

    F_BUILDER = [
        TrigPoly.from_coeff_map({-2: 0.4, -1: 1.1, 0: 1.0, 1: 0.9, 2: -0.4}),
        TrigPoly.from_coeff_map({-2: 1j, -1: -2, 1: 3.5, 2: -0.5 - 1e-3j}),
    ]
    A_BUILDER = [parse_expr("1+x^2", "a"), parse_expr("x+i*x^2", "a")]

    @staticmethod
    def random_poly(degree, complex_coeffs):
        rng = np.random.default_rng(degree)
        c = rng.standard_normal(2 * degree + 1)
        return TrigPoly(c + 1j * rng.standard_normal(c.size) if complex_coeffs else c)

    @staticmethod
    def scipy_toeplitz(f, n):
        col = np.array([f.coeff(k) for k in range(n)], dtype=complex)
        row = np.array([f.coeff(-k) for k in range(n)], dtype=complex)
        return scipy.linalg.toeplitz(col, row)

    @staticmethod
    def scipy_circulant(f, n):
        col = np.zeros(n, dtype=complex)
        for k in range(-f.degree, f.degree + 1):
            col[k % n] = f.coeff(k)
        return scipy.linalg.circulant(col)

    @staticmethod
    def grid(a, m):
        nodes = np.arange(1, m + 1) / m
        return np.broadcast_to(a(x=nodes), nodes.shape).astype(complex)

    @pytest.mark.parametrize("complex_coeffs", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("degree", [0, 1, 4, 40])
    @pytest.mark.parametrize("n", [1, 2, 5, 33])
    def test_toeplitz(self, n, degree, complex_coeffs):
        # degree 4 and 40 reach n - 1 at the small sizes: the band fills the matrix
        f = self.random_poly(degree, complex_coeffs)
        assert np.array_equal(toeplitz(f, n), self.scipy_toeplitz(f, n))

    @pytest.mark.parametrize("complex_coeffs", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 16])
    @pytest.mark.parametrize("extra", [1, 2, 33])
    def test_circulant(self, degree, extra, complex_coeffs):
        # extra = 1 is the smallest legal size, n = 2*degree + 1
        f = self.random_poly(degree, complex_coeffs)
        n = 2 * degree + extra
        assert np.array_equal(circulant(f, n), self.scipy_circulant(f, n))

    @pytest.mark.parametrize("n", [9, 16, 100, 10, 40, 34], ids=lambda n: f"n{n}-t{n % math.isqrt(n)}")
    @pytest.mark.parametrize("k", [0, 1], ids=["real", "complex"])
    def test_lt_op(self, n, k):
        a, f = self.A_BUILDER[k], self.F_BUILDER[k]
        lay = block_layout(n)
        T = self.scipy_toeplitz(f, lay.block)
        oracle = scipy.linalg.block_diag(*(v * T for v in self.grid(a, lay.m)),
                                         np.zeros((lay.t, lay.t)))
        assert np.array_equal(lt_op(a, f, n), oracle)

    @pytest.mark.parametrize("n", [25, 100, 34, 40], ids=lambda n: f"n{n}-t{n % math.isqrt(n)}")
    @pytest.mark.parametrize("k", [0, 1], ids=["real", "complex"])
    def test_lc_op(self, n, k):
        a, f = self.A_BUILDER[k], self.F_BUILDER[k]
        lay = block_layout(n)
        C = self.scipy_circulant(f, lay.block)
        oracle = scipy.linalg.block_diag(*(v * C for v in self.grid(a, lay.m)),
                                         np.zeros((lay.t, lay.t)))
        assert np.array_equal(lc_op(a, f, n), oracle)

    @pytest.mark.parametrize("n", [4, 9, 16, 5, 10, 40], ids=lambda n: f"n{n}-t{n % math.isqrt(n)}")
    def test_q_block(self, n):
        lay = block_layout(n)
        F = fourier_matrix(lay.block)
        oracle = scipy.linalg.block_diag(*[F] * lay.m, np.eye(lay.t))
        assert np.array_equal(q_block(n), oracle)


class TestCirculantSpectrum:
    def test_constant(self):
        np.testing.assert_array_equal(circulant_spectrum(CONST1, 4), np.eye(4))

    def test_fourth_roots(self):
        D = circulant_spectrum(SHIFT, 4)
        np.testing.assert_allclose(np.diag(D), [1, 1j, -1, -1j], atol=1e-14)

    def test_two_cos_values(self):
        D = circulant_spectrum(TWO_COS, 4)
        np.testing.assert_allclose(np.diag(D), [2, 0, -2, 0], atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rejects_the_sizes_circulant_rejects(self, n):
        f = TrigPoly.from_coeff_map({-2: 1, 2: 1})
        for build in (circulant, circulant_spectrum):
            with pytest.raises(DomainError) as info:
                build(f, n)
            assert str(info.value) == f"circulant needs n > 2*degree, got n={n}, degree=2"


class TestFourierMatrix:
    def test_size_one(self):
        np.testing.assert_allclose(fourier_matrix(1), [[1]], atol=1e-15)

    def test_size_two(self):
        np.testing.assert_allclose(
            fourier_matrix(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64])
    def test_unitary(self, n):
        F = fourier_matrix(n)
        assert np.abs(F.conj().T @ F - np.eye(n)).max() <= 1e-12

    def test_diagonalizes_cyclic_shift(self):
        # independent oracle: direct triple product against the shift matrix
        F = fourier_matrix(4)
        D = circulant_spectrum(SHIFT, 4)
        C = circulant(SHIFT, 4)
        assert np.abs(F.conj().T @ D @ F - C).max() <= 1e-12

    @pytest.mark.parametrize("n", [8, 21])
    def test_diagonalizes_general_circulant(self, n):
        f = TrigPoly.from_coeff_map({-2: 1 + 2j, 0: 0.5, 1: -1j})
        F = fourier_matrix(n)
        D = circulant_spectrum(f, n)
        assert np.abs(F.conj().T @ D @ F - circulant(f, n)).max() <= 1e-10


def kron_block_oracle(block_vals, B, n):
    """Independent assembly: kron(diag(values), B) padded with zeros."""
    core = np.kron(np.diag(block_vals), B)
    M = np.zeros((n, n), dtype=complex)
    M[: core.shape[0], : core.shape[1]] = core
    return M


class TestLocallyToeplitz:
    def test_identity_case(self):
        np.testing.assert_array_equal(lt_op(ONE, CONST1, 9), np.eye(9))

    def test_step_diagonal(self):
        expect = np.diag([1 / 3] * 3 + [2 / 3] * 3 + [1.0] * 3)
        np.testing.assert_allclose(lt_op(X, CONST1, 9), expect, atol=1e-15)

    def test_matches_kronecker_oracle(self):
        n = 10  # m=3, block=3, t=1
        got = lt_op(ONE, TWO_COS, n)
        oracle = kron_block_oracle(np.ones(3), toeplitz(TWO_COS, 3), n)
        np.testing.assert_allclose(got, oracle, atol=1e-15)
        assert np.abs(got[9, :]).max() == 0 and np.abs(got[:, 9]).max() == 0

    def test_size_precondition(self):
        with pytest.raises(DomainError):
            lt_op(ONE, CONST1, 3)


class TestLocallyCirculant:
    def test_identity_case(self):
        np.testing.assert_array_equal(lc_op(ONE, CONST1, 9), np.eye(9))

    def test_matches_definition_oracle(self):
        n = 16  # m=4, block=4
        got = lc_op(X, SHIFT, n)
        oracle = kron_block_oracle(np.arange(1, 5) / 4, circulant(SHIFT, 4), n)
        np.testing.assert_allclose(got, oracle, atol=1e-15)

    @pytest.mark.parametrize("n", [16, 25, 40, 100])
    def test_normality(self, n):
        A = lc_op(X, TWO_COS, n)
        assert np.linalg.norm(A.conj().T @ A - A @ A.conj().T, "fro") <= 1e-10

    def test_block_circulant_precondition(self):
        # n=9 gives block=3 which cannot hold a degree-2 circulant
        with pytest.raises(DomainError):
            lc_op(ONE, TrigPoly.from_coeff_map({2: 1, -2: 1}), 9)


class TestQBlockAndDiagFactors:
    def test_block_structure_n9(self):
        Q = q_block(9)
        F3 = fourier_matrix(3)
        for i in range(3):
            np.testing.assert_array_equal(Q[3 * i : 3 * i + 3, 3 * i : 3 * i + 3], F3)
        assert np.abs(Q.conj().T @ Q - np.eye(9)).max() <= 1e-12

    def test_trailing_identity_n10(self):
        Q = q_block(10)
        assert Q[9, 9] == 1
        assert np.abs(Q[9, :9]).max() == 0

    @pytest.mark.parametrize("af", [(ONE, CONST1), (X, SHIFT), (X, TWO_COS)])
    def test_conjugation_identity(self, af):
        a, f = af
        n = 16
        lhs = lc_op(a, f, n)
        Q = q_block(n)
        D = d_af(a, f, n)
        assert np.abs(lhs - Q.conj().T @ D @ Q).max() <= 1e-10

    def test_d_af_identity(self):
        np.testing.assert_array_equal(d_af(ONE, CONST1, 9), np.eye(9))

    def test_d_af_step(self):
        expect = np.diag([1 / 3] * 3 + [2 / 3] * 3 + [1.0] * 3)
        np.testing.assert_allclose(d_af(X, CONST1, 9), expect, atol=1e-15)

    def test_d_af_roots_of_unity(self):
        D = d_af(ONE, SHIFT, 16)
        np.testing.assert_allclose(np.diag(D), np.tile([1, 1j, -1, -1j], 4), atol=1e-12)


class TestCounterexamples:
    def test_alt_identity(self):
        np.testing.assert_array_equal(counterexample("alt_identity", 3), -np.eye(3))
        np.testing.assert_array_equal(counterexample("alt_identity", 4), np.eye(4))

    def test_half_shift_even(self):
        A = counterexample("half_shift", 4)
        expect = np.zeros((4, 4))
        expect[0, 2] = expect[1, 3] = 1
        np.testing.assert_array_equal(A.real, expect)
        assert np.abs(A @ A).max() == 0

    @pytest.mark.parametrize("n", [2, 5, 8, 13])
    def test_half_shift_square_vanishes(self, n):
        A = counterexample("half_shift", n)
        assert np.abs(A @ A).max() == 0

    def test_scaled_cycle_small(self):
        E = counterexample("scaled_cycle", 3)
        assert E[0, 1] == pytest.approx(1 / 3)
        assert E[1, 2] == pytest.approx(1 / 3)
        assert E[2, 0] == 9
        # oracle: E^H E is diagonal, so singular values are the column norms
        col_norms = np.sqrt(np.diag(E.conj().T @ E).real)
        np.testing.assert_allclose(np.sort(col_norms), [1 / 3, 1 / 3, 9], atol=1e-14)
        sv = np.linalg.svd(E, compute_uv=False)
        np.testing.assert_allclose(sv, [9, 1 / 3, 1 / 3], atol=1e-12)

    def test_scaled_cycle_cap(self):
        E = counterexample("scaled_cycle", 13)
        assert E[12, 0] == 1e3
        assert counterexample("scaled_cycle", 12)[11, 0] == pytest.approx(12.0**11)
        seq = counterexample_seq("scaled_cycle")
        assert seq.info["corner_capped_above"] == 12

    def test_jordan_shift_is_shift_toeplitz(self):
        np.testing.assert_array_equal(
            counterexample("jordan_shift", 6), toeplitz(SHIFT, 6)
        )

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            counterexample("not_a_thing", 4)


class TestCornerRank:
    @pytest.mark.parametrize("seed", range(6))
    def test_toeplitz_circulant_difference_rank(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(0, 5))
        f = TrigPoly(rng.standard_normal(2 * d + 1) + 1j * rng.standard_normal(2 * d + 1))
        n = 32
        diff = toeplitz(f, n) - circulant(f, n)
        s = np.linalg.svd(diff, compute_uv=False)
        if s[0] == 0:
            rank = 0
        else:
            rank = int(np.count_nonzero(s > 1e-10 * s[0]))
        assert rank <= 2 * d * d


class TestDeterminism:
    def test_generators_are_pure(self):
        seq = counterexample_seq("scaled_cycle")
        assert seq(9).tobytes() == seq(9).tobytes()
        a = parse_expr("sin(x)", "a")
        assert lt_op(a, TWO_COS, 20).tobytes() == lt_op(a, TWO_COS, 20).tobytes()


# f with a complex, a zero and a negative coefficient, so products and sums
# of the band builders meet signed zeros
F_BAND = TrigPoly.from_coeff_map({-2: 0.5 - 0.25j, -1: 0.0, 0: -1.5, 1: 2j})
A_NEG = parse_expr("x - 0.5", "a")
A_CPLX = parse_expr("1 - x^2 + i*x", "a")


def band_seqs():
    """(name, sequence, declared half-bandwidth at n) of every family that
    carries `band`."""
    two = GltExpr(((A_NEG, F_BAND), (A_CPLX, TWO_COS)))
    return [
        ("toeplitz", toeplitz_seq(F_BAND), lambda n: 2),
        ("toeplitz-real", toeplitz_seq(TWO_COS), lambda n: 1),
        # wider than n + 1 at n = 1 and 2
        ("toeplitz-deg4", toeplitz_seq(TrigPoly.from_coeff_map({-4: 1, 0: 0.5, 3: -2j})),
         lambda n: 4),
        # c * 0 = -0 + 0j at c = -1, so the shift meets signed zeros
        ("toeplitz-shifted", toeplitz_seq(F_BAND).shifted(-1.0), lambda n: 2),
        # periodic: the corners sit in the wrapped slots
        ("circulant", circulant_seq(F_BAND), lambda n: 2),
        ("circulant-shifted", circulant_seq(TWO_COS).shifted(0.5 - 1j), lambda n: 1),
        ("glt", glt_product_seq(two), lambda n: 2),
        ("glt-one-term", glt_product_seq(GltExpr(((A_NEG, SHIFT),))), lambda n: 1),
        ("lc", lc_seq(A_CPLX, F_BAND), lambda n: block_layout(n).block - 1),
        ("normal-form", normal_form_seq(two), lambda n: block_layout(n).block - 1),
        ("diagonal-factor", diagonal_factor_seq(two), lambda n: 0),
        ("diag", diag_seq(A_NEG), lambda n: 0),
        ("identity", matrices.identity_seq(), lambda n: 0),
        ("zero", matrices.zero_seq(), lambda n: 0),
        # a negative a: its block-crossing and wrapped slots stay +0
        ("lt", lt_seq(A_NEG, F_BAND), lambda n: 2),
        ("lt-complex", lt_seq(A_CPLX, TWO_COS), lambda n: 1),
        ("alt-identity", counterexample_seq("alt_identity"), lambda n: 0),
        ("jordan-shift", counterexample_seq("jordan_shift"), lambda n: 1),
    ]


BAND_SEQS = band_seqs()
BAND_IDS = [name for name, _, _ in BAND_SEQS]


# one spec per head of `cli.build_sequence`, and each counterexample, with
# negative coefficient functions and complex symbols where a head takes them
EVERY_HEAD = [
    "toeplitz(0.5 - 2*cos(theta) + i*sin(2*theta))",
    "circulant(0.5 - 2*cos(theta) + i*sin(2*theta))",
    "diag(x - 0.5)",
    "lt(x - 0.5 | 0.5 - 2*cos(theta) + i*sin(2*theta))",
    "lc(x - 0.5 | 0.5 - 2*cos(theta))",
    "glt(x - 0.5 | 2*cos(theta) ; 1 + i*x | i*sin(2*theta))",
    "normal-form(x - 0.5 | 2*cos(theta) ; 1 + i*x | i*sin(2*theta))",
    *(f"counterexample({name})" for name in matrices.COUNTEREXAMPLES),
    "identity",
    "zero",
]


def raised(fn):
    with pytest.raises(GltLabError) as info:
        fn()
    return type(info.value), str(info.value)


class TestBandHooks:
    """`band` is bit for bit the generator's matrix in band storage, and
    raises the generator's errors; the dense generators are read from it."""

    def test_which_families_carry_band(self):
        assert all(seq.band is not None for _, seq, _ in BAND_SEQS)
        assert matrices.DENSE_ONLY == ("half_shift", "scaled_cycle")
        for name in matrices.COUNTEREXAMPLES:
            seq = counterexample_seq(name)
            assert (seq.band is None) == (name in matrices.DENSE_ONLY)
            assert (seq.shifted(1.0).band is None) == (name in matrices.DENSE_ONLY)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 95, 96, 512, 1000])
    def test_every_head_carries_a_band_or_is_dense_only(self, n):
        # every head of `build_sequence`: the band's dense matrix is the
        # generator's bit for bit, signed zeros included (alt_identity at odd
        # n, lt's block-crossing slots at t = 8 when n = 1000), and both
        # raise the same error at the same n
        heads = set(re.findall(r"([a-z-]+)(?:\(|,|\.)", build_sequence.__doc__.split(":")[1]))
        assert heads == {spec.partition("(")[0] for spec in EVERY_HEAD}
        for spec in EVERY_HEAD:
            seq = build_sequence(spec)
            if seq.band is None:
                assert spec.removeprefix("counterexample(")[:-1] in matrices.DENSE_ONLY
                continue
            try:
                A = seq(n)
            except GltLabError:
                assert raised(lambda: seq.band(n)) == raised(lambda: seq(n)), spec
                continue
            got = matrices._band_to_dense(*seq.band(n))
            assert got.dtype == A.dtype and got.tobytes() == A.tobytes(), spec
            if spec.startswith(("lt(", "lc(", "normal-form(")):
                # off the blocks, in slots that cross blocks too, every zero is +0
                lay = block_layout(n)
                at = np.minimum(np.arange(n) // lay.block, lay.m)  # the tail is block m
                off = (at[:, None] != at) | (at[:, None] == lay.m)
                assert not np.signbit(A[off].view(float)).any(), spec

    # n <= 2 deg, n = 1, a tail block (t > 0 at 10, 26, 50, 101) and none
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 25, 26, 50, 64, 101, 144])
    @pytest.mark.parametrize("case", BAND_SEQS, ids=BAND_IDS)
    def test_band_is_the_band_storage_of_the_generator(self, case, n):
        name, seq, width = case
        try:
            A = seq(n)
        except GltLabError:
            # the block, circulant and counterexample size rules
            assert name in ("lc", "normal-form", "diagonal-factor", "circulant",
                            "circulant-shifted", "lt", "lt-complex", "alt-identity",
                            "jordan-shift")
            return
        ab, b = seq.band(n)
        assert b == width(n)
        want = matrices._band_storage(A, b)
        assert ab.dtype == want.dtype and ab.shape == want.shape
        assert ab.tobytes() == want.tobytes()
        assert matrices._band_to_dense(ab, b).tobytes() == A.tobytes()

    @pytest.mark.parametrize("n", [26, 50, 101])
    @pytest.mark.parametrize("name", ["lc", "normal-form"])
    def test_tail_rows_and_columns_are_zero(self, name, n):
        seq = dict((k, s) for k, s, _ in BAND_SEQS)[name]
        ab, b = seq.band(n)
        t = block_layout(n).t
        assert t > 0 and not ab[n - t :].any()
        A = matrices._band_to_dense(ab, b)
        assert not A[n - t :].any() and not A[:, n - t :].any()

    @pytest.mark.parametrize("n", range(20))
    @pytest.mark.parametrize("case", BAND_SEQS, ids=BAND_IDS)
    def test_errors_match_the_generator(self, case, n):
        _, seq, _ = case
        try:
            seq(n)
        except GltLabError:
            assert raised(lambda: seq.band(n)) == raised(lambda: seq(n))
        else:
            seq.band(n)

    @pytest.mark.parametrize("n", [4, 16, 36, 100])
    def test_pole_errors_match_the_generator(self, n):
        # the nodes i/m and i/n hit the pole at x = 1/2 whenever m or n is even
        pole = parse_expr("1/(x-0.5)", "a")
        for seq in (glt_product_seq(GltExpr(((ONE, SHIFT), (pole, CONST1)))),
                    lc_seq(pole, CONST1), normal_form_seq(GltExpr(((ONE, CONST1), (pole, CONST1)))),
                    diagonal_factor_seq(GltExpr(((ONE, CONST1), (pole, CONST1))))):
            want = raised(lambda: seq(n))
            assert want[0] is EvalError
            assert raised(lambda: seq.band(n)) == want

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n, b", [(1, 0), (1, 3), (3, 5), (4, 2), (7, 2), (5, 2), (9, 4),
                                      (40, 6)])
    def test_band_to_dense_inverts_band_storage(self, n, b, dtype):
        # entries drawn with signed zeros; when n > 2b the wrapped slots hold
        # corner entries, and when n <= 2b the slots off the matrix are +0
        rng = np.random.default_rng(n + b)
        ab = rng.choice([-1.5, -0.0, 0.0, 2.0], size=(n, 2 * b + 1)).astype(dtype)
        if dtype is complex:
            ab += 1j * rng.choice([-0.0, 0.0, 0.5], size=ab.shape)
        ab[matrices._band_storage(np.ones((n, n)), b) == 0] = 0
        row = np.add.outer(np.arange(n), np.arange(-b, b + 1))  # of the entry each slot holds
        wrapped = (row < 0) | (row >= n)
        assert matrices._Band(ab, b).wraps() == (n > 2 * b and ab[wrapped].any())
        if n > 2 * b >= 4:
            assert ab[wrapped].any()
        A = matrices._band_to_dense(ab, b)
        assert A.dtype == ab.dtype
        assert matrices._band_storage(A, b).tobytes() == ab.tobytes()
        # below the band floor the reduced core is scattered from the slots,
        # its rows and columns read from the same runs as A's
        core, want = matrices._band_reduce(matrices._Band(ab, b)), matrices._svd_reduce(A)
        assert core.shape == want.shape and core.tobytes() == want.tobytes()


def slot_index(n, b):
    """The index-array form of band storage: slot [j, b + d] stands for entry
    (i[j, b + d], j), i = (j + d) mod n, and is `off` (no entry) where j + d
    lies off the matrix and n <= 2b."""
    raw = np.add.outer(np.arange(n), np.arange(-b, b + 1))
    i = raw % n
    return i, (i != raw) & (n <= 2 * b)


class TestSliceBandStorage:
    """`_band_storage` and `_band_to_dense` copy one diagonal slice per run
    of slots; the index-array form is their bitwise oracle."""

    CASES = [(1, 0), (1, 3), (2, 1), (3, 5), (4, 2), (5, 2), (7, 2), (7, 3), (9, 4), (10, 4),
             (40, 6), (64, 0), (64, 31), (64, 32)]

    @staticmethod
    def draw(shape, dtype, rng):
        M = rng.choice([-1.5, -0.0, 0.0, 2.0], size=shape).astype(dtype)
        if dtype is complex:
            M += 1j * rng.choice([-0.0, 0.0, 0.5], size=shape)
        return M

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n, b", CASES)
    def test_band_storage_equals_the_index_arrays(self, n, b, dtype):
        M = self.draw((n, n), dtype, np.random.default_rng(n + 7 * b))
        i, off = slot_index(n, b)
        want = M[i, np.arange(n)[:, None]]
        want[off] = 0
        assert matrices._band_storage(M, b).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n, b", CASES)
    def test_band_to_dense_equals_the_index_arrays(self, n, b, dtype):
        rng = np.random.default_rng(n + 7 * b)
        ab = self.draw((n, 2 * b + 1), dtype, rng)
        i, off = slot_index(n, b)
        ab[off] = 0  # a slot that stands for no entry holds +0
        want = np.zeros((n, n), dtype)
        want[i[~off], np.nonzero(~off)[0]] = ab[~off]
        assert matrices._band_to_dense(ab, b).tobytes() == want.tobytes()

    def test_sequences_return_c_contiguous_arrays(self):
        seq = matrices.MatrixSeq("transposed", lambda n: np.arange(n * n).reshape(n, n).T)
        A = seq(5)
        assert A.flags.c_contiguous and A.dtype == complex
        assert A.tobytes() == np.arange(25.0).reshape(5, 5).T.astype(complex).tobytes()

    def test_no_index_arrays(self, traced_peak):
        # the index-array form held three n x (2b+1) int64 arrays
        M = np.ones((1024, 1024), complex)
        ab = matrices._band_storage(M, 32)
        assert traced_peak(matrices._band_storage, M, 32) < 1.1 * ab.nbytes
        assert traced_peak(matrices._band_to_dense, ab, 32) < M.nbytes + 64 * 1024


def seq_builders():
    """Every public `*_seq` builder, with the arguments each is built from."""
    two = GltExpr(((A_NEG, F_BAND), (A_CPLX, TWO_COS)))
    args = {
        "toeplitz_seq": [(F_BAND,)],
        "diag_seq": [(A_CPLX,)],
        "circulant_seq": [(F_BAND,)],
        "lt_seq": [(A_CPLX, F_BAND)],
        "lc_seq": [(A_CPLX, F_BAND)],
        "glt_product_seq": [(two,)],
        "counterexample_seq": [(name,) for name in matrices.COUNTEREXAMPLES],
        "identity_seq": [()],
        "zero_seq": [()],
        "normal_form_seq": [(two,)],
        "diagonal_factor_seq": [(two,)],
    }
    builders = {}
    for module in (matrices, importlib.import_module("glt_lab.normal_form")):
        builders.update({name: getattr(module, name) for name in module.__all__
                         if name.endswith("_seq")})
    assert set(builders) == set(args)
    return [(name, build(*a)) for name, build in builders.items() for a in args[name]]


@pytest.mark.parametrize("n", [25, 64])
def test_every_call_returns_a_new_array(n):
    # a caller that writes into one matrix leaves the next call's alone
    for name, seq in seq_builders():
        for s in (seq, seq.shifted(0.5)):
            A, B = s(n), s(n)
            assert not np.shares_memory(A, B), name
            assert A.tobytes() == B.tobytes()


def test_canonical_sign():
    # the first largest entry, -2j, is flipped; a real part of -0 is not in
    # the left half-plane; `svdvals` decomposes every dense core in this sign
    A = np.array([[0.5, -2j], [1.0, 2j]])
    assert matrices._canonical_sign(A).tobytes() == matrices._canonical_sign(-A).tobytes()
    assert matrices._canonical_sign(-A).tobytes() == (-A).tobytes()
    B = np.array([[complex(-0.0, 2.0)]])
    assert matrices._canonical_sign(B) is B
    empty = np.zeros((0, 0))
    assert matrices._canonical_sign(empty) is empty
