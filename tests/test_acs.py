import dataclasses
import math

import numpy as np
import pytest
from bands import as_band, band_svds
from scipy.linalg import eigvalsh_tridiagonal

from glt_lab import (
    DomainError,
    NumericalError,
    TrigPoly,
    acs_distance,
    acs_equivalent,
    circulant,
    circulant_seq,
    counterexample,
    counterexample_seq,
    diag_seq,
    glt_product_seq,
    identity_seq,
    lc_seq,
    lt_seq,
    optimal_split,
    p_metric,
    parse_expr,
    toeplitz,
    toeplitz_seq,
    zero_seq,
)
from glt_lab import acs, matrices
from glt_lab.cli import build_sequence, main
from glt_lab.matrices import svdvals
from glt_lab.normal_form import normal_form, normal_form_seq
from glt_lab.symbols import GltExpr

TWO_COS = TrigPoly.from_coeff_map({1: 1, -1: 1})
F_REAL = TrigPoly.from_coeff_map({-2: 0.4, -1: 1.1, 0: 1.0, 1: 0.9, 2: -0.4})
SHIFT = TrigPoly.from_coeff_map({1: 1})
X = parse_expr("x", "a")
ONE = parse_expr("1", "a")


def p_bruteforce(A):
    """Independent route: singular values from the Hermitian eigenproblem of
    A^H A, then explicit enumeration of every split index."""
    n = A.shape[0]
    w = np.linalg.eigvalsh(A.conj().T @ A)
    s = np.sqrt(np.clip(w, 0, None))[::-1]
    best = np.inf
    for i in range(1, n + 2):
        sigma_i = s[i - 1] if i <= n else 0.0
        best = min(best, (i - 1) / n + sigma_i)
    return best


def p_svd(A):
    """Oracle for the Gram band route: the dense SVD of the whole matrix."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    s = np.linalg.svd(A, compute_uv=False)
    return float((np.arange(n + 1) / n + np.append(s, 0.0)).min())


def p_svdvals(A):
    """p from `svdvals` of A, the route p_metric falls back to."""
    s = svdvals(A)
    n = s.size
    return float((np.arange(n + 1) / n + np.append(s, 0.0)).min())


def p_entry(n, route, kd=None):  # the record of p_metric on a core of size n
    return ("p_metric", n, route, kd)


def sv_entry(n, route, b=None):  # the record of svdvals on an operand of n rows
    return ("svdvals", n, route, b)


def gram_bands(routes):
    """(n, kd) of every Gram band p_metric reduced, in order."""
    return [(n, kd) for stage, n, _, kd in routes if stage == "p_metric" and kd is not None]


def glt_minus_lc(f, n):
    return glt_product_seq(GltExpr(((A_QUAD, f),)))(n) - lc_seq(A_QUAD, f)(n)


def with_spectrum(sigma, seed=0):
    """U diag(sigma) V^T for random orthogonal U and V."""
    n = len(sigma)
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (U * np.asarray(sigma)) @ V.T


# a degree-2 symbol with complex Fourier coefficients and a real one, and
# the coefficient functions of the benchmark's two-term normal form
F_CPLX = TrigPoly.from_coeff_map({-2: 0.2, -1: 0.5, 0: 1.0, 1: 0.5 + 0.3j, 2: -0.2j})
A_QUAD = parse_expr("1+0.9*x^2", "a")
A_EXP = parse_expr("exp(0.4*x)", "a")


class TestGramRoute:
    @pytest.mark.parametrize("f", [F_REAL, F_CPLX], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [576, 1024])
    def test_glt_minus_lc(self, f, n, routes):
        # the Gram band reaches two diagonals past the block corners, b = sqrt(n) - 1
        A = glt_minus_lc(f, n)
        p = p_metric(as_band(A))
        assert abs(p - p_svd(A)) <= 1e-12 * p_svd(A)
        assert routes == [p_entry(n, "counts", math.isqrt(n) + 1)]
        assert p_metric(as_band(-A)) == p

    @pytest.mark.parametrize("f", [F_REAL, F_CPLX], ids=["real", "complex"])
    def test_glt_minus_normal_form(self, f, routes):
        expr = GltExpr(((A_QUAD, f), (A_EXP, F_REAL)))
        A = glt_product_seq(expr)(576) - normal_form(expr, 576).matrix()
        assert abs(p_metric(as_band(A)) - p_svd(A)) <= 1e-10 * p_svd(A)
        assert routes == [p_entry(576, "counts", 25)]

    @pytest.mark.parametrize("past", [0.99, 1.01])
    def test_graded_spectrum_at_the_bound(self, past, routes):
        # sigma_2.. decay geometrically; sigma_1 is set `past` times the
        # largest value the gate certifies, 100 eps sigma_1^2 = 1e-10 p sigma_min,
        # on a band of half-bandwidth 2 that both band gates take
        n = 512
        tail = 0.6 * 0.995 ** np.arange(n - 1)
        obj = np.arange(1, n + 1) / n + np.append(tail, 0.0)
        p = obj.min()
        setting = tail[np.arange(1, n) / n <= p].min()
        sigma_1 = past * np.sqrt(1e-10 * p * setting / (100 * np.finfo(float).eps))
        A = as_band(banded_with_spectrum(np.append(sigma_1, tail), seed=1))
        value = p_metric(A)
        if past > 1:
            assert routes == [p_entry(n, "svdvals", 3), sv_entry(n, "band", 2)]
            assert value == p_svdvals(A)
        else:
            assert routes == [p_entry(n, "counts", 3)]
            assert abs(value - p_svd(A.dense())) <= 1e-10 * p


class TestDenseCores:
    """A dense operand's core takes the dense SVD of `svdvals`, in canonical
    sign: the Gram route takes band cores only."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("drop", ["rows", "cols"])
    def test_zero_rows_and_rectangular_cores(self, dtype, drop, routes):
        # a 50x60 or 60x45 core reaches the SVD as it is, with no copy
        rng = np.random.default_rng(11)
        A = rng.standard_normal((60, 60)).astype(dtype)
        if dtype is complex:
            A += 1j * rng.standard_normal((60, 60))
        A /= 4 * np.sqrt(60)
        if drop == "rows":
            A[::6] = 0
        else:
            A[:, ::4] = 0
        core = matrices._svd_reduce(A)
        assert core.shape == ((50, 60) if drop == "rows" else (60, 45))
        assert np.shares_memory(matrices._svd_reduce(core), core)
        p = p_metric(A)
        assert abs(p - p_svd(A)) <= 1e-10 * p_svd(A)
        assert p_metric(-A) == p
        assert routes == [p_entry(60, "svdvals"), sv_entry(60, "dense")] * 2

    def test_toeplitz_minus_circulant_is_exactly_four_over_n(self, routes):
        A = toeplitz(F_REAL, 1024) - circulant(F_REAL, 1024)
        assert p_metric(A) == 4 / 1024
        assert routes == [p_entry(1024, "svdvals"), sv_entry(1024, "dense")]

    def test_exact_rank(self, routes):
        # sigma_6 = 0 sets p = 5/40
        A = with_spectrum([3.0, 2.0, 1.5, 1.0, 0.5] + [0.0] * 35)
        p = p_metric(A)
        assert routes == [p_entry(40, "svdvals"), sv_entry(40, "dense")]
        assert p == p_svdvals(A)
        assert p == pytest.approx(5 / 40, abs=1e-14)

    @pytest.mark.parametrize("scale", [2.0**-520, 2.0**520], ids=["tiny", "huge"])
    def test_extreme_scales(self, scale, routes):
        # squaring would underflow or overflow; the SVD does not square
        A = scale * with_spectrum(np.linspace(1.0, 0.5, 20))
        assert p_metric(A) == p_svdvals(A)
        assert routes == [p_entry(20, "svdvals"), sv_entry(20, "dense"), sv_entry(20, "dense")]

    @pytest.mark.parametrize("f", [F_REAL, F_CPLX], ids=["real", "complex"])
    def test_a_dense_operand_is_scanned_once(self, f, routes):
        # p_metric hands a dense A to svdvals whole, so the nonzero mask is
        # formed once: both record A's 121 rows, not the core's 96; p is
        # svdvals' objective, bit for bit, although the reduced core is
        # rectangular, and the same as from svdvals of that core, the route
        # that scanned twice
        A = glt_minus_lc(f, 121)
        A[::5] = 0
        want = p_svdvals(A)
        assert matrices._svd_reduce(A).shape == (96, 121)
        assert want == acs._objective(matrices._pad(svdvals(matrices._svd_reduce(A)), 121)).min()
        routes.clear()
        assert p_metric(A) == want
        assert routes == [p_entry(121, "svdvals"), sv_entry(121, "dense")]


# the seed-0 small-sweep acs operand: real-valued, and the phase of its
# largest entry is abs(v)/v = -(1 - 2^-53), one ulp off -1
GLT_LC_0 = "1.0576 + 1.2063*x^2 | 0.8537 + 1.2049*cos(theta) + 0.3518*i*sin(2*theta)"


class TestRealValuedRoute:
    """A real-valued operand is decomposed in real arithmetic, with no
    complex copy, whatever its dtype; p(A) = p(-A) bit for bit on it."""

    @staticmethod
    def operand(kind, n):
        rng = np.random.default_rng(n)
        if kind == "negative-max":
            A = rng.standard_normal((n, n))
            return A * -np.sign(A.flat[np.argmax(np.abs(A))])
        if kind == "glt-lc":
            return build_sequence(f"glt({GLT_LC_0})")(n) - build_sequence(f"lc({GLT_LC_0})")(n)
        if kind == "banded":
            # the largest entry is -0.47; each odd row repeats the row above,
            # so sigma_{n/2+1} = 0 sets p = 1/2; below n = 512 no Gram route
            # runs, and the band SVD (b = 2) takes the core
            A = toeplitz(TrigPoly.from_coeff_map({-1: 0.003, 0: -0.47, 1: 0.007}), n)
            A[1::2] = A[::2]
            return A
        return 1j * rng.standard_normal((n, n))  # i*R: takes the complex route

    CASES = [("negative-max", 64), ("glt-lc", 36), ("glt-lc", 64), ("glt-lc", 121),
             ("banded", 256), ("i-real", 64)]

    @pytest.mark.parametrize("kind, n", CASES)
    def test_sign_symmetric_and_close_to_the_svd(self, kind, n, routes):
        A = self.operand(kind, n)
        # only a band operand takes the band SVD
        operand = as_band if kind == "banded" else np.asarray
        p = p_metric(operand(A))
        assert p_metric(operand(-A)) == p
        assert p == pytest.approx(p_svd(A), rel=1e-12, abs=1e-14)
        assert bool(band_svds(routes)) == (kind == "banded")

    @pytest.mark.parametrize("kind, n", [("glt-lc", 36), ("glt-lc", 64), ("glt-lc", 121),
                                         ("banded", 256)])
    def test_phase_is_one_ulp_off(self, kind, n):
        # why these operands are in CASES: a phase abs(v)/v lands one ulp off
        # -1 on them, so rotating one by it would not leave it exact
        A = np.asarray(self.operand(kind, n), dtype=complex)
        v = A.flat[np.argmax(np.abs(A))]
        phase = abs(v) / v
        assert not A.imag.any() and phase.imag == 0
        assert abs(phase.real) == 1 - 2.0**-53

    @pytest.mark.parametrize("kind, n", [case for case in CASES if case[0] != "i-real"])
    def test_real_dtype_equal_to_complex_dtype(self, kind, n):
        # a complex dtype with a zero imaginary part reduces to the same real core
        A = np.asarray(self.operand(kind, n), dtype=complex)
        R = np.ascontiguousarray(A.real)
        assert p_metric(R) == p_metric(A)
        assert p_metric(-R) == p_metric(A)

    def test_real_dtype_makes_no_complex_copy(self, traced_peak):
        A = np.asarray(self.operand("glt-lc", 256), dtype=complex)
        R = np.ascontiguousarray(A.real)
        p_metric(R)  # the first call leaves a few kB of one-off caches
        assert traced_peak(p_metric, R) <= traced_peak(p_metric, A)

    @pytest.mark.parametrize("n", [256, 400])
    def test_no_copy_of_a_real_valued_operand(self, n, traced_peak):
        # a complex copy alone would be 16 n^2 bytes; the dense SVD's
        # canonical sign keeps one real copy of the core, its negation,
        # 8 n^2 bytes
        A = self.operand("glt-lc", n)
        assert not A.imag.any() and A.real.flat[np.argmax(np.abs(A))] < 0
        assert traced_peak(p_metric, A) < 16 * n * n


def half_integer_band(n, b, dtype, rng):
    """An n x n band of half-bandwidth exactly b whose entries are multiples
    of 1/2 in [-2, 2]: a fifth of them are zero, and sums of their products
    cancel exactly, which is where signed zeros could break p(A) = p(-A)."""
    A = np.zeros((n, n), dtype)
    for k in range(-b, b + 1):
        d = rng.integers(-4, 5, n - abs(k)) / 2
        if dtype is complex:
            d = d + 1j * rng.integers(-4, 5, n - abs(k)) / 2
        d[0] = 1.5  # the outermost diagonals are nonzero
        A += np.diag(d, k)
    return A


class TestSignSymmetry:
    """p(A) = p(-A) and svdvals(A) = svdvals(-A) bit for bit on every route:
    the band SVD and the Gram band route by arithmetic, the dense SVD by the
    canonical sign of `svdvals`."""

    # the band SVD takes every b <= n/32 from n = 96, as p_metric's fallback
    # after the Gram band route: its values for A and -A are the same bits
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n, b", [(n, b) for n in (128, 256, 512, 1024)
                                      for b in sorted({0, 1, 2, 3, n // 64, n // 32})])
    def test_band_route(self, n, b, dtype, routes):
        A = half_integer_band(n, b, dtype, np.random.default_rng(1000 * n + b))
        s = svdvals(as_band(A, b))
        assert routes == [sv_entry(n, "band", b)]
        assert s.tobytes() == svdvals(as_band(-A, b)).tobytes()
        assert p_metric(as_band(A)) == p_metric(as_band(-A))

    @staticmethod
    def rank_one(scale=1.0):
        """A rank-1 300 x 300 operand with every third column zero: sigma_2
        is roundoff, and unless the sign is fixed before the dense SVD, -A
        gives another sigma_2."""
        rng = np.random.default_rng(9)
        A = np.outer(rng.uniform(-1, 1, 300), rng.uniform(-1, 1, 300)) * scale
        A[:, ::3] = 0
        return A

    @pytest.mark.parametrize("scale", [1.0, 1j, -1j], ids=["real", "imag", "neg-imag"])
    def test_dense_fallback(self, scale, routes):
        # a purely imaginary largest entry is flipped onto the positive
        # imaginary axis
        A = self.rank_one(scale)
        p = p_metric(A)
        assert p_metric(-A) == p
        assert routes == [p_entry(300, "svdvals"), sv_entry(300, "dense")] * 2
        assert p == p_svdvals(A)
        assert p == pytest.approx(1 / 300, rel=1e-10)

    @pytest.mark.parametrize("scale", [1.0, 1j, -1j], ids=["real", "imag", "neg-imag"])
    def test_svdvals_of_the_negated_operand(self, scale):
        A = self.rank_one(scale)
        assert svdvals(A).tobytes() == svdvals(-A).tobytes()

    @pytest.mark.parametrize("f", [F_REAL, F_CPLX], ids=["real", "complex"])
    def test_p_is_the_objective_of_svdvals(self, f, routes):
        # sigma_min is far above the Gram gate's bound here, yet a dense core
        # takes no Gram route: p is read from the values of svdvals, bit for
        # bit
        A = glt_minus_lc(f, 256)
        p = p_metric(A)
        assert p == p_svdvals(A) == p_metric(-A)
        metric = [p_entry(256, "svdvals"), sv_entry(256, "dense")]
        assert routes == metric + [sv_entry(256, "dense")] + metric

    def test_zero_matrix(self, routes):
        # the empty core of A = 0 takes the dense SVD with no sign to read
        Z = np.zeros((6, 6))
        assert p_metric(Z) == p_metric(-Z) == 0.0
        assert routes == [p_entry(6, "svdvals"), sv_entry(6, "dense")] * 2

    def test_complex_operand_makes_no_rotated_copy(self, traced_peak):
        # the dense SVD's canonical sign holds at most one negated copy of
        # the core, 16 n^2 bytes; a rotated copy of the operand would add
        # 16 n^2 more
        n = 256
        A = glt_product_seq(GltExpr(((A_QUAD, F_CPLX),)))(n) - lc_seq(A_QUAD, F_CPLX)(n)
        assert A.imag.any()
        p_metric(A)  # the first call leaves a few kB of one-off caches
        assert traced_peak(p_metric, A) < 24 * n * n


def p_real_svd(A):
    """The dense-SVD oracle of p for a real-valued A, in real arithmetic."""
    assert not np.asarray(A).imag.any()
    s = np.linalg.svd(np.asarray(A).real, compute_uv=False)
    return float((np.arange(s.size + 1) / s.size + np.append(s, 0.0)).min())


# the two-term normal forms of seeds 0-2 of perfbench's `acs-normal-form`
# workload; their n = 1600 differences from the glt product are real
BENCH_NF_TERMS = [
    "0.9551 + 1.0377*x^2 | 1.1080 + 0.7665*cos(theta) + 0.4578*i*sin(2*theta) ; "
    "exp(0.4047*x) | 1.0230 + 0.7981*cos(theta) + 0.4695*i*sin(2*theta)",
    "1.0251 + 0.8100*x^2 | 1.0657 + 1.0853*cos(theta) + 0.4674*i*sin(2*theta) ; "
    "exp(0.3045*x) | 0.8646 + 0.8659*cos(theta) + 0.3076*i*sin(2*theta)",
    "1.1775 + 1.2414*x^2 | 0.9029 + 0.9891*cos(theta) + 0.5903*i*sin(2*theta) ; "
    "exp(0.5700*x) | 1.1935 + 0.8648*cos(theta) + 0.5443*i*sin(2*theta)",
]


class TestBandGramRoute:
    """A square core of size n >= 512 whose half-bandwidth b and Gram
    half-width kd stay within n/16 takes its Gram eigenvalues from the band."""

    @pytest.mark.parametrize("f", [F_REAL, F_CPLX], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [576, 1024])
    def test_gram_band_matches_the_dense_gram(self, f, n):
        A = glt_minus_lc(f, n)
        core = matrices._band_reduce(as_band(A))
        assert np.iscomplexobj(core.ab) == (f is F_CPLX)
        C = core.dense()
        gb, G = acs._gram_band(core), C.conj().T @ C
        kd = gb.shape[1] - 1
        # the block corners set b; the Gram band reaches two diagonals further
        assert kd == core.b + 2
        tol = 1e-14 * np.abs(G).max()
        for d in range(kd + 1):
            np.testing.assert_allclose(gb[: n - d, d], np.diagonal(G, -d), rtol=0, atol=tol)
            assert not gb[n - d :, d].any()
        assert not np.tril(G, -kd - 1).any()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_gram_band_of_a_half_integer_band_is_exact(self, dtype):
        # every product and sum is exact, so both Gram matrices are too
        core = half_integer_band(512, 8, dtype, np.random.default_rng(3))
        gb, G = acs._gram_band(as_band(core, 8)), core.conj().T @ core
        assert gb.shape == (512, 17)
        for d in range(17):
            assert np.array_equal(gb[: 512 - d, d], np.diagonal(G, -d))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_gram_band_of_the_negated_core(self, dtype):
        # each product pairs two entries of one row of C or two zeros of the
        # padding, so no zero changes sign with C
        for A in (half_integer_band(1024, 32, dtype, np.random.default_rng(7)),
                  glt_minus_lc(F_CPLX if dtype is complex else F_REAL, 1024)):
            C = matrices._band_reduce(as_band(A))
            negated = matrices._Band(-C.ab, C.b)
            assert acs._gram_band(negated).tobytes() == acs._gram_band(C).tobytes()

    @staticmethod
    def refused(case):
        """A band whose core the Gram band gate refuses."""
        rng = np.random.default_rng(4)
        if case == "toeplitz-circulant":  # a 4 x 4 core
            return acs._difference(toeplitz_seq(F_REAL), circulant_seq(F_REAL), 1024)
        if case == "small":
            return as_band(glt_minus_lc(F_REAL, 484))
        if case == "b-above-the-gate":
            return as_band(half_integer_band(512, 33, float, rng))  # b > 512/16
        if case == "kd-above-the-gate":
            return as_band(half_integer_band(512, 17, float, rng))  # b <= 32 < kd = 34
        A = glt_minus_lc(F_REAL, 576)
        A[::7] = 0  # a 493 x 576 core
        return as_band(A)

    @pytest.mark.parametrize("case", ["toeplitz-circulant", "small", "b-above-the-gate",
                                      "kd-above-the-gate", "rectangular"])
    def test_cores_the_gate_refuses(self, case, routes):
        band = self.refused(case)
        core = matrices._band_reduce(band)
        assert not isinstance(core, matrices._Band) or acs._gram_band(core) is None
        A = band.dense()
        assert p_metric(band) == pytest.approx(p_svd(A), rel=1e-10, abs=1e-14)
        assert gram_bands(routes) == [] and routes[0][2] == "svdvals"

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n, b", [(512, 4), (512, 16), (1024, 7), (1024, 32)])
    def test_sign_symmetry_on_half_integer_bands(self, n, b, dtype, routes):
        # b up to n/32, within both band gates, where the Gram band route
        # goes first; a full band's Gram half-width 2b then reaches n/16
        A = half_integer_band(n, b, dtype, np.random.default_rng(1000 * n + b))
        assert p_metric(as_band(A)) == p_metric(as_band(-A))
        assert gram_bands(routes) == [(n, 2 * b)] * 2

    @pytest.mark.parametrize("f, routine", [(F_REAL, "dsbtrd"), (F_CPLX, "zhbtrd")],
                             ids=["real", "complex"])
    def test_nonzero_info_falls_back(self, f, routine, routes, monkeypatch):
        calls = []

        def failing(*args):
            calls.append(routine)
            args[-1][0] = 1  # info

        table = {**matrices._lapack(), routine: failing}
        monkeypatch.setattr(matrices, "_lapack", lambda: table)
        A = glt_minus_lc(f, 576)
        # b = 23 is above the band SVD's 576/32, so the dense SVD runs
        p = p_metric(as_band(A))
        assert routes == [p_entry(576, "svdvals", 25), sv_entry(576, "dense")]
        assert calls == [routine] and p == p_svdvals(A)
        gb = acs._gram_band(matrices._band_reduce(as_band(A)))
        message = f"eigensolver failed: {routine} returned info = 1"
        with pytest.raises(NumericalError, match=message):
            matrices._band_tridiagonal(gb)

    @pytest.mark.parametrize("terms", BENCH_NF_TERMS, ids=["seed0", "seed1", "seed2"])
    def test_benchmark_normal_form_at_1600_is_certified(self, terms, routes):
        # the gate's bound reached half its limit on these operands; the band
        # route must keep them off the dense SVD, which is three times slower
        band = acs._difference(build_sequence(f"glt({terms})"),
                               build_sequence(f"normal-form({terms})"), 1600)
        p = p_metric(band)
        assert routes == [p_entry(1600, "counts", 41)]
        assert abs(p - p_real_svd(band.dense())) <= 1e-12 * p
        counted, full = count_and_sterf(band)  # Sturm counts against dsterf on the same band
        assert counted == p and abs(p - full) <= 1e-12 * p

    @pytest.mark.parametrize("scale", [2.0**-520, 2.0**520], ids=["tiny", "huge"])
    def test_extreme_scales_fall_back(self, scale, routes):
        # the scale gate reads the band storage before any Gram product, so
        # squaring neither underflows nor overflows; b = 8 <= 512/32, so the
        # band SVD takes the core, as it takes svdvals' operand
        A = scale * half_integer_band(512, 8, float, np.random.default_rng(6))
        s = svdvals(as_band(A))
        p_band_svd = float((np.arange(513) / 512 + np.append(s, 0.0)).min())
        assert p_metric(as_band(A)) == p_band_svd == p_metric(as_band(-A))
        metric = [p_entry(512, "svdvals"), sv_entry(512, "band", 8)]
        assert routes == [sv_entry(512, "band", 8)] + metric * 2

    @pytest.mark.parametrize("n", [1024, 1600])
    def test_gram_band_goes_before_the_band_svd(self, n, routes):
        # b = sqrt(n) - 1 is within both band gates, n/32 and n/16; the Gram
        # band route is the faster of the two on these acs differences
        A = glt_minus_lc(F_REAL, n)
        assert matrices._band_reduce(as_band(A)).b <= n // matrices._BAND_N_PER_B
        p = p_metric(as_band(A))
        assert routes == [p_entry(n, "counts", math.isqrt(n) + 1)]
        assert abs(p - p_real_svd(A)) <= 1e-12 * p


def rotations(n, offset, rng):
    """An orthogonal n x n matrix of random plane rotations on the index
    pairs (offset + 2j, offset + 2j + 1): a band of half-bandwidth 1."""
    Q = np.eye(n)
    for i in range(offset, n - 1, 2):
        c, s = np.cos(t := rng.uniform(0, 2 * np.pi)), np.sin(t)
        Q[i : i + 2, i : i + 2] = [[c, -s], [s, c]]
    return Q


def banded_with_spectrum(sigma, seed=0):
    """A band of half-bandwidth 2 whose singular values are sigma, to
    roundoff: two layers of plane rotations around a diagonal that holds
    sigma in a random order."""
    rng = np.random.default_rng(seed)
    n = len(sigma)
    return rotations(n, 0, rng) @ np.diag(rng.permutation(sigma)) @ rotations(n, 1, rng)


def spectrum_p(lam, n):
    """The full-spectrum gate, the oracle of the count route's: p from the
    eigenvalues lam, ascending, of a reduced core's Gram matrix, padded to n,
    or None when the error 100 eps sigma_1^2 / sigma_i may exceed 1e-10 p at
    some index i that can set p, (i-1)/n <= p; the padded zeros are exact."""
    s = matrices._pad(np.sqrt(np.maximum(lam[::-1], 0.0)), n)
    p = acs._objective(s).min()
    k = lam.size
    setting = s[:k][np.arange(k) / n <= p]
    loss = acs._GRAM_SAFETY * np.finfo(float).eps * s[0] ** 2
    return p if loss <= acs._GRAM_RTOL * p * setting.min() else None


def count_and_sterf(A):
    """(p from Sturm counts, p from the full spectrum) of the Gram band of A,
    a band or the dense matrix of one, each None where its gate declines,
    from the same tridiagonal; scipy's dsterf takes the full spectrum."""
    n = A.shape[0]
    band = A if isinstance(A, matrices._Band) else as_band(A)
    gb = acs._gram_band(matrices._band_reduce(band))
    d, e = matrices._band_tridiagonal(gb)
    counted = acs._count_p(d.copy(), e.copy(), n)
    return counted, spectrum_p(eigvalsh_tridiagonal(d, e, lapack_driver="sterf"), n)


def random_band(n, b, dtype, seed):
    """A random band of half-bandwidth b whose singular values lie in
    [1/3, 1], so that none sinks below the Gram gate and p lies inside."""
    rng = np.random.default_rng(seed)
    A = half_integer_band(n, b, dtype, rng) + np.triu(np.tril(rng.standard_normal((n, n)), b), -b)
    shift = 2 * np.abs(A).sum(axis=1).max()  # ||A||_2 <= shift / 2
    return (A + shift * np.eye(n)) / (1.5 * shift)


# ties: sigma_i = 0.5 - (i-1)/n for i <= ties, so (i-1)/n + sigma_i = 0.5
# at each of them, and every later index lies above 0.5
def tied(n, ties):
    sigma = np.full(n, 0.5 - (ties - 1) / n)
    sigma[:ties] = 0.5 - np.arange(ties) / n
    return sigma


class TestCountRoute:
    """The band Gram route finds p from Sturm counts on the band's
    tridiagonal: the same p as dsterf's full spectrum on the same band and as
    the dense SVD, and the same gate decision; when the search cannot finish,
    `svdvals` takes the core."""

    @staticmethod
    def operand(case):
        if case.startswith("random"):
            _, kind, n, b = case.split("-")
            dtype = float if kind == "real" else complex
            return random_band(int(n), int(b), dtype, int(n) + int(b))
        if case.startswith("glt-lc"):
            return glt_minus_lc(F_CPLX if case.endswith("complex") else F_REAL, 1024)
        return banded_with_spectrum(tied(768, 8), seed=3)

    # kd = 2b reaches n/16 on the random bands at n = 512 and 1024
    # (the captured glt - normal form operands: test_benchmark_normal_form_at_1600_is_certified)
    @pytest.mark.parametrize("case", ["random-real-512-16", "random-complex-512-4",
                                      "random-real-1024-32", "random-complex-1024-7",
                                      "random-real-1600-12", "glt-lc-real", "glt-lc-complex",
                                      "ties"])
    def test_p_matches_dsterf_and_the_dense_svd(self, case, routes):
        A = self.operand(case)
        counted, full = count_and_sterf(A)
        assert counted is not None and full is not None
        assert abs(counted - full) <= 1e-12 * full
        p = p_metric(as_band(A))
        assert p == counted and p == p_metric(as_band(-A))
        assert abs(p - (p_svd(A) if np.iscomplexobj(A) else p_real_svd(A.real))) <= 1e-12 * p
        assert [entry[2] for entry in routes] == ["counts"] * 2 and len(gram_bands(routes)) == 2

    def test_ties_are_each_refined(self):
        # eight indices tie at p = 1/2; p is found to roundoff
        A = banded_with_spectrum(tied(768, 8), seed=3)
        assert p_metric(A) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("period", [4, 8])
    def test_rank_deficient_cores_are_declined_by_both_gates(self, period, routes):
        # sigma_i = 0 at every index 2 mod period, so that no row or column
        # of the band is zero, and in [0.9, 1] elsewhere: p = 1 - 1/period
        # is set at a zero singular value, which the Gram matrix cannot
        # resolve, so both gates decline and the band SVD takes the core
        n = 768
        rng = np.random.default_rng(11)
        sigma = rng.uniform(0.9, 1.0, n)
        sigma[2::period] = 0
        A = rotations(n, 0, rng) @ np.diag(sigma) @ rotations(n, 1, rng)
        assert matrices._band_reduce(as_band(A)).shape == (n, n)
        assert count_and_sterf(A) == (None, None)
        p = p_metric(as_band(A))
        assert routes == [p_entry(n, "svdvals", 3), sv_entry(n, "band", 2)]
        assert p == pytest.approx(1 - 1 / period, rel=1e-12)
        assert p == pytest.approx(p_svd(A), rel=1e-12)

    def test_gate_decision_equals_the_full_spectrum_gate(self):
        # scaling the glt - lc difference moves the gate's bound with
        # sigma_1^2 / p: it passes at 1e-3 and 1, and declines from 1e3
        decisions = []
        for scale in (1e-3, 1.0, 1e3, 1e5):
            counted, full = count_and_sterf(scale * glt_minus_lc(F_REAL, 1024))
            assert (counted is None) == (full is None)
            if full is not None:
                assert abs(counted - full) <= 1e-12 * full
            decisions.append(full is not None)
        assert decisions == [True, True, False, False]

    def test_many_ties_take_svdvals(self, routes):
        # more live intervals than one count call holds: the core, of
        # half-bandwidth 2, goes to the band SVD
        n = 768
        A = banded_with_spectrum(tied(n, acs._COUNT_BATCH + 8), seed=4)
        p = p_metric(as_band(A))
        assert routes == [p_entry(n, "svdvals", 3), sv_entry(n, "band", 2)]
        assert p == pytest.approx(0.5, rel=1e-14) and p == pytest.approx(p_svd(A), rel=1e-12)

    def test_round_cap_takes_svdvals(self, routes, monkeypatch):
        # b = 23 is above the band SVD's 576/32, so the dense SVD runs
        A = as_band(glt_minus_lc(F_REAL, 576))
        p = p_metric(A)
        monkeypatch.setattr(acs, "_COUNT_ROUNDS", 5)
        capped = p_metric(A)
        assert routes == [p_entry(576, "counts", 25), p_entry(576, "svdvals", 25),
                          sv_entry(576, "dense")]
        assert capped == pytest.approx(p, rel=1e-12)
        assert capped == pytest.approx(p_real_svd(A.dense()), rel=1e-12)

    @pytest.mark.parametrize("call", [0, 1, 20])
    def test_non_monotone_count_takes_svdvals(self, call, routes, monkeypatch):
        # one count is raised above its left neighbour's: the search stops
        # and the dense SVD takes the core; dsterf's full spectrum of the same
        # tridiagonal gives the same p
        counter = acs._sturm_counter

        def broken(d, e, size):
            below, calls = counter(d, e, size), []

            def counts(x):
                out = below(x)
                if len(calls) == call:
                    out[-1] = 0  # the last point is the highest, where N(t) < k
                calls.append(x.size)
                return out

            return counts

        A = as_band(glt_minus_lc(F_CPLX, 576))
        gb = acs._gram_band(matrices._band_reduce(A))
        full = spectrum_p(eigvalsh_tridiagonal(*matrices._band_tridiagonal(gb),
                                               lapack_driver="sterf"), 576)
        monkeypatch.setattr(acs, "_sturm_counter", broken)
        p = p_metric(A)
        assert routes == [p_entry(576, "svdvals", 25), sv_entry(576, "dense")]
        assert abs(p - full) <= 1e-12 * full and abs(p - p_svd(A.dense())) <= 1e-12 * p

    def test_counter_takes_at_most_its_size(self):
        below = matrices._sturm_counter(np.arange(4.0), np.ones(3), 5)
        assert below(np.array([-10.0, 1.5, 10.0])).tolist() == [0, 2, 4]
        with pytest.raises(ValueError, match="at most 6 points"):
            below(np.zeros(7))

    def test_dlaebz_failure_falls_back(self, routes, monkeypatch):
        import ctypes

        def failing(*pointers):
            ctypes.cast(pointers[-1], ctypes.POINTER(ctypes.c_int64))[0] = -1  # info

        table = {**matrices._lapack(), "dlaebz": failing}
        assert table["int"] == np.int64
        monkeypatch.setattr(matrices, "_lapack", lambda: table)
        A = glt_minus_lc(F_REAL, 576)
        p = p_metric(as_band(A))
        assert routes == [p_entry(576, "svdvals", 25), sv_entry(576, "dense")]
        assert p == p_svdvals(A)


# seeds 0-4 of perfbench's `acs-normal-form` workload: its normal-form terms
# (seeds 0-2 as BENCH_NF_TERMS) and its glt-vs-lc symbol
BENCH_SECTIONS = [
    (BENCH_NF_TERMS[0], "1.1044 + 1.0510*x^2 | 1.2298 + 1.2076*cos(theta) + 0.3444*i*sin(2*theta)"),
    (BENCH_NF_TERMS[1], "1.2197 + 0.8527*x^2 | 1.0683 + 0.9402*cos(theta) + 0.3743*i*sin(2*theta)"),
    (BENCH_NF_TERMS[2], "1.0954 + 1.0902*x^2 | 1.0156 + 0.7619*cos(theta) + 0.5184*i*sin(2*theta)"),
    ("1.0228 + 0.7513*x^2 | 1.0084 + 0.9557*cos(theta) + 0.4449*i*sin(2*theta) ; "
     "exp(0.5698*x) | 0.9388 + 0.8096*cos(theta) + 0.3924*i*sin(2*theta)",
     "0.8898 + 1.1562*x^2 | 0.9779 + 0.8495*cos(theta) + 0.5899*i*sin(2*theta)"),
    ("1.0167 + 0.8922*x^2 | 0.8597 + 1.2470*cos(theta) + 0.5576*i*sin(2*theta) ; "
     "exp(0.3720*x) | 1.2019 + 0.8457*cos(theta) + 0.5569*i*sin(2*theta)",
     "1.0685 + 1.2075*x^2 | 1.0396 + 0.8666*cos(theta) + 0.3895*i*sin(2*theta)"),
]


@pytest.mark.parametrize("seed", range(5))
def test_benchmark_band_grams_are_certified_by_counts(seed, tmp_path, routes):
    terms, glt = BENCH_SECTIONS[seed]
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[global]\noutput = {tmp_path / 'r.csv'}\n\n"
                   f"[normal_form]\nkind = normal-form\nterms = {terms}\nsizes = 256, 576, 1600\n\n"
                   f"[acs_glt_lc]\nkind = acs\nsequence_a = glt({glt})\n"
                   f"sequence_b = lc({glt})\nsizes = 256, 576, 1024\n", encoding="utf-8")
    assert main(["run", str(cfg)]) == 0
    # the n = 256 cores are dense, and take the dense SVD
    dense = [p_entry(256, "svdvals"), sv_entry(256, "dense")]
    assert [entry for entry in routes if entry[0] in ("p_metric", "svdvals")] == [
        *dense, p_entry(576, "counts", 25), p_entry(1600, "counts", 41),
        *dense, p_entry(576, "counts", 25), p_entry(1024, "counts", 33)]


@pytest.fixture
def without_band_routines(monkeypatch):
    """A call that makes `matrices._lapack` find the band routines under
    none of its manglings, as with a BLAS that does not export them."""

    def disable():
        monkeypatch.setattr(matrices, "_MANGLINGS", (("glt_lab_missing_{}_", np.intc),))
        matrices._lapack.cache_clear()

    yield disable
    matrices._lapack.cache_clear()


class TestWithoutBandRoutines:
    """Without the LAPACK band routines both band routes decline, and the
    dense routes give the same values and verdicts."""

    def test_the_resolver_declines(self, without_band_routines):
        without_band_routines()
        assert matrices._lapack() is None

    def test_dense_routes_give_the_same_verdicts(self, without_band_routines, routes):
        glt = glt_product_seq(GltExpr(((A_QUAD, F_REAL),)))
        T = toeplitz_seq(F_CPLX).band(512)
        A = acs._difference(glt_product_seq(GltExpr(((A_QUAD, F_CPLX),))), lc_seq(A_QUAD, F_CPLX),
                            1024)

        def run():
            ladder = acs_equivalent(glt, lc_seq(A_QUAD, F_REAL), (256, 576, 1024), tol=0.5)
            return svdvals(T), p_metric(A), ladder

        s, p, (verdict, est) = run()
        assert [n for stage, n, route, _ in routes if route == "band"] == [512]
        assert gram_bands(routes) == [(576, 25), (1024, 33), (1024, 33)]
        routes.clear()
        without_band_routines()
        s_dense, p_dense, (verdict_dense, est_dense) = run()
        assert {route for _, _, route, _ in routes} == {"svdvals", "dense"}
        assert gram_bands(routes) == []
        np.testing.assert_allclose(s_dense, s, rtol=0, atol=1e-12 * s[0])
        assert p_dense == pytest.approx(p, rel=1e-12)
        assert verdict_dense == verdict is True
        np.testing.assert_allclose(est_dense.p_values, est.p_values, rtol=1e-12)


class TestPMetric:
    def test_identity(self):
        assert p_metric(np.eye(7)) == pytest.approx(1.0)

    def test_zero(self):
        assert p_metric(np.zeros((5, 5))) == 0.0

    def test_half_rank_projector(self):
        n = 8
        P = np.diag([1.0] * 4 + [0.0] * 4)
        assert p_metric(P) == pytest.approx(0.5)

    def test_range_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.standard_normal((6, 6))
            p = p_metric(A)
            s1 = np.linalg.svd(A, compute_uv=False)[0]
            assert 0 <= p <= min(1.0, s1) + 1e-14

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert abs(p_metric(A) - p_bruteforce(A)) <= 1e-8

    def test_sign_symmetry_exact(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        assert p_metric(A) == p_metric(-A)

    @pytest.mark.parametrize("seed", range(4))
    def test_real_matrix_matches_bruteforce_oracle(self, seed):
        A = np.random.default_rng(seed).standard_normal((8, 8))
        assert abs(p_metric(A) - p_bruteforce(A)) <= 1e-8

    def test_sign_symmetry_exact_on_real_matrix(self):
        A = np.random.default_rng(8).standard_normal((9, 9))
        assert p_metric(A) == p_metric(-A)
        assert p_metric(A.astype(complex)) == p_metric(-A.astype(complex))

    @pytest.mark.parametrize("n", [16, 64])
    def test_sign_symmetry_exact_on_toeplitz_minus_circulant(self, n):
        A = toeplitz(F_REAL, n) - circulant(F_REAL, n)
        assert p_metric(A) == p_metric(-A)

    @staticmethod
    def phase_operand(kind, n):
        """A matrix whose largest entry is real positive, real negative or
        complex; n = 640 gives a narrow band that takes the banded path."""
        rng = np.random.default_rng(n)
        if n == 640:
            coeffs = rng.standard_normal(5)
            A = toeplitz(TrigPoly(coeffs + 1j if kind == "complex" else coeffs), n)
        else:
            A = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n))
                                               if kind == "complex" else 0)
        top = A.flat[np.argmax(np.abs(A))]
        return A * (-1 if (top.real < 0) != (kind == "real-negative-max") else 1)

    @pytest.mark.parametrize("n", [9, 64, 640])
    @pytest.mark.parametrize("kind", ["real", "real-negative-max", "complex"])
    def test_global_phase(self, kind, n):
        A = self.phase_operand(kind, n)
        p = p_metric(A)
        assert p_metric(-A) == p
        for phi in (0.3, 1.0, 2.5):
            assert p_metric(np.exp(1j * phi) * A) == pytest.approx(p, rel=1e-13, abs=1e-15)
        assert p == pytest.approx(p_svd(A), rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_rejected(self, bad, dtype):
        A = np.eye(4, dtype=dtype)
        A[0, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            p_metric(A)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DomainError, match="non-empty"):
            p_metric(np.zeros((0, 0)))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 10
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert abs(p_metric(U @ A @ V) - p_metric(A)) <= 1e-10


class TestOptimalSplit:
    def test_zero_matrix(self):
        res = optimal_split(np.zeros((4, 4)))
        assert res.split_index == 1
        assert res.p_value == 0.0
        assert np.abs(res.rank_part).max() == 0
        assert np.abs(res.norm_part).max() == 0

    def test_real_dtype_gives_the_complex_split(self):
        A = np.random.default_rng(5).standard_normal((9, 9))
        res, ref = optimal_split(A), optimal_split(A.astype(complex))
        assert res.rank_part.dtype == res.norm_part.dtype == complex
        assert np.array_equal(res.rank_part, ref.rank_part)
        assert np.array_equal(res.norm_part, ref.norm_part)
        assert (res.split_index, res.p_value) == (ref.split_index, ref.p_value)

    def test_scaled_cycle_split(self):
        # sigma = (9, 1/3, 1/3): objectives are 9, 1/3+1/3, 2/3+1/3, 1;
        # exhaustive enumeration puts the argmin at i*=2
        E = counterexample("scaled_cycle", 3)
        s = np.array([9.0, 1 / 3, 1 / 3])
        objectives = [(i - 1) / 3 + (s[i - 1] if i <= 3 else 0.0) for i in range(1, 5)]
        assert int(np.argmin(objectives)) + 1 == 2
        res = optimal_split(E)
        assert res.split_index == 2
        assert res.p_value == pytest.approx(2 / 3, abs=1e-12)
        assert np.linalg.svd(res.norm_part, compute_uv=False)[0] == pytest.approx(1 / 3, abs=1e-12)

    def test_invariants_on_random_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            res = optimal_split(A)
            # reconstruction
            assert np.abs(res.rank_part + res.norm_part - A).max() <= 1e-10
            # numerical rank of R
            s_r = np.linalg.svd(res.rank_part, compute_uv=False)
            rank = int(np.count_nonzero(s_r > 1e-10 * max(s_r[0], 1e-300)))
            assert rank == res.split_index - 1
            # achieves the metric
            norm_n = np.linalg.svd(res.norm_part, compute_uv=False)[0]
            achieved = rank / 8 + norm_n
            assert achieved - p_metric(A) <= 1e-10

    def test_toeplitz_circulant_corner_split(self):
        n = 16
        D = counterexample("jordan_shift", n) - np.asarray(
            np.roll(np.eye(n), -1, axis=1)
        )  # T - C for the shift symbol: a single corner entry
        res = optimal_split(D)
        assert res.split_index <= 3
        assert res.p_value <= 2 / 16 + 1e-12

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_rejected(self, bad, dtype):
        A = np.eye(4, dtype=dtype)
        A[0, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            optimal_split(A)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DomainError, match="non-empty"):
            optimal_split(np.zeros((0, 0)))


class TestAcsDistance:
    def test_same_sequence_is_zero(self):
        seq = toeplitz_seq(TWO_COS)
        est = acs_distance(seq, seq, (8, 16, 32, 64))
        assert est.rho_estimate == 0.0
        assert all(p == 0 for p in est.p_values)

    def test_toeplitz_vs_circulant_rank_bound(self):
        est = acs_distance(toeplitz_seq(TWO_COS), circulant_seq(TWO_COS), (16, 32, 64, 128))
        for n, p in zip(est.sizes, est.p_values):
            assert p <= 2 / n + 1e-12
        assert est.rho_estimate <= 2 / 64 + 1e-12

    def test_product_vs_locally_toeplitz_bound(self):
        # paper-scale bound with degree k=1, max coeff M=1, |a'| = 1:
        # rank part (2m + (n - m^2))/n plus norm part 3 * 2/m
        expr = GltExpr(((X, TWO_COS),))
        prod = glt_product_seq(expr)
        lt = lt_seq(X, TWO_COS)
        sizes = (16, 36, 64, 144)
        est = acs_distance(prod, lt, sizes)
        for n, p in zip(sizes, est.p_values):
            m = int(np.sqrt(n))
            bound = (2 * m + (n - m * m)) / n + 3 * 2.0 / m
            assert p <= bound + 1e-8

    def test_toeplitz_vs_circulant_is_exactly_four_over_n(self):
        # T_n(f) - C_n(f) has rank 2*deg(f) = 4 and O(1) singular values, so
        # the minimum sits at i = 5 with sigma_5 = 0 exactly
        sizes = (64, 128, 256, 512)
        est = acs_distance(toeplitz_seq(F_REAL), circulant_seq(F_REAL), sizes)
        assert est.p_values == tuple(4 / n for n in sizes)

    def test_requires_four_sizes(self):
        with pytest.raises(DomainError):
            acs_distance(identity_seq(), zero_seq(), (8, 16, 32))

    def test_symmetry_exact(self):
        a = toeplitz_seq(TWO_COS)
        b = circulant_seq(TWO_COS)
        sizes = (8, 16, 32, 64)
        pa = acs_distance(a, b, sizes).p_values
        pb = acs_distance(b, a, sizes).p_values
        assert pa == pb

    def test_rho_bounded_by_max_p(self):
        est = acs_distance(toeplitz_seq(TWO_COS), diag_seq(X), (8, 16, 32, 64))
        assert 0 <= est.rho_estimate <= max(est.p_values)

    def test_triangle_inequality_over_pool(self):
        pool = [
            identity_seq(),
            zero_seq(),
            toeplitz_seq(TWO_COS),
            circulant_seq(TWO_COS),
            diag_seq(X),
        ]
        sizes = (8, 16, 32, 64)
        d = {}
        for i, a in enumerate(pool):
            for j, b in enumerate(pool):
                d[i, j] = acs_distance(a, b, sizes)
        for i in range(5):
            for j in range(5):
                assert d[i, j].rho_estimate == d[j, i].rho_estimate
                for k in range(5):
                    lhs = d[i, k].rho_estimate
                    rhs = d[i, j].rho_estimate + d[j, k].rho_estimate
                    assert lhs <= rhs + 1e-10


class TestAcsEquivalent:
    def test_lt_lc_equivalent(self):
        sizes = (16, 36, 64, 144, 256)
        verdict, est = acs_equivalent(
            lt_seq(X, TWO_COS), lc_seq(X, TWO_COS), sizes, tol=0.5
        )
        assert verdict
        for n, p in zip(sizes, est.p_values):
            # each block differs in at most 2*degree^2 wrapped entries, so
            # the rank of the difference is o(n) and p <= 2*degree^2*m/n
            m = int(np.sqrt(n))
            assert p <= 2 * m / n + 1e-10

    def test_identity_vs_zero_fails(self):
        verdict, est = acs_equivalent(identity_seq(), zero_seq(), (8, 16, 32, 64), tol=0.5)
        assert not verdict
        assert est.rho_estimate == pytest.approx(1.0)

    @pytest.mark.parametrize("count", [2, 3, 4, 5])
    def test_median_equals_numpy_median(self, count):
        rng = np.random.default_rng(count)
        for _ in range(200):
            ps = tuple(rng.random(count) * 10.0 ** rng.integers(-16, 1, count))
            assert acs._median(ps) == np.median(ps)
        assert acs._median((0.5,) * count) == 0.5

    def test_shift_toeplitz_vs_circulant(self):
        # the difference is a single corner entry: rank 1, p <= 1/n
        verdict, est = acs_equivalent(
            toeplitz_seq(SHIFT), circulant_seq(SHIFT), (8, 16, 32, 64), tol=0.5
        )
        assert verdict
        for n, p in zip(est.sizes, est.p_values):
            assert p <= 1 / n + 1e-12


def band_pairs(f):
    """(A, B) sequence pairs that both carry `band`: glt - lc, glt - normal
    form (two terms) and Toeplitz - glt."""
    a2 = parse_expr("exp(0.5*x)", "a")
    two = GltExpr(((A_QUAD, f), (a2, TWO_COS)))
    return [
        (glt_product_seq(GltExpr(((A_QUAD, f),))), lc_seq(A_QUAD, f)),
        (glt_product_seq(two), normal_form_seq(two)),
        (toeplitz_seq(f), glt_product_seq(GltExpr(((A_QUAD, SHIFT),)))),
    ]


def same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class TestBandOperands:
    """p_metric of the band difference equals p of the dense difference's
    band storage bit for bit, and the dense route's within roundoff; the acs
    ladder subtracts in band storage from n = 512, the Gram band floor."""

    @pytest.mark.parametrize("f", [F_REAL, F_CPLX], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [96, 512, 1024, 1600])
    def test_p_equals_the_dense_route(self, n, f, routes):
        for seq_a, seq_b in band_pairs(f):
            D = seq_a(n) - seq_b(n)
            diff = acs._difference(seq_a, seq_b, n)
            b = max(seq_a.band(n).b, seq_b.band(n).b)
            if n < matrices._GRAM_BAND_MIN_N:
                assert isinstance(diff, np.ndarray) and diff.tobytes() == D.tobytes()
                diff = as_band(D, b)
            else:
                assert isinstance(diff, matrices._Band)
                assert diff.ab.tobytes() == matrices._band_storage(D, diff.b).tobytes()
            start = len(routes)
            p = p_metric(as_band(D, b))
            middle = len(routes)
            assert same_bits(p_metric(diff), p)
            # the same routes, and the same Gram bands reach the eigensolver
            assert routes[middle:] == routes[start:middle]
            assert p == pytest.approx(p_metric(D), rel=1e-12)

    @pytest.mark.parametrize("f", [F_REAL, F_CPLX], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [576, 1024])
    def test_zero_rows_or_columns_scatter_the_core(self, n, f, monkeypatch):
        # a band with a zero row or column has a smaller core, which is
        # scattered from the band's slots, with no dense n x n
        formed = []
        dense = matrices._Band.dense
        monkeypatch.setattr(matrices._Band, "dense", lambda band: formed.append(1) or dense(band))
        seq_a, seq_b = band_pairs(f)[0]
        diff = acs._difference(seq_a, seq_b, n)
        D = diff.dense()
        for zero in ((slice(None, None, 7), slice(None)), (slice(None), slice(3, 9))):
            A = D.copy()
            A[zero] = 0
            band = as_band(A, diff.b)
            want_core = matrices._svd_reduce(A)
            formed.clear()
            core = matrices._band_reduce(band)
            assert core.dtype == want_core.dtype and core.tobytes() == want_core.tobytes()
            assert same_bits(p_metric(band), p_metric(A))
            assert formed == []
        formed.clear()
        assert same_bits(p_metric(diff), p_metric(as_band(D, diff.b)))
        assert formed == []

    @pytest.mark.parametrize("f", [F_REAL, F_CPLX], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [576, 1024])
    def test_matching_zero_rows_and_columns_keep_the_band(self, n, f, routes, monkeypatch):
        # dropping row and column k alike leaves a band no wider; its dense
        # matrix is the dense reduction's core bit for bit
        formed = []
        dense = matrices._Band.dense
        monkeypatch.setattr(matrices._Band, "dense", lambda band: formed.append(1) or dense(band))
        D = acs._difference(*band_pairs(f)[0], n).dense()
        for zero in (slice(None, None, 61), slice(3, 9), slice(n - 30, None)):
            A = D.copy()
            A[zero] = A[:, zero] = 0
            band = as_band(A, math.isqrt(n) - 1)
            formed.clear()
            core = matrices._band_reduce(band)
            p = p_metric(band)
            assert formed == [] and gram_bands(routes)[-1][0] == core.shape[0]
            assert isinstance(core, matrices._Band) and core.b <= band.b
            want = matrices._svd_reduce(A)
            assert core.dense().tobytes() == want.tobytes()
            assert core.ab.tobytes() == matrices._band_storage(want, core.b).tobytes()
            assert p == pytest.approx(p_metric(A), rel=1e-12)


    @pytest.mark.parametrize("spec_a", ["lt(2+x | 2+cos(theta))",
                                        "normal-form(2+x | 2+cos(theta))"])
    @pytest.mark.parametrize("n", [1000, 1700])
    def test_zero_tail_keeps_the_band_gram_route(self, n, spec_a, routes):
        # the t = n - m*block zero rows and columns are the same indices, so
        # the core stays a band and takes the Gram band at non-square n
        seq_a, seq_b = build_sequence(spec_a), build_sequence("lc(1 | 2+cos(theta))")
        lay = matrices.block_layout(n)
        assert lay.t > 0
        diff = acs._difference(seq_a, seq_b, n)
        assert isinstance(diff, matrices._Band)
        p = p_metric(diff)
        assert gram_bands(routes) == [(n - lay.t, lay.block - 1)]
        assert same_bits(p, p_metric(seq_a(n) - seq_b(n)))

    def test_ladder_subtracts_bands_from_the_floor(self, monkeypatch):
        seq_a, seq_b = band_pairs(F_CPLX)[1]
        taken = []
        metric = acs.p_metric
        monkeypatch.setattr(acs, "p_metric",
                            lambda A: taken.append(isinstance(A, matrices._Band)) or metric(A))
        sizes = (256, 484, 576, 1024)
        est = acs.acs_distance(seq_a, seq_b, sizes)
        assert taken == [False, False, True, True]
        taken.clear()
        dense = acs.acs_distance(seq_a, dataclasses.replace(seq_b, band=None), sizes)
        assert taken == [False] * 4
        assert est.p_values == pytest.approx(dense.p_values, rel=1e-12)
        # the bands read back from the dense matrices give the same bits
        rebuilt = [dataclasses.replace(s, band=lambda n, s=s: as_band(s(n), s.band(n).b))
                   for s in (seq_a, seq_b)]
        again = acs.acs_distance(*rebuilt, sizes)
        assert all(same_bits(p, q) for p, q in zip(est.p_values, again.p_values))

    def test_overflowing_glt_raises_the_dense_error(self):
        # a(x) f_k overflows to inf near x = 1, with a and f finite
        bad = glt_product_seq(GltExpr(((parse_expr("exp(700*x)", "a"),
                                        TrigPoly.from_coeff_map({-1: 5e4, 1: 5e4})),)))
        lc = lc_seq(A_QUAD, F_REAL)
        with np.errstate(over="ignore"):
            for seq in (bad, dataclasses.replace(bad, band=None)):
                with pytest.raises(DomainError, match="^matrix has non-finite entries$"):
                    acs_equivalent(seq, lc, (576, 1024), tol=0.5)

    def test_overflowing_glt_row_in_the_report(self, tmp_path):
        # the rows that dense operands give, at sizes where the sv and acs
        # ladders take bands
        config = tmp_path / "inf.ini"
        report = tmp_path / "inf.csv"
        glt = "glt(exp(700*x) | 100000*cos(theta))"
        config.write_text(
            f"[global]\noutput = {report}\n\n"
            f"[sv]\nkind = symbol-check\nsequence = {glt}\nsymbol = 2 + cos(theta)\n"
            "sizes = 128, 512\n\n"
            f"[acs]\nkind = acs\nsequence_a = {glt}\nsequence_b = lc(1 + x | 2*cos(theta))\n"
            "sizes = 576, 1024\n", encoding="utf-8")
        with np.errstate(over="ignore"):
            assert main(["run", str(config)]) == 1
        assert report.read_text(encoding="utf-8").splitlines() == [
            "experiment,n,metric,value,bound,verdict",
            "sv,0,error[matrix has non-finite entries],0,,FAIL",
            "acs,0,error[matrix has non-finite entries],0,,FAIL",
        ]


# f with a complex, a zero and a negative coefficient, and a negative a, so
# the differences meet signed zeros
F_SIGNED = TrigPoly.from_coeff_map({-2: 0.5 - 0.25j, -1: 0.0, 0: -1.5, 1: 2j})
A_NEG = parse_expr("x - 0.5", "a")
WIDE = TrigPoly.from_coeff_map({600: 1.0})  # circulant needs n > 1200
POLE = parse_expr("1/(x-0.5)", "a")  # glt hits it at every even n


def mixed_pairs(f):
    """(A, B) pairs of different band families, among them a circulant,
    whose wrapped slots are subtracted too, and the dense-only half shift."""
    glt = glt_product_seq(GltExpr(((A_NEG, f), (A_QUAD, TWO_COS))))
    diag = diag_seq(A_NEG)
    return [(toeplitz_seq(f), diag), (diag, circulant_seq(f)),
            (circulant_seq(f), lt_seq(A_NEG, f)), (glt, diag),
            (glt, counterexample_seq("half_shift"))]


def band_only(seq, n):
    """seq, failing if its dense matrix is built where its band stands in
    (from the floor on, a banded side is never built dense)."""
    if seq.band is None or n < matrices._GRAM_BAND_MIN_N:
        return seq
    return dataclasses.replace(seq, generator=lambda n: pytest.fail("dense band"))


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


class TestMixedDifference:
    """Bands of two families are subtracted in band storage, and a pair with
    a dense-only side densely; either way the difference is A_n - B_n bit
    for bit, signed zeros included."""

    @pytest.mark.parametrize("f", [F_SIGNED, F_REAL], ids=["signed", "real"])
    @pytest.mark.parametrize("n", [511, 512, 1024])
    def test_equals_the_dense_difference(self, n, f):
        for seq_a, seq_b in mixed_pairs(f):
            want = seq_a(n) - seq_b(n)
            banded = n >= matrices._GRAM_BAND_MIN_N and seq_b.band is not None
            got = acs._difference(band_only(seq_a, n) if banded else seq_a,
                                  band_only(seq_b, n) if banded else seq_b, n)
            assert isinstance(got, matrices._Band) == banded
            got = got.dense() if banded else got
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            for part in ("real", "imag"):
                signs = np.signbit(getattr(got, part))
                assert np.array_equal(signs, np.signbit(getattr(want, part)))

    @pytest.mark.parametrize("n", [512, 1024])
    def test_errors_come_in_the_dense_order(self, n):
        glt = glt_product_seq(GltExpr(((POLE, F_REAL),)))
        for seq_a, seq_b in ((glt, circulant_seq(WIDE)), (circulant_seq(WIDE), glt),
                             (toeplitz_seq(F_REAL), circulant_seq(WIDE)),
                             (circulant_seq(WIDE), toeplitz_seq(F_REAL)),
                             (diag_seq(POLE), circulant_seq(WIDE)),
                             (circulant_seq(WIDE), diag_seq(POLE))):
            want = raised(lambda: seq_a(n) - seq_b(n))
            assert raised(lambda: acs._difference(seq_a, seq_b, n)) == want

    def test_ladder_p_values_are_unchanged(self):
        # from the floor, p of the dense difference's band storage
        sizes = (256, 512, 576, 1024)
        for seq_a, seq_b in mixed_pairs(F_SIGNED):
            est = acs.acs_distance(seq_a, seq_b, sizes)
            dense = [seq_a(n) - seq_b(n) for n in sizes]
            want = [p_metric(D if n < matrices._GRAM_BAND_MIN_N or seq_b.band is None
                             else as_band(D, max(seq_a.band(n).b, seq_b.band(n).b)))
                    for n, D in zip(sizes, dense)]
            assert all(same_bits(p, q) for p, q in zip(est.p_values, want))
            assert est.p_values == pytest.approx([p_metric(D) for D in dense], rel=1e-12)


class TestPeriodicBandDifference:
    """The circulant is a periodic band whose wrapped slots hold its corners.
    From n = 512 its differences with other bands are subtracted in band
    storage, T_n - C_n leaving only the wrapped slots nonzero, and p is the
    dense difference's bit for bit."""

    @pytest.mark.parametrize("f", [F_SIGNED, F_REAL], ids=["signed", "real"])
    @pytest.mark.parametrize("n", [511, 512, 1024])
    def test_p_equals_the_dense_difference(self, n, f):
        toeplitz_f, circulant_f = toeplitz_seq(f), circulant_seq(f)
        glt = glt_product_seq(GltExpr(((A_NEG, f), (A_QUAD, TWO_COS))))
        for seq_a, seq_b in ((toeplitz_f, circulant_f), (circulant_f, toeplitz_f),
                             (glt, circulant_f), (lc_seq(A_QUAD, f), circulant_f)):
            want = seq_a(n) - seq_b(n)
            got = acs._difference(band_only(seq_a, n), band_only(seq_b, n), n)
            assert isinstance(got, matrices._Band) == (n >= matrices._GRAM_BAND_MIN_N)
            assert (got.dense() if isinstance(got, matrices._Band) else got).tobytes() == \
                want.tobytes()
            assert same_bits(p_metric(got), p_metric(want))

    @pytest.mark.parametrize("n", [512, 1024])
    def test_toeplitz_minus_circulant_is_its_wrapped_slots(self, n):
        diff = acs._difference(toeplitz_seq(F_REAL), circulant_seq(F_REAL), n)
        assert diff.b == 2 and diff.wraps()
        row = np.add.outer(np.arange(n), np.arange(-2, 3))
        wrapped = (row < 0) | (row >= n)
        assert not diff.ab[~wrapped].any() and diff.ab[wrapped].all()
        assert matrices._band_reduce(diff).shape == (4, 4)

    def test_a_wrapped_slot_is_never_aliased(self):
        # widened to deg 300 >= n/2, the circulant's corners would land on
        # slots of the band itself, so the difference is formed dense
        n = 512
        wide = toeplitz_seq(TrigPoly.from_coeff_map({-300: 0.5, 0: 1.0, 256: -2.0}))
        band = circulant_seq(F_SIGNED).band(n)
        assert band.wraps() and band.widened(n // 2) is None
        assert band.widened(n // 2 - 1) is not None
        for seq_a, seq_b in ((circulant_seq(F_SIGNED), wide), (wide, circulant_seq(F_SIGNED))):
            want = seq_a(n) - seq_b(n)
            got = acs._difference(seq_a, seq_b, n)
            assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
            assert same_bits(p_metric(got), p_metric(want))


class TestBandMemory:
    """One band step forms no dense n x n: its traced peak stays within four
    band storages, 64 n (2b + 1) bytes, far below a dense complex matrix's
    16 n^2."""

    def test_toeplitz_minus_circulant_p_step(self, traced_peak):
        # a 1024 x 5 band whose four corner columns make a 4 x 4 core
        n = 1024
        seq_a, seq_b = toeplitz_seq(F_SIGNED), circulant_seq(F_SIGNED)
        acs._p_ladder(seq_a, seq_b, (n,))  # one-off caches
        assert traced_peak(acs._p_ladder, seq_a, seq_b, (n,)) < 64 * n * (2 * 2 + 1)

    def test_glt_minus_lc_p_step(self, traced_peak):
        n = 1024
        seq_a, seq_b = band_pairs(F_CPLX)[0]
        b = math.isqrt(n) - 1  # lc's blocks; glt has b = 2
        acs._p_ladder(seq_a, seq_b, (n,))  # one-off caches
        assert traced_peak(acs._p_ladder, seq_a, seq_b, (n,)) < 64 * n * (2 * b + 1)
