import numpy as np
import pytest

from glt_lab import (
    DomainError,
    TrigPoly,
    acs_distance,
    acs_equivalent,
    circulant,
    circulant_seq,
    counterexample,
    diag_seq,
    diagonal_select,
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
from glt_lab.cli import build_sequence
from glt_lab.matrices import _svd_reduce, svdvals
from glt_lab.normal_form import normal_form
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
    """Oracle for the Gram route: the dense SVD of the whole matrix."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    s = np.linalg.svd(A, compute_uv=False)
    return float((np.arange(n + 1) / n + np.append(s, 0.0)).min())


def phase_canonical(A):
    """A rotated by abs(v)/v, v its largest entry: a complex copy of the whole
    operand, real-valued or not."""
    v = A.flat[np.argmax(np.abs(A))]
    return A if v == 0 else A * (abs(v) / v)


def p_rotated_copy(A):
    """p_metric's reductions and routes applied to a rotated copy of A: the
    oracle of the real-valued route, which scales the reduced core instead."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    s, core = _svd_reduce(phase_canonical(A))
    if core is not None:
        s = acs._gram_svdvals(core, n)
        if s is None:
            s = acs._dense_svdvals(core, n)
    return float(acs._objective(s).min())


def p_svdvals(A):
    """p from `svdvals`, the route p_metric falls back to."""
    s = svdvals(phase_canonical(np.asarray(A, dtype=complex)))
    n = s.size
    return float((np.arange(n + 1) / n + np.append(s, 0.0)).min())


@pytest.fixture
def route(monkeypatch):
    """Records, per p_metric call, whether the Gram route certified its
    values ("gram") or the dense SVD ran ("dense")."""
    taken = []
    gram, dense = acs._gram_svdvals, acs._dense_svdvals

    def gram_spy(core, n):
        s = gram(core, n)
        if s is not None:
            taken.append("gram")
        return s

    def dense_spy(core, n):
        taken.append("dense")
        return dense(core, n)

    monkeypatch.setattr(acs, "_gram_svdvals", gram_spy)
    monkeypatch.setattr(acs, "_dense_svdvals", dense_spy)
    return taken


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
    def test_glt_minus_lc(self, f, route):
        A = glt_product_seq(GltExpr(((A_QUAD, f),)))(576) - lc_seq(A_QUAD, f)(576)
        assert abs(p_metric(A) - p_svd(A)) <= 1e-10 * p_svd(A)
        assert route == ["gram"]

    @pytest.mark.parametrize("f", [F_REAL, F_CPLX], ids=["real", "complex"])
    def test_glt_minus_normal_form(self, f, route):
        expr = GltExpr(((A_QUAD, f), (A_EXP, F_REAL)))
        A = glt_product_seq(expr)(576) - normal_form(expr, 576).matrix()
        assert abs(p_metric(A) - p_svd(A)) <= 1e-10 * p_svd(A)
        assert route == ["gram"]

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("drop", ["rows", "cols"])
    def test_zero_rows_and_rectangular_cores(self, dtype, drop, route):
        # a 50x60 or 60x45 core: the Gram matrix is formed on the short side
        rng = np.random.default_rng(11)
        A = rng.standard_normal((60, 60)).astype(dtype)
        if dtype is complex:
            A += 1j * rng.standard_normal((60, 60))
        A /= 4 * np.sqrt(60)
        if drop == "rows":
            A[::6] = 0
        else:
            A[:, ::4] = 0
        assert abs(p_metric(A) - p_svd(A)) <= 1e-10 * p_svd(A)
        assert route == ["gram"]

    def test_toeplitz_minus_circulant_is_exactly_four_over_n(self, route):
        A = toeplitz(F_REAL, 1024) - circulant(F_REAL, 1024)
        assert p_metric(A) == 4 / 1024
        assert route == ["gram"]

    def test_exact_rank_falls_back(self, route):
        # sigma_6 = 0 sets p = 5/40 and no relative bound can certify it
        A = with_spectrum([3.0, 2.0, 1.5, 1.0, 0.5] + [0.0] * 35)
        p = p_metric(A)
        assert route == ["dense"]
        assert p == p_svdvals(A)
        assert p == pytest.approx(5 / 40, abs=1e-14)

    @pytest.mark.parametrize("past", [0.99, 1.01])
    def test_graded_spectrum_at_the_bound(self, past, route):
        # sigma_2.. decay geometrically; sigma_1 is set `past` times the
        # largest value the gate certifies, 100 eps sigma_1^2 = 1e-10 p sigma_min
        n = 100
        tail = 0.6 * 0.995 ** np.arange(n - 1)
        obj = np.arange(1, n + 1) / n + np.append(tail, 0.0)
        p = obj.min()
        setting = tail[np.arange(1, n) / n <= p].min()
        sigma_1 = past * np.sqrt(1e-10 * p * setting / (100 * np.finfo(float).eps))
        A = with_spectrum(np.append(sigma_1, tail), seed=1)
        value = p_metric(A)
        if past > 1:
            assert route == ["dense"]
            assert value == p_svdvals(A)
        else:
            assert route == ["gram"]
            assert abs(value - p_svd(A)) <= 1e-10 * p

    @pytest.mark.parametrize("scale", [2.0**-520, 2.0**520], ids=["tiny", "huge"])
    def test_extreme_scales_fall_back(self, scale, route):
        # squaring would underflow or overflow
        A = scale * with_spectrum(np.linspace(1.0, 0.5, 20))
        assert p_metric(A) == p_svdvals(A)
        assert route == ["dense"]


# the seed-0 small-sweep acs operand: real-valued, and the phase of its
# largest entry is abs(v)/v = -(1 - 2^-53), one ulp off -1
GLT_LC_0 = "1.0576 + 1.2063*x^2 | 0.8537 + 1.2049*cos(theta) + 0.3518*i*sin(2*theta)"


class TestRealValuedRoute:
    """A real-valued operand is scaled by phase.real after its reduction;
    the values must equal those of a rotated complex copy bit for bit."""

    @staticmethod
    def operand(kind, n):
        rng = np.random.default_rng(n)
        if kind == "negative-max":
            A = rng.standard_normal((n, n))
            return A * -np.sign(A.flat[np.argmax(np.abs(A))])
        if kind == "glt-lc":
            return build_sequence(f"glt({GLT_LC_0})")(n) - build_sequence(f"lc({GLT_LC_0})")(n)
        if kind == "banded":
            # the largest entry -0.47 has the phase -(1 - 2^-53), and p = sigma_1
            # moves by an ulp if the band is not scaled by it
            return toeplitz(TrigPoly.from_coeff_map({-1: 0.003, 0: -0.47, 1: 0.007}), n)
        return 1j * rng.standard_normal((n, n))  # i*R: made real by its rotation

    CASES = [("negative-max", 64), ("glt-lc", 36), ("glt-lc", 64), ("glt-lc", 121),
             ("banded", 512), ("i-real", 64)]

    @pytest.mark.parametrize("kind, n", CASES)
    def test_bitwise_equal_to_a_rotated_copy(self, kind, n, monkeypatch):
        A = self.operand(kind, n)
        banded = []
        solver = matrices._band_solver
        monkeypatch.setattr(matrices, "_band_solver", lambda: banded.append(n) or solver())
        p = p_metric(A)
        assert p == p_rotated_copy(A)
        assert p_metric(-A) == p
        assert p == pytest.approx(p_svd(A), rel=1e-12, abs=1e-14)
        assert bool(banded) == (kind == "banded")

    @pytest.mark.parametrize("kind, n", [("glt-lc", 36), ("glt-lc", 64), ("glt-lc", 121),
                                         ("banded", 512)])
    def test_phase_is_one_ulp_off(self, kind, n):
        A = np.asarray(self.operand(kind, n), dtype=complex)
        v = A.flat[np.argmax(np.abs(A))]
        phase = abs(v) / v
        assert not A.imag.any() and phase.imag == 0
        assert abs(phase.real) == 1 - 2.0**-53

    @pytest.mark.parametrize("n", [256, 400])
    def test_no_copy_of_a_real_valued_operand(self, n, traced_peak):
        # a rotated complex copy alone is 16 n^2 bytes; the route keeps one
        # real copy of the core and its Gram matrix, 8 n^2 bytes each
        A = self.operand("glt-lc", n)
        assert not A.imag.any() and A.real.flat[np.argmax(np.abs(A))] < 0
        assert traced_peak(p_metric, A) < 24 * n * n


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

    def test_shift_toeplitz_vs_circulant(self):
        # the difference is a single corner entry: rank 1, p <= 1/n
        verdict, est = acs_equivalent(
            toeplitz_seq(SHIFT), circulant_seq(SHIFT), (8, 16, 32, 64), tol=0.5
        )
        assert verdict
        for n, p in zip(est.sizes, est.p_values):
            assert p <= 1 / n + 1e-12


class TestDiagonalSelect:
    def test_constant_family_selects_top(self):
        seq = toeplitz_seq(TWO_COS)
        family = [seq, seq, seq]
        selection, extracted = diagonal_select(family, (8, 16, 32, 64))
        assert all(m == 3 for m in selection.values())
        np.testing.assert_array_equal(extracted(16), seq(16))

    def test_partial_sums_converge_to_top_level(self):
        # partial sums of x * 1 + (1/level)-weighted tail terms
        def level_seq(levels):
            terms = [(X, TrigPoly.constant(1))]
            for j in range(2, levels + 1):
                terms.append(
                    (parse_expr(f"x/{j * j}", "a"), TWO_COS)
                )
            return glt_product_seq(GltExpr(tuple(terms)))

        family = [level_seq(m) for m in range(1, 5)]
        sizes = (16, 36, 64, 144)
        selection, extracted = diagonal_select(family, sizes)
        ms = [selection[n] for n in sizes]
        assert all(b >= a for a, b in zip(ms, ms[1:]))  # nondecreasing
        assert ms[-1] == 4
        np.testing.assert_array_equal(extracted(144), family[ms[-1] - 1](144))

    def test_two_cluster_family_never_mixes(self):
        family = [zero_seq()] + [identity_seq() for _ in range(3)]
        sizes = (8, 16, 32, 64)
        selection, extracted = diagonal_select(family, sizes)
        for n in sizes:
            assert selection[n] >= 2
            np.testing.assert_array_equal(extracted(n), np.eye(n))

    def test_needs_two_levels(self):
        with pytest.raises(DomainError):
            diagonal_select([identity_seq()], (8, 16))
