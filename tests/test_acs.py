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
