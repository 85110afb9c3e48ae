import dataclasses
import hashlib
import importlib
import tracemalloc

import numpy as np
import pytest
from bands import as_band, dense_only
from scipy.optimize import linear_sum_assignment

from glt_lab import (
    DomainError,
    EvalError,
    GltExpr,
    GltLabError,
    TrigPoly,
    affine_shift_test,
    circulant_seq,
    counterexample_seq,
    default_family,
    diag_seq,
    eig_symbol_residual,
    eigenvalues,
    glt_product_seq,
    hermitian_function,
    identity_seq,
    lc_seq,
    lt_seq,
    normal_form_seq,
    parse_expr,
    sample_symbol,
    singular_values,
    sv_symbol_residual,
    toeplitz_seq,
    verify_normal_form,
    zero_distributed_test,
    zero_seq,
)
from glt_lab import acs, matrices, spectra
from glt_lab.errors import NumericalError
from glt_lab.matrices import svdvals
from glt_lab.spectra import TestFamily as Family
from glt_lab.spectra import (
    _grid_samples,
    as_symbol_grid,
    convergence_tolerance,
    family_with_extra_centers,
)
from glt_lab.symbols import GltExpr, SymbolGrid

TWO_COS = TrigPoly.from_coeff_map({1: 1, -1: 1})
SHIFT = TrigPoly.from_coeff_map({1: 1})
X = parse_expr("x", "a")
CONST1 = TrigPoly.from_coeff_map({0: 1})


def _num_literal(v: float) -> str:
    """Render a float as a grammar-compatible literal (no sign, no exponent)."""
    if v < 0:
        return f"(0-{_num_literal(-v)})"
    text = repr(float(v))
    if "e" in text or "E" in text:
        text = format(v, ".17f").rstrip("0")
        if text.endswith("."):
            text += "0"
    return text


def _hat(center, width):
    """The test oracle for one family member: the radial hat
    max(0, 1 - |t - c|/w) as a closure, called as F(t=samples)."""
    c = complex(center)
    # scale by 1/w rather than divide: numpy's complex division by a real w
    # does exactly this, so the values equal the parsed expression bit for bit
    inv_w = 1.0 / float(width)

    def hat(t):
        g = 1.0 - np.abs(np.asarray(t, dtype=complex) - c) * inv_w
        return np.maximum(g, 0.0).astype(complex)

    return hat


def _hats(family):
    """One `_hat` closure per member of the family."""
    return [_hat(c, w) for c, w in zip(family.centers, family.radii)]


def multiset_close(a, b, tol):
    a = np.sort_complex(np.asarray(a, dtype=complex))
    b = np.sort_complex(np.asarray(b, dtype=complex))
    return np.abs(a - b).max() <= tol


class TestDecompositions:
    def test_identity(self):
        sv = singular_values(np.eye(4))
        np.testing.assert_allclose(sv, 1, atol=1e-14)
        ev = eigenvalues(np.eye(4))
        np.testing.assert_allclose(np.sort(ev.real), 1, atol=1e-14)

    def test_spectra_are_arrays(self):
        A = toeplitz_seq(TWO_COS)(6)
        for spectrum in (singular_values(A), eigenvalues(A)):
            assert isinstance(spectrum, np.ndarray) and spectrum.shape == (6,)

    def test_sv_sorted_descending(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        sv = singular_values(A)
        assert np.all(np.diff(sv) <= 0)
        assert np.all(sv >= 0)

    def test_circulant_shift_eigenvalues_are_roots_of_unity(self):
        ev = eigenvalues(circulant_seq(SHIFT)(4))
        assert multiset_close(ev, [1, 1j, -1, -1j], 1e-10)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_diagonal_spectrum_skips_the_dense_solver(self, dtype, routes):
        rng = np.random.default_rng(5)
        d = rng.standard_normal(300).astype(dtype)
        if dtype is complex:
            d += 1j * rng.standard_normal(300)
        d[::7] = 0
        A = np.diag(d)
        oracle = np.linalg.eigvals(A.astype(complex))
        np.testing.assert_array_equal(eigenvalues(A), oracle)
        np.testing.assert_array_equal(eigenvalues(np.zeros((4, 4))), np.zeros(4))
        C = A.astype(complex)
        assert not np.shares_memory(eigenvalues(C), C)  # a copy, not a view of A
        diagonal = [("eigenvalues", 300, "diagonal", None), ("eigenvalues", 4, "diagonal", None)]
        assert routes == [diagonal[0], diagonal[1], diagonal[0]]
        A[3, 7] = 0.5  # one nonzero off the diagonal
        np.testing.assert_allclose(eigenvalues(A), oracle, atol=1e-14)
        assert routes[3:] == [("eigenvalues", 300, "solver", None)]

    def test_tridiagonal_closed_form(self):
        # 0-diagonal, 1-off-diagonal Toeplitz has eigenvalues 2cos(k pi/(n+1));
        # oracle: dense Hermitian eigensolver on the assembled matrix
        n = 8
        T = toeplitz_seq(TWO_COS)(n)
        closed = 2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
        oracle = np.linalg.eigvalsh(T.real)
        assert multiset_close(oracle, closed, 1e-12)
        ev = eigenvalues(T)
        assert multiset_close(ev, closed, 1e-8)


class TestFunctionals:
    def test_all_zero_samples(self):
        fam = Family([0.5], [1.0])
        dist = np.zeros(7)
        assert fam.means(dist)[0] == pytest.approx(0.5)

    def test_identity_singular_values(self):
        fam = Family([1.0], [0.5])
        assert fam.means(singular_values(np.eye(4)))[0] == pytest.approx(1.0)

    def test_quarter_weight_on_roots_of_unity(self):
        # the hat at 1 with width 1: of {1, i, -1, -i} only 1 lands in the
        # support, so the mean is F(1)/4 = 1/4
        fam = Family([1.0], [1.0])
        dist = eigenvalues(circulant_seq(SHIFT)(4))
        assert fam.means(dist)[0] == pytest.approx(0.25, abs=1e-12)

    def test_symbol_means_constant(self):
        fam = Family([1.0], [0.5])
        grid = sample_symbol(parse_expr("1", "a"), "UNIT", (16,))
        assert fam.means(_grid_samples(grid, "sv"))[0] == pytest.approx(1.0)
        zero = sample_symbol(parse_expr("x-x", "a"), "UNIT", (16,))
        assert Family([0.0], [0.5]).means(_grid_samples(zero, "eig"))[0] == pytest.approx(1.0)

    def test_second_moment_of_two_cos(self):
        # (1/2pi) int (2cos)^2 = 2; the clipping region [-3,3] never binds
        grid = sample_symbol(TWO_COS, "RECT", (1, 256))
        F = parse_expr("t^2", "F")
        assert np.mean(F(t=_grid_samples(grid, "eig"))) == pytest.approx(2.0, abs=1e-3)


class TestHatFamily:
    def test_compact_support_spot_check(self):
        fam = default_family(2.0)
        rng = np.random.default_rng(9)
        for c, w in zip(fam.centers, fam.radii):
            angles = rng.uniform(0, 2 * np.pi, 100)
            radii = w * (1 + rng.uniform(0, 3, 100))
            pts = c + radii * np.exp(1j * angles)
            assert Family([c], [w]).means(pts)[0] <= 1e-14

    def test_hat_peak_and_slope(self):
        fam = Family([0.5], [0.25])
        assert fam.means([0.5])[0] == pytest.approx(1.0)
        assert fam.means([0.625])[0] == pytest.approx(0.5)
        assert fam.means([0.75])[0] == pytest.approx(0.0)

    @staticmethod
    def parsed_hat(center, width):
        """The hat as an expression string through the grammar: the oracle."""
        c = complex(center)
        if c.imag == 0:
            shift = f"t-{_num_literal(c.real)}" if c.real >= 0 else f"t+{_num_literal(-c.real)}"
        else:
            shift = f"t-({_num_literal(c.real)}+{_num_literal(c.imag)}*i)"
        g = f"1-abs({shift})/{_num_literal(width)}"
        return parse_expr(f"(({g})+abs({g}))/2", "F")

    @pytest.mark.parametrize("R", [1.0, 3.0, 41.5, 8193.0])
    def test_hat_bitwise_equals_parsed_oracle(self, R):
        rng = np.random.default_rng(int(R))
        centers = list(np.linspace(-R, R, 8))
        centers += [0.0, 1.0, -0.5, 0.3 * R - 0.7j * R, -R / 3 + 0.2j * R]
        for w in (0.01, 0.1, 0.5, R / 7, R / 4):
            for c in centers:
                c_re = complex(c).real
                near = c_re + w * rng.uniform(-1.5, 1.5, 300)
                real_t = np.concatenate([rng.uniform(-1.5 * R, 1.5 * R, 300), near, [c_re]])
                complex_t = real_t + 1j * rng.uniform(-R, R, real_t.size)
                for t in (real_t, complex_t, np.abs(complex_t)):
                    got = _hat(c, w)(t=t)
                    want = self.parsed_hat(c, w)(t=t)
                    assert got.dtype == want.dtype == complex
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @staticmethod
    def means_per_hat(family, t):
        """The oracle of `means`: one hat at a time, each mean over a 1-D
        buffer."""
        t = np.asarray(t)
        if np.iscomplexobj(t) and not t.imag.any():
            t = t.real
        real = not np.iscomplexobj(t) and not family.centers.imag.any()
        centers = family.centers.real if real else family.centers
        g = np.empty(t.shape)
        diff = g if real else np.empty(t.shape, dtype=complex)
        out = np.empty(len(family))
        for j, (c, w) in enumerate(zip(centers, family.radii)):
            np.subtract(t, c, out=diff)
            np.abs(diff, out=g)
            g *= 1.0 / w
            np.subtract(1.0, g, out=g)
            np.maximum(g, 0.0, out=g)
            out[j] = g.mean()
        return out

    # blocks of the whole family, of a few hats with a short last block, and
    # of one hat from a t of spectra._HAT_BLOCK samples on
    @pytest.mark.parametrize("size", [1, 2, 31, 128, 1600, 5461, 16383, 16384, 40000])
    @pytest.mark.parametrize("t_kind", ["real", "complex", "real-valued complex"])
    @pytest.mark.parametrize("complex_centers", [False, True])
    def test_means_equal_the_per_hat_loop_bitwise(self, size, t_kind, complex_centers):
        rng = np.random.default_rng(size)
        centers = rng.uniform(-3, 3, 13) + (1j * rng.uniform(-1, 1, 13) if complex_centers else 0)
        family = Family(centers, rng.uniform(0.05, 3, 13))
        t = rng.uniform(-3, 3, size)
        if t_kind == "complex":
            t = t + 1j * rng.uniform(-1, 1, size)
        elif t_kind == "real-valued complex":
            t = t.astype(complex)
        assert family.means(t).tobytes() == self.means_per_hat(family, t).tobytes()

    def test_family_has_nine_members(self):
        fam = default_family(2.0)
        assert len(fam) == 9
        assert any(abs(c) < 1e-12 for c in fam.centers)


class TestSvSymbolResidual:
    def test_identity_sequence_exact(self):
        one = parse_expr("1", "a")
        table = sv_symbol_residual(identity_seq(), one, (8, 16, 32))
        assert table.residuals.max() <= 1e-12

    def test_banded_toeplitz_ladder_trend(self):
        table = sv_symbol_residual(
            toeplitz_seq(TWO_COS), TWO_COS, (32, 64, 128, 256), resolution=(4, 4096)
        )
        worst = table.max_per_size()
        inversions = int(np.sum(np.diff(worst) > 0))
        assert inversions <= 1
        assert worst[-1] < worst[0]

    def test_alternating_identity_sv_residuals_vanish(self):
        # |(-1)^n| = 1, so the singular value tests cannot see the flip
        one = parse_expr("1", "a")
        table = sv_symbol_residual(
            counterexample_seq("alt_identity"), one, (16, 17, 32, 33)
        )
        assert table.residuals.max() <= 1e-12

    @pytest.mark.parametrize("fn", [sv_symbol_residual, eig_symbol_residual])
    def test_empty_ladder_is_a_domain_error(self, fn):
        with pytest.raises(DomainError, match="need at least 1 sizes"):
            fn(identity_seq(), CONST1, ())


class TestResidualTableEquality:
    """Tables hold arrays, so they compare by identity, like TestFamily;
    equal-valued tables and the reports holding them compare without raising."""

    def test_separately_computed_tables(self):
        def table():
            return sv_symbol_residual(toeplitz_seq(TWO_COS), TWO_COS, (16, 32))

        a, b = table(), table()
        np.testing.assert_array_equal(a.residuals, b.residuals)
        assert a == a
        assert (a == b) is False

    def test_reports_holding_tables(self):
        expr = GltExpr(((X, TWO_COS),))
        a, b = (verify_normal_form(expr, (16, 36)) for _ in range(2))
        assert a == a
        assert (a == b) is False


class TestEigSymbolResidual:
    def test_diag_sampling_matches_midpoint_oracle(self):
        # empirical side is the right-endpoint Riemann sum of F on (0,1];
        # symbol side is the midpoint mean on the default fine grid, so the
        # residual must equal the independently computed quadrature gap
        sizes = (16, 32, 64)
        grid = as_symbol_grid(X)
        fam = default_family(grid.max_abs())
        table = eig_symbol_residual(diag_seq(X), grid, sizes, fam)
        for i, n in enumerate(sizes):
            nodes = np.arange(1, n + 1) / n
            for j, F in enumerate(_hats(fam)):
                right_sum = np.mean(F(t=nodes.astype(complex)))
                mid_mean = np.mean(F(t=grid.samples))
                oracle = abs(right_sum - mid_mean)
                assert table.residuals[i, j] == pytest.approx(oracle, abs=1e-14)
            assert table.residuals[i].max() <= 3.0 / n

    def test_jordan_shift_distributes_like_zero(self):
        zero = parse_expr("x-x", "a")
        table = eig_symbol_residual(
            counterexample_seq("jordan_shift"), zero, (8, 16, 32)
        )
        assert table.residuals.max() <= 1e-12

    def test_alternating_identity_parity_gap(self):
        one = parse_expr("1", "a")
        fam_base = default_family(1.0)
        from glt_lab.spectra import family_with_extra_centers

        fam = family_with_extra_centers(fam_base, (1.0, -1.0), 0.5)
        table = eig_symbol_residual(counterexample_seq("alt_identity"), one, (16, 17), fam)
        even_res, odd_res = table.residuals
        # the hat at 1 sees the flip: residual 0 on even sizes, 1 on odd
        idx = len(fam) - 2
        assert even_res[idx] <= 1e-12
        assert odd_res[idx] == pytest.approx(1.0, abs=1e-12)


class TestZeroDistributed:
    def test_zero_sequence(self):
        verdict, table = zero_distributed_test(zero_seq(), (8, 16, 32))
        assert verdict
        assert table.residuals.max() <= 1e-14

    def test_scaled_cycle_passes(self):
        verdict, table = zero_distributed_test(
            counterexample_seq("scaled_cycle"), (8, 16, 32, 64)
        )
        assert verdict
        assert table.max_per_size()[-1] < 10 / np.sqrt(64)

    def test_identity_fails(self):
        verdict, table = zero_distributed_test(identity_seq(), (64, 128, 256))
        assert not verdict
        # the hat at 0 has F(0)=1 and F(1)=0, giving residual 1
        assert table.max_per_size()[-1] == pytest.approx(1.0, abs=1e-12)


class TestResidualBounds:
    @pytest.mark.parametrize("fn", [sv_symbol_residual, eig_symbol_residual])
    def test_ladder_carries_convergence_tolerance(self, fn):
        # a coarse grid, so 1/sqrt(n) wins at 4 and 16 and 1/8 at 256
        sizes = (4, 16, 256)
        grid = as_symbol_grid(TWO_COS, (8, 8))
        table = fn(circulant_seq(TWO_COS), grid, sizes)
        want = [convergence_tolerance(n, grid) for n in sizes]
        assert table.bounds.tolist() == want == [5.0, 2.5, 1.25]

    def test_zero_distributed_bound_is_last_size_noise_scale(self):
        sizes = (8, 16, 32, 64)
        _, table = zero_distributed_test(counterexample_seq("scaled_cycle"), sizes)
        assert table.bounds.tolist() == [10.0 / np.sqrt(64)] * len(sizes)

    def test_passes_compares_maxima_with_bounds(self):
        table = sv_symbol_residual(toeplitz_seq(TWO_COS), TWO_COS, (16, 32, 64))
        worst = table.max_per_size()
        # one bound equal to the maximum, one just below it, one far above
        bounds = np.array([worst[0], np.nextafter(worst[1], 0.0), 2.0 * worst[2]])
        table = dataclasses.replace(table, bounds=bounds)
        assert table.passes().tolist() == [True, False, True]
        assert table.passes().tolist() == (table.max_per_size() <= table.bounds).tolist()


class TestInvarianceProperties:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unitary_invariance_of_singular_values(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        s1 = singular_values(A)
        s2 = singular_values(U @ A @ V)
        assert np.abs(s1 - s2).max() <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_similarity_invariance_of_eigenvalues(self, seed):
        rng = np.random.default_rng(seed)
        n = 10
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        e1 = np.sort_complex(eigenvalues(A))
        e2 = np.sort_complex(eigenvalues(U.conj().T @ A @ U))
        assert np.abs(e1 - e2).max() <= 1e-8

    @pytest.mark.parametrize("n", [16, 25, 49])
    def test_normal_matrix_bridge(self, n):
        # block circulant operators are normal: sorted |eigenvalues| must
        # equal sorted singular values
        A = lc_seq(X, TWO_COS)(n)
        sv = singular_values(A)
        ev = np.sort(np.abs(eigenvalues(A)))[::-1]
        assert np.abs(sv - ev).max() <= 1e-10

    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_polynomial_push_through_on_normal_blocks(self, s):
        n = 36
        A = lc_seq(X, TWO_COS)(n)
        lam = eigenvalues(A)
        sv_power = singular_values(np.linalg.matrix_power(A, s))
        expected = np.sort(np.abs(lam) ** s)[::-1]
        assert np.abs(sv_power - expected).max() <= 1e-8


# closed-form spectra hooks against the dense decompositions they replace;
# n covers even blocks (37: block 6, 64: block 8), an odd block (50: block 7)
# and a nonzero trailing block (37, 50, 257)
HOOK_SIZES = [37, 50, 64, 100, 257]
A_HOOK = parse_expr("1+x^2", "a")
F_HOOK = TrigPoly.from_coeff_map({-2: 0.5j, -1: 2, 0: 1, 1: -1, 2: 0.25})


def hook_seqs():
    return {
        "lt": lt_seq(A_HOOK, F_HOOK),
        "lc": lc_seq(A_HOOK, F_HOOK),
        "circulant": circulant_seq(F_HOOK),
    }


def dense_only(seq):
    return dataclasses.replace(seq, svals=None, eigs=None)


def assigned_gap(a, b):
    """Largest distance between two multisets under their optimal matching."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.shape == b.shape
    rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
    return np.abs(a[rows] - b[cols]).max()


def raised(fn):
    with pytest.raises(GltLabError) as info:
        fn()
    return type(info.value), str(info.value)


class TestStructuredHooks:
    def test_hooks_are_set_only_where_the_spectrum_is_closed_form(self):
        seqs = hook_seqs()
        assert seqs["lt"].svals is not None and seqs["lt"].eigs is None
        for name in ("lc", "circulant"):
            assert seqs[name].svals is not None and seqs[name].eigs is not None
        for seq in (toeplitz_seq(F_HOOK), diag_seq(X), toeplitz_seq(F_HOOK).shifted(1.0),
                    seqs["lt"].shifted(1.0)):
            assert seq.svals is None and seq.eigs is None

    def test_eigs_alone_give_svals_as_moduli(self):
        eigs = hook_seqs()["lc"].eigs
        seq = matrices.MatrixSeq("normal", lc_seq(A_HOOK, F_HOOK), eigs=eigs)
        for n in HOOK_SIZES:
            assert np.array_equal(seq.svals(n), np.abs(eigs(n)))
        dense = dense_only(seq)
        assert dense.svals is None and dense.eigs is None
        lt = hook_seqs()["lt"]
        assert dataclasses.replace(lt, name="lt").svals is lt.svals and lt.eigs is None

    def test_svals_hook_order_does_not_change_residuals(self):
        # a closed-form spectrum is summed in svdvals' non-increasing order,
        # so the order a hook returns its values in leaves every residual alone
        seq = hook_seqs()["lt"]
        shuffled = dataclasses.replace(
            seq, svals=lambda n: np.random.default_rng(n).permutation(seq.svals(n))
        )
        k = GltExpr(((A_HOOK, F_HOOK),))
        want = sv_symbol_residual(seq, k, HOOK_SIZES).residuals
        np.testing.assert_array_equal(sv_symbol_residual(shuffled, k, HOOK_SIZES).residuals, want)

    @pytest.mark.parametrize("name", ["lt", "lc", "circulant"])
    @pytest.mark.parametrize("n", HOOK_SIZES)
    def test_svals_match_dense_svd(self, name, n):
        seq = hook_seqs()[name]
        got = np.sort(seq.svals(n))
        dense = np.sort(singular_values(seq(n)))
        assert got.shape == (n,)
        assert np.abs(got - dense).max() <= 1e-12 * max(1.0, dense.max())

    @pytest.mark.parametrize("name", ["lc", "circulant"])
    @pytest.mark.parametrize("n", HOOK_SIZES)
    def test_eigs_match_dense_eig(self, name, n):
        seq = hook_seqs()[name]
        got = seq.eigs(n)
        dense = eigenvalues(seq(n))
        assert got.shape == (n,)
        assert assigned_gap(got, dense) <= 1e-12 * max(1.0, np.abs(dense).max())

    @pytest.mark.parametrize("kind", ["sv", "eig"])
    def test_residual_ladder_prefers_the_hook_within_roundoff(self, kind):
        seq = hook_seqs()["lc"]
        fn = sv_symbol_residual if kind == "sv" else eig_symbol_residual
        k = GltExpr(((A_HOOK, F_HOOK),))
        fast = fn(seq, k, (37, 64))
        dense = fn(dense_only(seq), k, (37, 64))
        np.testing.assert_allclose(fast.residuals, dense.residuals, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", ["lt", "lc"])
    def test_small_size_errors_match_generator(self, name, n):
        seq = hook_seqs()[name]
        want = raised(lambda: seq(n))
        assert want[0] is DomainError
        assert raised(lambda: seq.svals(n)) == want
        if seq.eigs is not None:
            assert raised(lambda: seq.eigs(n)) == want

    @pytest.mark.parametrize("n", [9, 10, 16, 19])
    def test_lc_block_size_errors_match_generator(self, n):
        # blocks of 3 and 4 cannot hold a degree-2 circulant
        seq = hook_seqs()["lc"]
        want = raised(lambda: seq(n))
        assert want[0] is DomainError
        assert raised(lambda: seq.svals(n)) == want
        assert raised(lambda: seq.eigs(n)) == want

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_circulant_size_errors_match_generator(self, n):
        seq = hook_seqs()["circulant"]
        want = raised(lambda: seq(n))
        assert want[0] is DomainError
        assert raised(lambda: seq.svals(n)) == want
        assert raised(lambda: seq.eigs(n)) == want

    @pytest.mark.parametrize("n", [4, 8, 16, 36])
    def test_nonfinite_coefficient_errors_match_generator(self, n):
        # block nodes i/m hit the pole at x = 1/2 whenever m is even
        pole = parse_expr("1/(x-0.5)", "a")
        for seq in (lt_seq(pole, TWO_COS), lc_seq(pole, CONST1)):
            want = raised(lambda: seq(n))
            assert want[0] is EvalError
            assert raised(lambda: seq.svals(n)) == want
            if seq.eigs is not None:
                assert raised(lambda: seq.eigs(n)) == want

    def test_nonfinite_symbol_coefficients_fail_like_the_dense_path(self):
        bad = TrigPoly(np.array([np.nan, 1.0, 0.0]))
        grid = as_symbol_grid(parse_expr("x", "a"))
        for seq in (lt_seq(X, bad), lc_seq(X, bad), circulant_seq(bad)):
            for fn in (sv_symbol_residual, eig_symbol_residual):
                if fn is eig_symbol_residual and seq.eigs is None:
                    continue
                want = raised(lambda: fn(dense_only(seq), grid, (16, 25)))
                assert want == (DomainError, "matrix has non-finite entries")
                assert raised(lambda: fn(seq, grid, (16, 25))) == want

    @pytest.mark.parametrize("name", ["lc", "circulant"])
    @pytest.mark.parametrize("c", [0, 1, -0.5j, 2 + 1j])
    @pytest.mark.parametrize("n", [37, 64])
    def test_shifted_hooks_match_dense_decompositions(self, name, c, n):
        seq = hook_seqs()[name].shifted(c)
        A = seq(n)
        dense = singular_values(A)
        scale = max(1.0, dense[0])
        assert np.abs(np.sort(seq.svals(n))[::-1] - dense).max() <= 1e-12 * scale
        assert assigned_gap(seq.eigs(n), eigenvalues(A)) <= 1e-12 * scale

    @pytest.mark.parametrize("name, n", [("lc", 3), ("lc", 9), ("circulant", 4)])
    def test_shifted_hook_errors_match_generator(self, name, n):
        seq = hook_seqs()[name].shifted(2 + 1j)
        want = raised(lambda: seq(n))
        assert want[0] is DomainError
        assert raised(lambda: seq.svals(n)) == want
        assert raised(lambda: seq.eigs(n)) == want

    def test_every_builder_with_eigs_is_normal(self):
        """`shifted` takes |eigs - c| as the singular values, which holds
        only for normal matrices: every builder that sets `eigs` must build
        normal ones."""
        expr = GltExpr(((A_HOOK, F_HOOK),))
        args = {
            "toeplitz_seq": [(F_HOOK,)],
            "diag_seq": [(A_HOOK,)],
            "circulant_seq": [(F_HOOK,)],
            "lt_seq": [(A_HOOK, F_HOOK)],
            "lc_seq": [(A_HOOK, F_HOOK)],
            "glt_product_seq": [(expr,)],
            "counterexample_seq": [(name,) for name in matrices.COUNTEREXAMPLES],
            "identity_seq": [()],
            "zero_seq": [()],
            "normal_form_seq": [(expr,)],
            "diagonal_factor_seq": [(expr,)],
        }
        builders = {}
        for module in (matrices, importlib.import_module("glt_lab.normal_form")):
            builders.update({name: getattr(module, name) for name in module.__all__
                             if name.endswith("_seq")})
        assert set(builders) == set(args)
        with_eigs = set()
        for name, build in builders.items():
            for seq in (build(*a) for a in args[name]):
                if seq.eigs is None:
                    continue
                with_eigs.add(name)
                for n in (37, 64, 257):
                    A = seq(n)
                    assert np.linalg.norm(A.conj().T @ A - A @ A.conj().T, "fro") <= 1e-10
        assert with_eigs == {"circulant_seq", "lc_seq"}


def closure_means(family, t):
    """The test oracle: one `_hat` closure per member."""
    return np.array([np.mean(F(t=t)) for F in _hats(family)])


class TestFamilyMeans:
    @pytest.mark.parametrize("R", [1.0, 3.0, 41.5, 8193.0])
    @pytest.mark.parametrize("complex_centers", [False, True])
    def test_means_match_closure_oracle(self, R, complex_centers):
        rng = np.random.default_rng(int(R) + complex_centers)
        centers = list(np.linspace(-R, R, 8)) + [0.0]
        if complex_centers:
            centers += [0.3 * R - 0.7j * R, -R / 3 + 0.2j * R]
        widths = (0.01, 0.1, 0.5, R / 7, R / 4)
        families = [Family(centers, [w] * len(centers)) for w in widths]
        families.append(Family(centers, [widths[j % 5] for j in range(len(centers))]))
        near = np.concatenate([complex(c).real + w * rng.uniform(-1.5, 1.5, 200)
                               for c in centers for w in widths])
        real_t = np.concatenate([rng.uniform(-1.5 * R, 1.5 * R, 2000), near])
        complex_t = real_t + 1j * rng.uniform(-R, R, real_t.size)
        samples = (real_t, complex_t, np.abs(complex_t), real_t.astype(complex),
                   real_t[:1], complex_t[:1], [complex(centers[-1]).real])
        for fam in families:
            for t in samples:
                got = fam.means(t)
                assert got.shape == (len(fam),)
                assert np.abs(got - closure_means(fam, t)).max() <= 1e-15

    def test_family_with_extra_centers(self):
        fam = family_with_extra_centers(default_family(1.0), (1.0, -1.0), 0.5)
        assert len(fam) == 11
        assert fam.labels[-2:] == ("hat(c=1,w=0.5)", "hat(c=-1,w=0.5)")
        t = np.concatenate([np.ones(128), -np.ones(129)]).astype(complex)
        assert np.abs(fam.means(t) - closure_means(fam, t)).max() <= 1e-15

    @pytest.mark.parametrize("kind", ["sv", "eig"])
    def test_grid_means_match_closure_oracle(self, kind):
        # the sv table averages the hats over |k|, the eig table over k
        k = GltExpr(((A_HOOK, F_HOOK),))
        grid = as_symbol_grid(k, (16, 64))
        fam = default_family(grid.max_abs())
        t = np.abs(grid.samples) if kind == "sv" else grid.samples
        assert np.abs(fam.means(_grid_samples(grid, kind)) - closure_means(fam, t)).max() <= 1e-15

    @pytest.mark.parametrize("fn", [sv_symbol_residual, eig_symbol_residual])
    def test_empty_grid_raises(self, fn):
        empty = SymbolGrid("UNIT", (0,), np.zeros(0))
        with pytest.raises(DomainError) as info:
            fn(identity_seq(), empty, (4, 8))
        assert type(info.value) is DomainError
        assert str(info.value) == "empty symbol grid"

    def test_means_allocate_no_hats_by_samples_array(self):
        t = np.random.default_rng(3).uniform(-2, 2, 100_000) * np.exp(0.3j)
        fam = family_with_extra_centers(default_family(2.0), (1j, -1j), 0.5)
        tracemalloc.start()
        try:
            fam.means(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one complex and one real buffer; 11 hats x samples would be 5.5 t.nbytes
        assert peak <= 2 * t.nbytes


def full_grid(grid):
    """The oracle of a theta-only grid: one sample per cell, its theta
    samples tiled nx times."""
    nx, _ = grid.resolution
    return SymbolGrid("RECT", grid.resolution, np.tile(grid.samples, nx))


# power-of-two grids give the full grid's means bit for bit: numpy's pairwise
# sum of nx aligned copies of a block is nx times the block's sum
THETA_GRIDS = pytest.mark.parametrize("resolution, tol", [((64, 1024), 0.0),
                                                          ((48, 1000), 1e-15)],
                                      ids=["64x1024", "48x1000"])


def assert_tables_match(table, oracle, tol):
    assert table.sizes == oracle.sizes and table.labels == oracle.labels
    assert np.array_equal(table.bounds, oracle.bounds)
    assert np.abs(table.residuals - oracle.residuals).max() <= tol


class TestThetaOnlyGrids:
    """Residual tables over a theta-only grid equal those over the full grid."""

    @THETA_GRIDS
    @pytest.mark.parametrize("fn", [sv_symbol_residual, eig_symbol_residual])
    def test_residual_tables(self, fn, resolution, tol):
        seq = toeplitz_seq(F_HOOK)
        grid = as_symbol_grid(F_HOOK, resolution)
        assert grid.samples.size == resolution[1]
        assert_tables_match(fn(seq, grid, (16, 32)), fn(seq, full_grid(grid), (16, 32)), tol)

    @THETA_GRIDS
    def test_shift_test_tables(self, resolution, tol):
        seq = toeplitz_seq(F_HOOK)
        grid = as_symbol_grid(F_HOOK, resolution)
        report = affine_shift_test(seq, grid, (16, 32), shifts=(0, 1, 0.5j))
        oracle = affine_shift_test(seq, full_grid(grid), (16, 32), shifts=(0, 1, 0.5j))
        for table, expected in zip(report.tables, oracle.tables):
            assert_tables_match(table, expected, tol)
        assert report.normality_residuals == oracle.normality_residuals

    @THETA_GRIDS
    def test_hermitian_function_tables(self, resolution, tol):
        f = TrigPoly.from_coeff_map({-2: 0.25, -1: 1, 0: 0.5, 1: 1, 2: 0.25})
        seq = toeplitz_seq(f)
        oracle_seq = dataclasses.replace(seq, symbol=full_grid(as_symbol_grid(f, resolution)))
        g = parse_expr("t^2 - t", "F")
        report = hermitian_function(seq, g, (16, 32), resolution=resolution)
        oracle = hermitian_function(oracle_seq, g, (16, 32))
        assert_tables_match(report.sv_table, oracle.sv_table, tol)
        assert_tables_match(report.eig_table, oracle.eig_table, tol)


class TestNonFiniteSymbol:
    @pytest.mark.parametrize("fn", [sv_symbol_residual, eig_symbol_residual])
    def test_residual_ladders_reject_nonfinite_grid(self, fn):
        grid = sample_symbol(parse_expr("1/(x-0.5)", "a"), "UNIT", (3,))
        assert grid.nonfinite_count == 1
        with pytest.raises(EvalError) as info:
            fn(identity_seq(), grid, (4, 8))
        assert type(info.value) is EvalError
        assert str(info.value) == "symbol is non-finite at 1 of 3 grid samples"

    @pytest.mark.parametrize("fn", [sv_symbol_residual, eig_symbol_residual])
    def test_theta_only_grid_counts_cells(self, fn):
        # 2 of the 8 theta samples overflow, each standing for 3 cells
        grid = sample_symbol(parse_expr("exp(1000*cos(theta))", "k"), "RECT", (3, 8))
        assert grid.samples.size == 8
        with pytest.raises(EvalError) as info:
            fn(identity_seq(), grid, (4, 8))
        assert str(info.value) == "symbol is non-finite at 6 of 24 grid samples"

    def test_residual_ladder_raises_before_decomposing(self):
        grid = sample_symbol(parse_expr("1/(x-0.5)", "a"), "UNIT", (3,))
        with pytest.raises(EvalError):
            sv_symbol_residual(diag_seq(parse_expr("1/x", "a")), grid, (8, 16))


F_REAL = TrigPoly.from_coeff_map({-2: 0.4, -1: 1.1, 0: 1.0, 1: 0.9, 2: -0.4})


def assert_svdvals_match_complex_svd(A):
    """svdvals of A, dense or a band, against the complex SVD of its matrix."""
    s = svdvals(A)
    M = A.dense() if isinstance(A, matrices._Band) else A
    dense = np.linalg.svd(M.astype(complex), compute_uv=False)
    assert s.shape == (A.shape[0],)
    assert np.all(np.diff(s) <= 0)
    assert np.abs(s - dense).max() <= 1e-12 * max(1.0, dense[0])


# the banded path: n = 64 is below its crossover and n = 256 above it, where
# the rule accepts a half-bandwidth up to 256 // 32 = 8, real or complex
BAND_SIZES = [64, 256]


def random_trig_poly(degree, complex_coeffs, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * degree + 1)
    if complex_coeffs:
        c = c + 1j * rng.standard_normal(2 * degree + 1)
    return TrigPoly(c)


def took_band(routes):
    """Per svdvals call in the `routes` record, whether the band SVD took it."""
    return [route == "band" for stage, _, route, _ in routes if stage == "svdvals"]


class TestSvdvals:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_complex_matrix(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))
        assert_svdvals_match_complex_svd(A)

    @pytest.mark.parametrize("seed", range(4))
    def test_real_matrix_stored_as_complex_takes_the_real_path(self, seed):
        A = np.random.default_rng(seed).standard_normal((13, 13)).astype(complex)
        assert_svdvals_match_complex_svd(A)
        assert np.array_equal(svdvals(A), np.linalg.svd(A.real, compute_uv=False))

    @pytest.mark.parametrize("f", [F_REAL, F_HOOK], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [5, 16, 37, 64])
    def test_toeplitz_minus_circulant(self, f, n):
        assert_svdvals_match_complex_svd(toeplitz_seq(f)(n) - circulant_seq(f)(n))

    @pytest.mark.parametrize("f", [F_REAL, F_HOOK], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [37, 50, 64])
    def test_lt_minus_lc(self, f, n):
        assert_svdvals_match_complex_svd(lt_seq(A_HOOK, f)(n) - lc_seq(A_HOOK, f)(n))

    @pytest.mark.parametrize("n", [2, 7, 10])
    def test_half_shift(self, n):
        assert_svdvals_match_complex_svd(counterexample_seq("half_shift")(n))

    @pytest.mark.parametrize("A", [
        np.zeros((5, 5), dtype=complex),
        np.zeros((1, 1), dtype=complex),
        np.array([[3 - 4j]]),
        np.array([[-2.0 + 0j]]),
    ], ids=["zero", "zero-1x1", "complex-1x1", "real-1x1"])
    def test_degenerate_matrices(self, A):
        assert_svdvals_match_complex_svd(A)

    @pytest.mark.parametrize("which", ["column", "row"])
    def test_single_zero_column_or_row(self, which):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        if which == "column":
            A[:, 2] = 0
        else:
            A[3] = 0
        assert_svdvals_match_complex_svd(A)
        assert svdvals(A)[-1] == 0.0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_nan_entry_raises_numerical_error(self, dtype):
        A = np.eye(4, dtype=dtype)
        A[1, 2] = np.nan
        with pytest.raises(NumericalError, match="SVD failed"):
            svdvals(A)

    @pytest.mark.parametrize("complex_coeffs", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("b", [0, 1, 2])
    @pytest.mark.parametrize("n", BAND_SIZES)
    def test_banded_toeplitz(self, routes, n, b, complex_coeffs):
        f = random_trig_poly(b, complex_coeffs, b)
        assert_svdvals_match_complex_svd(toeplitz_seq(f).band(n))
        assert took_band(routes) == [n >= 96]

    @pytest.mark.parametrize("a2", ["exp(x)", "1+i*x"], ids=["real", "complex"])
    @pytest.mark.parametrize("n", BAND_SIZES)
    def test_banded_two_term_glt(self, routes, n, a2):
        expr = GltExpr(((A_HOOK, F_REAL), (parse_expr(a2, "a"), TrigPoly.from_coeff_map({1: 1}))))
        assert_svdvals_match_complex_svd(glt_product_seq(expr).band(n))
        assert took_band(routes) == [n >= 96]

    @pytest.mark.parametrize("complex_coeffs", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [96, 128, 640])
    def test_banded_largest_accepted_band(self, routes, n, complex_coeffs):
        b = n // 32
        f = random_trig_poly(b, complex_coeffs, 3)
        assert_svdvals_match_complex_svd(toeplitz_seq(f).band(n))
        svdvals(toeplitz_seq(random_trig_poly(b + 1, complex_coeffs, 3)).band(n))
        assert took_band(routes) == [True, False]

    @pytest.mark.parametrize("A", [
        # exact zero singular value, zero main diagonal, one-sided band
        counterexample_seq("jordan_shift").band(512),
        # b = 0: a complex diagonal, one entry of it zero
        matrices._Band((np.exp(1j * np.arange(600)) * np.linspace(0.0, 3.0, 600))[:, None], 0),
    ], ids=["jordan-shift-512", "complex-diagonal-600"])
    def test_banded_edge_cases(self, routes, A):
        assert_svdvals_match_complex_svd(A)
        assert took_band(routes) == [True]

    def test_banded_zero_rows(self, routes):
        A = toeplitz_seq(F_REAL)(640)
        A[100:110] = 0
        A[-1] = 0
        assert_svdvals_match_complex_svd(as_band(A))
        assert took_band(routes) == [True]

    @pytest.mark.parametrize("f", [F_REAL, TrigPoly.from_coeff_map({0: 1j, 1: 2})],
                             ids=["real", "complex"])
    def test_banded_nan_entry_raises_numerical_error(self, f):
        A = toeplitz_seq(f)(640)
        A[5, 6] = np.nan
        # the banded path's message: the dense one reports no convergence
        with pytest.raises(NumericalError, match="SVD failed: matrix has non-finite entries"):
            svdvals(as_band(A))

    def test_banded_path_follows_the_band(self, routes):
        n = 1024
        glt = glt_product_seq(GltExpr(((A_HOOK, F_REAL),)))
        s = singular_values(glt.band(n))
        singular_values(acs._difference(toeplitz_seq(F_REAL), circulant_seq(F_REAL), n))
        singular_values(acs._difference(glt, lc_seq(A_HOOK, F_REAL), n))
        # the glt - lc difference has b = 31 <= 1024/32 (p_metric gives it to
        # its Gram band route first); toeplitz - circulant fills two corners
        assert took_band(routes) == [True, False, True]
        # svdvals returns the banded values rather than decomposing again
        band = matrices._narrow(glt.band(n))
        assert np.array_equal(s, matrices._band_svdvals(band.ab.copy(), band.b))


def band_operand_seqs(kind):
    """A two-term glt, a Toeplitz and a normal form, real or complex valued."""
    f2 = TrigPoly.from_coeff_map({-1: 0.5, 1: 0.5} if kind == "real" else {1: 1j})
    a2 = parse_expr("exp(x)" if kind == "real" else "1+i*x", "a")
    expr = GltExpr(((A_HOOK, F_REAL), (a2, f2)))
    return [glt_product_seq(expr), toeplitz_seq(F_REAL if kind == "real" else F_HOOK),
            normal_form_seq(expr)]


class TestBandOperands:
    """`singular_values` of a sequence's band equals that of its dense
    matrix's band storage bit for bit, and the dense route's within
    roundoff, or bit for bit off the band gate; the sv ladder hands the band
    over from n = 96, the band SVD's floor."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [96, 512, 1024, 1600])
    def test_values_equal_the_dense_route(self, n, kind, routes):
        for seq in band_operand_seqs(kind):
            band, A = seq.band(n), seq(n)
            s, want = singular_values(band), singular_values(A)
            assert s.tobytes() == singular_values(as_band(A, band.b)).tobytes()
            if routes[-1][2] == "dense":
                assert s.tobytes() == want.tobytes()
            else:
                assert np.abs(s - want).max() <= 1e-13 * want[0]
        # glt and Toeplitz take the band SVD at every size, from their band
        # as from their dense matrix's band storage; the normal form
        # (b = sqrt(n) - 1) only from n = 1024
        took = took_band(routes)
        assert took[0::3] == took[2::3] and took[1::3] == [False] * 3  # the dense matrices
        assert took[0::3] == [True, True, n >= 1024]

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_zero_rows_and_a_wide_band(self, kind, routes):
        # zero rows keep the band route, as in svdvals; a band wider than
        # n/16 falls back to the dense SVD of the same matrix
        A = toeplitz_seq(F_REAL if kind == "real" else F_HOOK)(640)
        A[100:110] = 0
        A[:, -1] = 0
        W = normal_form_seq(band_operand_seqs(kind)[0].symbol)(196)
        s, want = singular_values(as_band(A, 2)), singular_values(A)
        assert np.abs(s - want).max() <= 1e-13 * want[0]
        assert singular_values(as_band(W, 13)).tobytes() == singular_values(W).tobytes()
        assert took_band(routes) == [True, False, False, False]

    def test_ladder_takes_the_band_from_the_band_floor(self, routes):
        seq = band_operand_seqs("complex")[0]
        sizes = (64, 95, 96, 256)
        table = sv_symbol_residual(seq, seq.symbol, sizes)
        assert [entry for entry in routes if entry[0] == "sv"] == [
            ("sv", 64, "dense", None), ("sv", 95, "dense", None), ("sv", 96, "band", 2),
            ("sv", 256, "band", 2)]
        dense = sv_symbol_residual(dense_only(seq), seq.symbol, sizes)
        np.testing.assert_allclose(table.residuals, dense.residuals, rtol=0, atol=1e-13)
        # the bands read back from the dense matrices give the same bits
        rebuilt = dataclasses.replace(seq, band=lambda n: as_band(seq(n), seq.band(n).b))
        again = sv_symbol_residual(rebuilt, seq.symbol, sizes)
        assert table.residuals.tobytes() == again.residuals.tobytes()

    @pytest.mark.parametrize("b", [0, 2, 7])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_eigenvalues_of_a_band_equal_the_dense_route(self, b, dtype):
        # entries drawn with signed zeros; at b = 0 the band is the diagonal
        n = 40
        rng = np.random.default_rng(b)
        ab = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=(n, 2 * b + 1)).astype(dtype)
        if dtype is complex:
            ab += 1j * rng.choice([-0.0, 0.0, 0.5], size=ab.shape)
        ab[matrices._band_storage(np.ones((n, n)), b) == 0] = 0
        band = matrices._Band(ab, b)
        # a diagonal held at b = 3 takes the dense diagonal shortcut
        diagonal = matrices._Band(band.widened(3), 3) if b == 0 else band
        for A in (band, diagonal):
            got, want = eigenvalues(A), eigenvalues(A.dense())
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, ab)
        ab[n // 2, b] = np.nan
        assert raised(lambda: eigenvalues(band)) == raised(lambda: eigenvalues(band.dense()))

    @pytest.mark.parametrize("index", [0, 1], ids=["glt", "toeplitz"])
    def test_eig_ladder_takes_the_band_with_the_dense_bits(self, index, routes, monkeypatch):
        seq = band_operand_seqs("complex")[index]
        sizes = (64, 96, 144, 576, 1600)
        solved, solve = [], np.linalg.eigvals

        def solver(A):
            # the solver is deterministic, so equal input bytes give equal
            # values; above n = 144 the diagonal stands in for its seconds
            solved.append(hashlib.sha256(A.tobytes()).hexdigest())
            return solve(A) if A.shape[0] <= 144 else np.diagonal(A).copy()

        monkeypatch.setattr(np.linalg, "eigvals", solver)
        table = eig_symbol_residual(seq, seq.symbol, sizes)
        assert [(n, route) for stage, n, route, _ in routes if stage == "eig"] == [
            (64, "dense"), (96, "band"), (144, "band"), (576, "band"), (1600, "band")]
        banded, solved[:] = solved[:], []
        dense = eig_symbol_residual(dense_only(seq), seq.symbol, sizes)
        assert solved == banded and len(solved) == len(sizes)
        assert table.residuals.tobytes() == dense.residuals.tobytes()

    def test_overflowing_glt_raises_the_dense_error(self):
        # a(x) f_k overflows to inf near x = 1, with a and f finite
        seq = glt_product_seq(GltExpr(((parse_expr("exp(700*x)", "a"),
                                        TrigPoly.from_coeff_map({-1: 5e4, 1: 5e4})),)))
        with np.errstate(over="ignore"):
            for s in (seq, dense_only(seq)):
                got = raised(lambda: sv_symbol_residual(s, parse_expr("2+cos(theta)", "k"),
                                                        (128, 512)))
                assert got == (DomainError, "matrix has non-finite entries")


def test_glt_sv_step_forms_no_dense_matrix(traced_peak):
    # within four band storages, 64 n (2b + 1) bytes, far below a dense
    # complex matrix's 16 n^2
    n = 1024
    seq = band_operand_seqs("complex")[0]
    b = 2  # the degree of its symbols
    spectra._spectrum(seq, n, "sv")  # one-off caches
    assert traced_peak(spectra._spectrum, seq, n, "sv") < 64 * n * (2 * b + 1)
