import dataclasses

import numpy as np
import pytest
from bands import band_svds, dense_only
from scipy.optimize import linear_sum_assignment

from glt_lab import (
    DomainError,
    EvalError,
    GltExpr,
    HermitianError,
    TrigPoly,
    affine_shift_test,
    circulant_seq,
    counterexample_seq,
    diag_seq,
    eigenvalues,
    group_embed,
    hermitian_function,
    identity_seq,
    lc_op,
    lc_seq,
    lt_seq,
    normal_form,
    p_metric,
    parse_expr,
    q_block,
    sort_perm,
    sv_symbol_residual,
    toeplitz_seq,
    verify_normal_form,
    zero_seq,
)
from glt_lab.matrices import MatrixSeq, block_layout, circulant, d_af, diag_sampling, toeplitz
from glt_lab.normal_form import (
    NORMALITY_TOL,
    NormalForm,
    _canonical_svd,
    _misfit_p,
    _pushed_seq,
    diagonal_factor_seq,
    normal_form_seq,
)
from glt_lab.spectra import _spectrum, eig_symbol_residual, singular_values

TWO_COS = TrigPoly.from_coeff_map({1: 1, -1: 1})
SHIFT = TrigPoly.from_coeff_map({1: 1})
X = parse_expr("x", "a")
ONE = parse_expr("1", "a")
CONST1 = TrigPoly.from_coeff_map({0: 1})
DEGREE_TWO = TrigPoly.from_coeff_map({-2: 0.5, -1: 1, 0: 2, 1: 1, 2: 0.5})
COS_TWO = TrigPoly.from_coeff_map({-2: 1, 2: 1})


def dense_perm(values):
    """The permutation matrix P = I[argsort(values)], built entry by entry."""
    n = values.size
    P = np.zeros((n, n))
    P[np.arange(n), np.argsort(values, kind="stable")] = 1.0
    return P


def multiset_close(a, b, tol):
    a = np.sort_complex(np.asarray(a, dtype=complex))
    b = np.sort_complex(np.asarray(b, dtype=complex))
    return np.abs(a - b).max() <= tol


class TestNormalForm:
    def test_identity_expression(self):
        nf = normal_form(GltExpr(((ONE, CONST1),)), 10)
        expect = np.diag([1.0] * 9 + [0.0])
        np.testing.assert_allclose(nf.d, expect, atol=1e-14)
        np.testing.assert_allclose(nf.matrix(), expect, atol=1e-12)

    def test_matrix_equals_block_circulant_sum(self):
        expr = GltExpr(((X, SHIFT),))
        nf = normal_form(expr, 16)
        np.testing.assert_allclose(nf.matrix(), lc_op(X, SHIFT, 16), atol=1e-10)
        np.testing.assert_allclose(nf.d, d_af(X, SHIFT, 16), atol=1e-14)
        A = nf.matrix()
        assert np.linalg.norm(A.conj().T @ A - A @ A.conj().T, "fro") <= 1e-10

    def test_two_term_diagonal_sum(self):
        expr = GltExpr(((ONE, TWO_COS), (X, CONST1)))
        nf = normal_form(expr, 25)
        np.testing.assert_allclose(
            nf.d, d_af(ONE, TWO_COS, 25) + d_af(X, CONST1, 25), atol=1e-14
        )
        # unitary similarity: eigenvalues of Q^H D Q equal the diagonal of D
        lam = eigenvalues(nf.matrix())
        assert multiset_close(lam, nf.diagonal(), 1e-8)

    @pytest.mark.parametrize("n", [9, 10, 37, 50, 64, 257])
    def test_blockwise_matrix_equals_dense_conjugation(self, n):
        g = TrigPoly.from_coeff_map({0: 2j, 1: -1})
        expr = GltExpr(((X, TWO_COS), (parse_expr("1+x^2", "a"), g)))
        nf = normal_form(expr, n)
        dense = nf.q.conj().T @ nf.d @ nf.q
        np.testing.assert_allclose(nf.matrix(), dense, rtol=0, atol=1e-13)

    def test_one_term_matrix_is_the_locally_circulant_operator(self):
        nf = normal_form(GltExpr(((parse_expr("1+x^2", "a"), TWO_COS),)), 50)
        assert np.array_equal(nf.matrix(), lc_op(parse_expr("1+x^2", "a"), TWO_COS, 50))

    @pytest.mark.parametrize("n", [9, 10, 37, 64])
    def test_real_terms_give_an_exactly_real_matrix(self, n):
        g = TrigPoly.from_coeff_map({-1: 0.5, 0: 2, 1: -1})
        expr = GltExpr(((X, TWO_COS), (parse_expr("1+x^2", "a"), g)))
        nf = normal_form(expr, n)
        M = nf.matrix()
        assert not M.imag.any()
        np.testing.assert_allclose(M, nf.q.conj().T @ nf.d @ nf.q, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [9, 37, 64])
    def test_complex_term_keeps_its_imaginary_part(self, n):
        expr = GltExpr(((X, TWO_COS), (parse_expr("x+2*i", "a"), SHIFT)))
        nf = normal_form(expr, n)
        M = nf.matrix()
        assert M.imag.any()
        np.testing.assert_allclose(M, nf.q.conj().T @ nf.d @ nf.q, rtol=0, atol=1e-13)

    def test_q_independent_of_expression(self):
        nf1 = normal_form(GltExpr(((ONE, CONST1),)), 16)
        nf2 = normal_form(GltExpr(((X, TWO_COS),)), 16)
        np.testing.assert_array_equal(nf1.q, nf2.q)
        np.testing.assert_array_equal(nf1.q, q_block(16))


# one and two terms; real and complex f; real and complex a
NF_TERMS = {
    "real": ((X, TWO_COS),),
    "complex-f": ((X, TrigPoly.from_coeff_map({-1: 0.5, 0: 1, 1: 0.5 + 0.25j})),),
    "two-real": ((X, TWO_COS), (parse_expr("exp(0.4*x)", "a"), TrigPoly.from_coeff_map({0: 1, 1: -0.4}))),
    "two-complex": ((parse_expr("1+0.9*x^2", "a"), TWO_COS), (parse_expr("x+2*i", "a"), SHIFT)),
    # a negative a_i times a zero entry of C_block(f_i) is -0.0
    "two-negative": ((parse_expr("0-1-x", "a"), TrigPoly.from_coeff_map({-1: -0.5, 0: -2})),
                     (parse_expr("0.5-x", "a"), SHIFT)),
}
WIDE = TrigPoly.from_coeff_map({5: 1, -5: 1})  # 2*cos(5*theta)
POLE = parse_expr("1/(x-0.5)", "a")


class TestNormalFormSeq:
    """normal_form_seq builds Q^H D Q from the symbol alone, without the
    dense Q and D that normal_form holds."""

    # t = n - m*block is 0 at 16, 20 and 36, and 4 at 40
    @pytest.mark.parametrize("n", [16, 20, 36, 40])
    @pytest.mark.parametrize("terms", NF_TERMS.values(), ids=NF_TERMS.keys())
    def test_matches_normal_form_and_the_dense_conjugation(self, terms, n):
        expr = GltExpr(terms)
        nf = normal_form(expr, n)
        M = normal_form_seq(expr)(n)
        assert np.array_equal(M, nf.matrix())
        np.testing.assert_allclose(M, nf.q.conj().T @ nf.d @ nf.q, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [16, 20, 36, 40])
    @pytest.mark.parametrize("terms", NF_TERMS.values(), ids=NF_TERMS.keys())
    def test_matrix_is_the_in_place_block_sum_bitwise(self, terms, n):
        # oracle: a zero matrix gains each term's a_i(j/m) C_block(f_i),
        # block by block, in place; bytes compare the signs of zeros too
        expr = GltExpr(terms)
        lay = block_layout(n)
        want = np.zeros((n, n), dtype=complex)
        nodes = np.arange(1, lay.m + 1) / lay.m
        for a, f in terms:
            C = circulant(f, lay.block)
            for j, v in enumerate(np.broadcast_to(a(x=nodes), nodes.shape).astype(complex)):
                span = slice(j * lay.block, (j + 1) * lay.block)
                want[span, span] += v * C
        got = NormalForm(expr, n).matrix()
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        if len(terms) == 1:
            assert lc_op(*terms[0], n).tobytes() == want.tobytes()

    @pytest.mark.parametrize("terms, n, error, message", [
        (((X, TWO_COS),), 3, DomainError, "locally structured operators need n >= 4"),
        (((X, WIDE),), 16, DomainError, "block size 4 must exceed 2*degree=10 at n=16"),
        (((POLE, TWO_COS),), 16, EvalError, "'1/(x-0.5)' is non-finite at x=0.5"),
        # term by term, and within a term the block size before the grid
        (((X, WIDE), (POLE, TWO_COS)), 16, DomainError,
         "block size 4 must exceed 2*degree=10 at n=16"),
        (((POLE, TWO_COS), (X, WIDE)), 16, EvalError, "'1/(x-0.5)' is non-finite at x=0.5"),
        (((X, TWO_COS), (POLE, WIDE)), 16, DomainError,
         "block size 4 must exceed 2*degree=10 at n=16"),
    ], ids=["n<4", "block<=2deg", "pole", "block-then-pole", "pole-then-block",
            "block-before-pole"])
    def test_errors_match_normal_form(self, terms, n, error, message):
        expr = GltExpr(terms)
        for build in (lambda: normal_form(expr, n), lambda: normal_form_seq(expr)(n),
                      lambda: diagonal_factor_seq(expr).band(n)):
            with pytest.raises(error) as info:
                build()
            assert str(info.value) == message

    @pytest.mark.parametrize("n", [256, 400])
    def test_builds_no_dense_q_or_d(self, n, traced_peak):
        # the matrix alone is 16 n^2 bytes; Q and D would add 16 n^2 each
        seq = normal_form_seq(GltExpr(NF_TERMS["two-real"]))
        assert traced_peak(seq, n) < 24 * n * n


class TestDiagonalFactor:
    """From n = 96 the diagonal factor's eig ladder reads D's diagonal from
    its width-0 band, with the bits of the dense D and no Q or D built."""

    @pytest.mark.parametrize("terms", NF_TERMS.values(), ids=NF_TERMS.keys())
    def test_ladder_equals_the_dense_route(self, terms):
        expr = GltExpr(terms)
        sizes = (64, 96, 144, 576, 1600)
        dense = dataclasses.replace(diagonal_factor_seq(expr), band=None)
        want = eig_symbol_residual(dense, expr, sizes).residuals
        report = verify_normal_form(expr, sizes)
        assert report.eig_table.residuals.tobytes() == want.tobytes()

    def test_eig_step_builds_no_dense_matrix(self, traced_peak):
        # a dense complex Q and D are 16 n^2 bytes each
        n = 1024
        seq = diagonal_factor_seq(GltExpr(NF_TERMS["two-real"]))
        _spectrum(seq, n, "eig")  # one-off caches
        assert traced_peak(_spectrum, seq, n, "eig") < n * n


class TestVerifyNormalForm:
    def test_identity_case_small_p(self):
        expr = GltExpr(((ONE, CONST1),))
        sizes = (16, 36, 64, 100)
        report = verify_normal_form(expr, sizes)
        assert report.acs_pass
        for n, p in zip(sizes, report.acs_p_values):
            m = int(np.sqrt(n))
            assert p <= (n % m) / n + 1e-10
        assert report.eig_pass

    def test_separable_term_ladder(self):
        expr = GltExpr(((X, TWO_COS),))
        sizes = (36, 100, 196)
        report = verify_normal_form(expr, sizes)
        assert report.acs_pass
        assert report.eig_pass
        ps = report.acs_p_values
        assert ps[-1] < ps[0]

    def test_pure_circulant_equidistribution(self):
        expr = GltExpr(((ONE, SHIFT),))
        sizes = (36, 64, 144)
        report = verify_normal_form(expr, sizes)
        assert report.eig_pass
        # diagonal entries are roots of unity: compare against the sampled
        # symbol through the rearrangement of absolute angles
        nf = normal_form(expr, 144)
        diag = nf.diagonal()
        diag = diag[np.abs(diag) > 0.5]  # drop the trailing zero block
        np.testing.assert_allclose(np.abs(diag), 1.0, atol=1e-12)


class TestSortedDiagonalQuantiles:
    def test_sorted_diagonal_realizes_symbol_quantiles(self):
        # sorting the diagonal factor turns it into the discrete quantile
        # function of the symbol distribution: order statistics converge to
        # the monotone rearrangement of the sampled symbol
        from glt_lab import monotone_rearrangement, rearrangement_distance, sample_symbol

        expr = GltExpr(((X, TWO_COS),))
        grid = sample_symbol(expr, "RECT", (64, 256))
        quantiles = monotone_rearrangement(grid.samples.real)
        levels = np.linspace(0.05, 0.95, 19)
        prev_gap = np.inf
        for n in (100, 400, 1600):
            nf = normal_form(expr, n)
            P = sort_perm(np.diag(nf.diagonal().real))
            sorted_diag = np.diag(P @ np.diag(nf.diagonal().real) @ P.T)
            assert np.all(np.diff(sorted_diag) >= 0)
            gap = np.abs(
                np.quantile(sorted_diag, levels) - np.quantile(quantiles, levels)
            ).max()
            assert gap < prev_gap + 1e-12
            prev_gap = gap
        assert prev_gap < 0.05
        assert rearrangement_distance(sorted_diag, grid.samples.real) < 0.05


class TestSortPerm:
    def test_sorts_simple_diagonal(self):
        D = np.diag([3.0, 1.0, 2.0])
        P = sort_perm(D)
        np.testing.assert_allclose(P @ D @ P.T, np.diag([1.0, 2.0, 3.0]), atol=1e-14)

    def test_identity_on_sorted(self):
        D = np.diag([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(sort_perm(D), np.eye(3))

    def test_block_diagonal_already_sorted(self):
        D = d_af(X, CONST1, 9)
        np.testing.assert_array_equal(sort_perm(D), np.eye(9))

    def test_permutation_matrix_structure(self):
        rng = np.random.default_rng(4)
        d = rng.standard_normal(12)
        P = sort_perm(np.diag(d))
        assert np.abs(P.sum(axis=0) - 1).max() == 0
        assert np.abs(P.sum(axis=1) - 1).max() == 0
        # eigenvalue multiset preserved exactly
        assert sorted(np.diag(P @ np.diag(d) @ P.T)) == sorted(d)
        assert np.all(np.diff(np.diag(P @ np.diag(d) @ P.T)) >= 0)

    def test_equal_to_the_dense_oracle_with_ties(self):
        d = np.array([2.0, -1.0, 2.0, 0.5, -1.0, 2.0, 0.0])
        assert sort_perm(np.diag(d)).tobytes() == dense_perm(d).tobytes()

    def test_rejects_nondiagonal(self):
        with pytest.raises(DomainError):
            sort_perm(np.array([[1.0, 0.5], [0.0, 2.0]]))

    def test_rejects_complex_diagonal(self):
        with pytest.raises(DomainError):
            sort_perm(np.diag([1j, 2j]))


class TestHermitianFunction:
    def test_identity_function_keeps_sequence(self):
        seq = toeplitz_seq(TWO_COS)
        g = parse_expr("t", "F")
        report = hermitian_function(seq, g, (16, 32, 64))
        base = sv_symbol_residual(seq, TWO_COS, (16, 32, 64))
        np.testing.assert_allclose(
            report.sv_table.residuals, base.residuals, atol=1e-12
        )

    def test_square_of_banded_toeplitz(self):
        seq = toeplitz_seq(TWO_COS)
        g = parse_expr("t^2", "F")
        report = hermitian_function(seq, g, (32, 64, 128, 256))
        worst = report.sv_table.max_per_size()
        assert worst[-1] < worst[0]
        assert worst[-1] <= report.sv_table.bounds[-1]

    def test_exponential_of_diagonal_matches_midpoint_rate(self):
        seq = diag_seq(X)
        g = parse_expr("exp(t)", "F")
        sizes = (16, 32, 64)
        report = hermitian_function(seq, g, sizes)
        for i, n in enumerate(sizes):
            # right-endpoint vs midpoint quadrature gap scales like 1/n
            assert report.eig_table.max_per_size()[i] <= 8.0 / n

    def test_rejects_non_hermitian(self):
        seq = dense_only(toeplitz_seq(SHIFT))
        g = parse_expr("t", "F")
        with pytest.raises(HermitianError):
            hermitian_function(seq, g, (8, 16, 32))

    @pytest.mark.parametrize("scale", [1e-11, 1e8])
    def test_hermitian_is_judged_at_the_matrix_scale(self, scale):
        # the Jordan shift at any scale is all off Hermitian, its symbol
        # replaced by a real one so the matrix check is the one that runs
        seq = dataclasses.replace(toeplitz_seq(TrigPoly.from_coeff_map({1: scale})),
                                  symbol=TrigPoly.from_coeff_map({0: scale}))
        with pytest.raises(HermitianError, match="is not Hermitian at n=8"):
            hermitian_function(seq, parse_expr("t", "F"), (8, 16))

    @pytest.mark.parametrize("g", ["t^2", "exp(t)", "abs(t)-1", "i*t+2", "3"])
    @pytest.mark.parametrize("n", [16, 37, 64])
    def test_pushed_hooks_match_dense_decompositions(self, g, n):
        f = TrigPoly.from_coeff_map({-2: 0.4, -1: 1.1 - 0.3j, 0: 1.0, 1: 1.1 + 0.3j, 2: 0.4})
        for seq in (toeplitz_seq(f), diag_seq(parse_expr("exp(x)-x", "a"))):
            pushed = _pushed_seq(seq, parse_expr(g, "F"))
            A = pushed(n)
            sv = singular_values(A)
            assert pushed.svals(n).shape == pushed.eigs(n).shape == (n,)
            assert np.abs(np.sort(pushed.svals(n))[::-1] - sv).max() <= 1e-12 * max(1.0, sv[0])
            lam, dense = pushed.eigs(n), eigenvalues(A)
            rows, cols = linear_sum_assignment(np.abs(lam[:, None] - dense[None, :]))
            assert np.abs(lam[rows] - dense[cols]).max() <= 1e-12 * max(1.0, sv[0])

    def test_one_eigvalsh_per_size(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(A):
            calls.append(A.shape[0])
            return eigvalsh(A)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        sizes = (16, 32, 64)
        hermitian_function(toeplitz_seq(TWO_COS), parse_expr("t^2", "F"), sizes)
        assert calls == list(sizes)

    def test_pushed_eigs_are_kept_read_only(self):
        pushed = _pushed_seq(toeplitz_seq(TWO_COS), parse_expr("exp(t)", "F"))
        lam = pushed.eigs(16)
        assert pushed.eigs(16) is lam and not lam.flags.writeable
        assert np.array_equal(pushed.svals(16), np.abs(lam))

    @pytest.mark.parametrize("n", [8, 16])
    def test_pushed_hooks_raise_the_generator_error(self, n):
        pushed = _pushed_seq(toeplitz_seq(SHIFT), parse_expr("t", "F"))
        for fn in (pushed, pushed.svals, pushed.eigs):
            with pytest.raises(HermitianError) as info:
                fn(n)
            assert str(info.value) == f"T(f) is not Hermitian at n={n}"


class TestAffineShiftTest:
    def test_block_circulant_confirms_spectral_symbol(self):
        seq = lc_seq(ONE, SHIFT)
        report = affine_shift_test(seq, SHIFT, (16, 36, 64), shifts=(0, 1, 1j))
        assert report.all_pass
        assert report.is_normal
        assert "confirmed" in report.conclusion

    def test_jordan_shift_not_licensed(self):
        seq = counterexample_seq("jordan_shift")
        report = affine_shift_test(seq, SHIFT, (16, 32, 64), shifts=(0, 1))
        assert report.all_pass
        assert not report.is_normal
        assert "not licensed" in report.conclusion
        assert min(report.normality_residuals) > 1e-10

    def test_scaled_jordan_shift_not_licensed(self):
        # ||A^H A - A A^H||_F = 1.4e-12 is below NORMALITY_TOL, but relative
        # to ||A||_F^2 = (n - 1) 1e-12 this is the Jordan shift's defect
        f = TrigPoly.from_coeff_map({1: 1e-6})
        report = affine_shift_test(toeplitz_seq(f), f, (64, 128), shifts=(0, 1))
        assert report.all_pass and not report.is_normal
        assert max(report.normality_residuals) < NORMALITY_TOL
        assert "not licensed" in report.conclusion

    def test_large_normal_sequence_licensed(self):
        # locally circulant, so normal; at scale 1e4 its commutator's
        # roundoff is above NORMALITY_TOL in absolute terms
        f = TrigPoly.from_coeff_map({-2: -0.5, -1: 1, 1: 1, 2: 0.5})  # 2 cos + i sin(2 theta)
        seq = lc_seq(parse_expr("10000*exp(0.37*x)", "a"), f)
        report = affine_shift_test(seq, seq.symbol, (64, 128), shifts=(0, 1))
        assert report.all_pass and report.is_normal
        assert min(report.normality_residuals) > NORMALITY_TOL
        assert "confirmed" in report.conclusion

    @pytest.mark.parametrize("sizes", [(), (32, 16)])
    def test_bad_ladder_is_a_domain_error(self, sizes):
        with pytest.raises(DomainError):
            affine_shift_test(identity_seq(), CONST1, sizes, shifts=(1,))

    def test_identity_with_unit_shift(self):
        seq = identity_seq()
        report = affine_shift_test(seq, CONST1, (16, 32, 64), shifts=(1,))
        assert report.all_pass
        assert report.tables[0].residuals.max() <= 1e-12


def canonical_svd_loop(A):
    """The test oracle: each column's phase fixed one at a time."""
    U, s, Vh = np.linalg.svd(A)
    for j in range(U.shape[1]):
        col = U[:, j]
        v = col[int(np.argmax(np.abs(col)))]
        if v != 0:
            phase = v / abs(v)
            U[:, j] = col / phase
            if j < Vh.shape[0]:
                Vh[j, :] = Vh[j, :] * phase
    return U, s, Vh


class TestGroupEmbed:
    @pytest.mark.parametrize("shape", [(24, 24), (9, 5), (5, 9)])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_canonical_svd_matches_the_column_loop_bitwise(self, shape, dtype, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal(shape)
        if dtype is complex:
            A = A + 1j * rng.standard_normal(shape)
        for got, want in zip(_canonical_svd(A), canonical_svd_loop(A)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("symbol, n, ties", [
        (DEGREE_TWO, 16, True), (DEGREE_TWO, 64, False), (DEGREE_TWO, 128, True),
        (COS_TWO, 16, True),
    ])
    def test_u_v_equal_the_dense_permutation_products(self, symbol, n, ties):
        # U = Q P^T P' Q'^H and V = W'^H P'^T P W with dense permutation
        # matrices, bit for bit; `ties` says whether a singular value repeats
        # exactly, where only the stable sort fixes the order
        seq_a, seq_b = circulant_seq(symbol), toeplitz_seq(symbol)
        Q, S, W = _canonical_svd(seq_b(n))
        Qp, Sp, Wp = _canonical_svd(seq_a(n))
        assert (np.unique(S).size < n or np.unique(Sp).size < n) == ties
        P, Pp = dense_perm(S), dense_perm(Sp)
        pair = group_embed(seq_a, seq_b, n)
        assert pair.u.tobytes() == (Q @ P.T @ Pp @ Qp.conj().T).tobytes()
        assert pair.v.tobytes() == (Wp.conj().T @ Pp.T @ P @ W).tobytes()

    def test_equal_sequences_cancel(self):
        seq = toeplitz_seq(TWO_COS)
        pair = group_embed(seq, seq, 24)
        assert pair.residual_p <= 1e-8
        n = 24
        assert np.abs(pair.u.conj().T @ pair.u - np.eye(n)).max() <= 1e-10
        assert np.abs(pair.v.conj().T @ pair.v - np.eye(n)).max() <= 1e-10

    @pytest.mark.parametrize("n", [16, 64])
    def test_circulant_to_toeplitz_rank_one_gap(self, n):
        pair = group_embed(circulant_seq(SHIFT), toeplitz_seq(SHIFT), n)
        assert pair.residual_p <= 1 / n + 1e-10

    def test_scaled_identities(self):
        a = MatrixSeq("2I", lambda n: 2 * np.eye(n, dtype=complex))
        b = MatrixSeq("2I-flipped", lambda n: 2 * np.eye(n, dtype=complex)[::-1][::-1])
        pair = group_embed(a, b, 12)
        assert pair.residual_p <= 1e-10

    def test_misfit_measured_by_p(self):
        # identity vs zero: no unitary alignment helps, p stays 1
        pair = group_embed(identity_seq(), MatrixSeq("0", lambda n: np.zeros((n, n))), 16)
        assert pair.residual_p == pytest.approx(1.0)


F_COMPLEX = TrigPoly.from_coeff_map({-2: 0.3j, -1: 0.5, 0: 1.0, 1: 0.5 + 0.3j, 2: -0.2})


class TestMisfitP:
    """`_misfit_p` of the two spectra, taken as the embed runner takes them
    (`_spectrum`: the svals/eigs hooks, the band SVD from n = 96, else the
    dense SVD), is the p of the misfit B - U A V formed densely from
    group_embed's own U and V, the oracle."""

    @staticmethod
    def check(seq_a, seq_b, n):
        pair = group_embed(seq_a, seq_b, n)
        want = p_metric(seq_b(n) - pair.u @ seq_a(n) @ pair.v)
        got = _misfit_p(_spectrum(seq_a, n, "sv"), _spectrum(seq_b, n, "sv"))
        for value in (got, pair.residual_p):
            assert abs(value - want) <= max(1e-12, 1e-10 * want)
        return got

    @pytest.mark.parametrize("f", [SHIFT, TWO_COS, F_COMPLEX], ids=["shift", "two-cos", "complex"])
    @pytest.mark.parametrize("n", [16, 64, 95, 96, 128, 256])
    def test_circulant_vs_toeplitz(self, f, n, routes):
        # the circulant's values come from its eigs hook; the Toeplitz
        # matrix takes the band SVD from n = 96 and the dense SVD below
        self.check(circulant_seq(f), toeplitz_seq(f), n)
        assert band_svds(routes) == ([f.degree] if n >= 96 else [])

    @pytest.mark.parametrize("n", [16, 64, 144])
    def test_lt_vs_lc(self, n, routes):
        # lt's svals hook and lc's eigs hook: no decomposition at all
        self.check(lt_seq(X, TWO_COS), lc_seq(X, TWO_COS), n)
        assert band_svds(routes) == []

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_half_shift_vs_jordan_shift(self, n):
        # half_shift is dense at every size
        self.check(counterexample_seq("half_shift"), counterexample_seq("jordan_shift"), n)

    @pytest.mark.parametrize("n", [24, 128])
    def test_equal_sequences_give_exactly_zero(self, n):
        seq = toeplitz_seq(TWO_COS)
        assert self.check(seq, seq, n) == 0.0

    @pytest.mark.parametrize("n", [16, 128])
    def test_identity_vs_zero_gives_one(self, n):
        assert self.check(identity_seq(), zero_seq(), n) == 1.0


class TestAlgebraResiduals:
    def test_quadratic_polynomial_residual_decreases(self):
        # p(t) = t^2 + t applied to the diagonal-times-Toeplitz sequence,
        # compared against the squared-plus-original symbol
        expr = GltExpr(((X, TWO_COS),))
        sym = expr * expr + expr

        def gen(n):
            A = diag_sampling(X, n) @ toeplitz(TWO_COS, n)
            return A @ A + A

        seq = MatrixSeq("p(DT)", gen)
        table = sv_symbol_residual(seq, sym, (32, 128, 512))
        worst = table.max_per_size()
        assert worst[1] < worst[0]
        assert worst[2] < worst[1]

    def test_alt_identity_affine_polynomial_gap(self):
        # p(t) = t + 1 maps the alternating identity to 2I / 0 on even/odd
        # sizes: no symbol can satisfy both, and the residual table shows a
        # persistent parity gap
        seq = counterexample_seq("alt_identity")
        shifted = MatrixSeq("alt+I", lambda n: seq(n) + np.eye(n))
        two = TrigPoly.from_coeff_map({0: 2})
        table = sv_symbol_residual(shifted, two, (64, 65, 128, 129, 256, 257))
        worst = table.max_per_size()
        even = worst[::2]
        odd = worst[1::2]
        assert even.max() <= 1e-12
        assert odd.min() >= 0.9
