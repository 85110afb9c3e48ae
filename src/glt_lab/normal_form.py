"""Normal forms of separable-symbol sequences and related constructions.

A normal form replaces sum_i D_n(a_i) T_n(f_i) by the acs-equivalent normal
sequence Q^H D Q, where Q is the fixed block-Fourier unitary (independent of
the symbol) and D is diagonal with entries sampling the symbol on a regular
grid.  Also provides the sorting permutation for diagonal sequences, the
Hermitian function calculus, the affine-shift spectral test and the SVD
embedding of one sequence onto another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acs import _objective, acs_equivalent
from .errors import DomainError, HermitianError, NumericalError
from .matrices import (
    MatrixSeq,
    _Band,
    _check_ladder,
    _lc_band,
    _lc_eigs,
    d_af,
    glt_product_seq,
    q_block,
)
from .spectra import (
    ResidualTable,
    as_symbol_grid,
    eig_symbol_residual,
    sv_symbol_residual,
)
from .symbols import FuncExpr, GltExpr, SymbolGrid

__all__ = [
    "NormalForm",
    "EmbeddingPair",
    "NormalFormReport",
    "HermitianFnReport",
    "AffineShiftReport",
    "normal_form",
    "normal_form_seq",
    "diagonal_factor_seq",
    "verify_normal_form",
    "sort_perm",
    "hermitian_function",
    "affine_shift_test",
    "group_embed",
    "DEFAULT_SHIFTS",
]

DEFAULT_SHIFTS = (0, 1, -1, 1j, -1j, 0.5 + 0.5j)

NORMALITY_TOL = 1e-10


@dataclass(frozen=True)
class NormalForm:
    """Unitary Q and diagonal D with Q^H D Q normal and acs-close to the
    generating diagonal-times-Toeplitz sum.

    `matrix()` reads only `source` and `n`, so `normal_form_seq` leaves `q`
    and `d` as None; only `normal_form()` fills them.  The eig ladder of
    `diagonal_factor_seq` calls `normal_form()` only below
    `matrices._BAND_MIN_N`; from there it reads D's diagonal from the
    sequence's width-0 `band`, and builds no Q or D."""

    source: GltExpr
    n: int
    q: np.ndarray | None = None
    d: np.ndarray | None = None

    def matrix(self) -> np.ndarray:
        """Q^H D Q in closed form: Q is block diagonal (F_block repeated m
        times, then I_t) and F^H diag(f(2 pi k/block)) F = C_block(f), so this
        is the sum of the terms' locally circulant operators.  Exactly real
        when every a_i is real on the grid and every f_i has real Fourier
        coefficients; raises d_af's errors, term by term.  Read from the
        sum's band (`matrices._lc_band`)."""
        return _lc_band(self.source.terms, self.n).dense()

    def diagonal(self) -> np.ndarray:
        return np.diag(self.d)


def normal_form(expr: GltExpr, n: int) -> NormalForm:
    """Build Q = block Fourier and D = sum_i d_af(a_i, f_i, n).  The terms'
    diagonals are summed and D is built once, so no dense sum of d_af
    matrices is held: the same D bit for bit, as every off-diagonal sum is
    +0."""
    D = np.diag(sum(np.diagonal(d_af(a, f, n)) for a, f in expr.terms))
    return NormalForm(expr, n, q_block(n), D)


def normal_form_seq(expr: GltExpr) -> MatrixSeq:
    """The normal sequence n -> Q^H D Q for a separable symbol, with its
    `band` (block - 1 diagonals either side, see `matrices._lc_band`)."""
    return MatrixSeq("normal-form", lambda n: NormalForm(expr, n).matrix(), symbol=expr,
                     band=lambda n: _lc_band(expr.terms, n))


def diagonal_factor_seq(expr: GltExpr) -> MatrixSeq:
    """The diagonal sequence n -> D carrying the sampled symbol, with its
    `band` of half-bandwidth 0: the sum of the terms' `_lc_eigs`, which is
    D's diagonal bit for bit, taken term by term as `normal_form()` takes it,
    so it raises the same errors in the same order."""

    def band(n):
        return _Band(sum(_lc_eigs(a, f, n) for a, f in expr.terms)[:, None], 0)

    return MatrixSeq("normal-form-diagonal", lambda n: normal_form(expr, n).d, symbol=expr,
                     band=band)


@dataclass(frozen=True)
class NormalFormReport:
    """acs closeness of the generating sum to its normal form, plus the
    eigenvalue distribution of the diagonal factor against the symbol."""

    acs_pass: bool
    acs_p_values: tuple
    acs_rho: float
    eig_table: ResidualTable
    eig_pass: bool


def verify_normal_form(expr: GltExpr, sizes, resolution=None,
                       acs_tol: float = 0.5) -> NormalFormReport:
    """Check both halves of the normal-form construction on a size ladder."""
    sizes = tuple(int(n) for n in sizes)
    seq_gen = glt_product_seq(expr)
    seq_nf = normal_form_seq(expr)
    acs_ok, est = acs_equivalent(seq_gen, seq_nf, sizes, acs_tol)

    table = eig_symbol_residual(diagonal_factor_seq(expr), expr, sizes, resolution=resolution)
    eig_ok = bool(table.passes().all())
    return NormalFormReport(acs_ok, est.p_values, est.rho_estimate, table, eig_ok)


def sort_perm(D: np.ndarray) -> np.ndarray:
    """Permutation matrix P with P D P^T having nondecreasing diagonal.

    D must be diagonal (off-diagonal mass below 1e-12) with real entries.
    The eigenvalue multiset is preserved exactly.
    """
    D = np.asarray(D, dtype=complex)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise DomainError("matrix must be square")
    off = D - np.diag(np.diag(D))
    if D.size and np.abs(off).max() > 1e-12:
        raise DomainError("matrix is not diagonal")
    d = np.diag(D)
    if np.abs(d.imag).max(initial=0.0) > 1e-12 * max(1.0, np.abs(d).max(initial=0.0)):
        raise DomainError("diagonal entries must be real; pass their absolute values")
    return np.eye(d.size)[np.argsort(d.real, kind="stable")]


@dataclass(frozen=True)
class HermitianFnReport:
    sv_table: ResidualTable
    eig_table: ResidualTable


def _matrix_function(A: np.ndarray, g: FuncExpr) -> np.ndarray:
    lam, V = np.linalg.eigh(A)
    gv = g(t=lam)
    return (V * gv) @ V.conj().T


def _pushed_seq(seq: MatrixSeq, g: FuncExpr) -> MatrixSeq:
    """The sequence g(A_n), with HermitianError at any n where A_n is not
    Hermitian (to 1e-10).  g(A_n) = V g(Lambda) V^H is normal, so its
    eigenvalues are g(lambda_i); the dense generator stays as their oracle.
    Each n's eigenvalues are taken once and kept, read-only, for the sv and
    eig ladders alike."""

    def hermitian(n):
        A = seq(n)
        if np.abs(A - A.conj().T).max() > 1e-10:
            raise HermitianError(f"{seq.name} is not Hermitian at n={n}")
        return A

    taken = {}

    def eigs(n):
        if n not in taken:
            lam = np.linalg.eigvalsh(hermitian(n))
            taken[n] = np.broadcast_to(g(t=lam), lam.shape)
        return taken[n]

    return MatrixSeq(f"g({seq.name})", lambda n: _matrix_function(hermitian(n), g), eigs=eigs)


def hermitian_function(seq: MatrixSeq, g: FuncExpr, sizes,
                       resolution=None) -> HermitianFnReport:
    """Distribution test for {g(A_n)} against the pushed symbol g(k).

    A_n must be Hermitian (checked to 1e-10); g is applied through the
    eigendecomposition, never a series expansion.  The attached symbol of
    `seq` supplies k.
    """
    if seq.symbol is None:
        raise DomainError("sequence needs an attached symbol")
    sizes = tuple(int(n) for n in sizes)
    pushed_seq = _pushed_seq(seq, g)
    base = as_symbol_grid(seq.symbol, resolution)
    if np.abs(base.samples.imag).max(initial=0.0) > 1e-10:
        raise HermitianError("symbol of a Hermitian sequence must be real-valued")
    pushed = SymbolGrid(base.domain, base.resolution, g(t=base.samples.real))
    sv_table = sv_symbol_residual(pushed_seq, pushed, sizes)
    eig_table = eig_symbol_residual(pushed_seq, pushed, sizes)
    return HermitianFnReport(sv_table, eig_table)


@dataclass(frozen=True)
class AffineShiftReport:
    """Per-shift singular value tests of {A_n - cI} against k - c.

    If every shift passes and the sequence is normal, the spectral symbol is
    confirmed; for a non-normal sequence the eigenvalue conclusion is NOT
    licensed and `conclusion` says so.
    """

    shifts: tuple
    tables: tuple
    shift_pass: tuple
    normality_residuals: tuple
    is_normal: bool
    all_pass: bool
    conclusion: str


def affine_shift_test(seq: MatrixSeq, k, sizes, shifts=DEFAULT_SHIFTS,
                      resolution=None) -> AffineShiftReport:
    """Test {A_n - cI} ~sigma k - c for each shift c.

    The sequence counts as normal when, at every size,
    ||A^H A - A A^H||_F <= NORMALITY_TOL * ||A||_F^2, a test that does not
    change when A is scaled; the reported residuals are the left-hand sides.
    """
    sizes = _check_ladder(sizes, 1)
    grid = as_symbol_grid(k, resolution)
    normality, normal = [], []
    for n in sizes:
        A = seq(n)
        normality.append(float(np.linalg.norm(A.conj().T @ A - A @ A.conj().T, "fro")))
        # relative to ||A||_F^2, so that scaling A leaves the licence alone
        normal.append(normality[-1] <= NORMALITY_TOL * np.linalg.norm(A, "fro") ** 2)
    is_normal = bool(all(normal))

    tables = []
    verdicts = []
    for c in shifts:
        grid_c = SymbolGrid(grid.domain, grid.resolution, grid.samples - complex(c))
        table = sv_symbol_residual(seq.shifted(c), grid_c, sizes)
        verdicts.append(bool(table.passes()[-1]))
        tables.append(table)
    all_pass = bool(all(verdicts))
    if not all_pass:
        conclusion = "singular value tests failed for some shift"
    elif is_normal:
        conclusion = "spectral symbol confirmed (sequence normal, all shifts pass)"
    else:
        conclusion = (
            "all shifts pass but the sequence is not normal: "
            "the eigenvalue conclusion is not licensed"
        )
    return AffineShiftReport(
        tuple(complex(c) for c in shifts),
        tuple(tables),
        tuple(verdicts),
        tuple(normality),
        is_normal,
        all_pass,
        conclusion,
    )


@dataclass(frozen=True)
class EmbeddingPair:
    """Unitary pair (U, V) aligning one sequence onto another, with the
    p value of the misfit B - U A V."""

    u: np.ndarray
    v: np.ndarray
    residual_p: float


def _canonical_svd(A: np.ndarray):
    """SVD with descending singular values and each left singular vector's
    largest component made real positive (fixes phase ambiguity)."""
    try:
        U, s, Vh = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    # the largest component of each column; a unitary factor has no zero
    # column, so every phase is defined.  hypot is the modulus abs() takes of
    # one complex number, which np.abs on an array may round differently.
    v = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])]
    phase = v / np.hypot(v.real, v.imag)
    U /= phase
    k = min(U.shape[1], Vh.shape[0])
    Vh[:k] *= phase[:k, None]
    return U, s, Vh


def _misfit_p(s_a: np.ndarray, s_b: np.ndarray) -> float:
    """p of the misfit B - U A V of `group_embed` from the singular values
    of A and of B, each non-increasing.  U and V pair sigma_i(A) with
    sigma_i(B), so the misfit is Q diag(sigma(B) - sigma(A)) W and its
    singular values are |sigma_i(B) - sigma_i(A)|."""
    return float(_objective(np.sort(np.abs(s_b - s_a))[::-1]).min())


def group_embed(seqA: MatrixSeq, seqB: MatrixSeq, n: int) -> EmbeddingPair:
    """Unitaries U, V with B_n ~ U A_n V built from sorted SVDs.

    With B = Q S W and A = Q' S' W' (descending singular values) and P, P'
    the permutations sorting each S ascending, U = Q P^T P' Q'^H and
    V = W'^H P'^T P W, so B - U A V = Q (S - P^T P' S' P'^T P) W: the sorted
    spectra are paired.  `residual_p` is read from S and S' alone
    (`_misfit_p`), without forming the misfit; it is small when the two
    sequences share a singular value distribution, and exactly 0 when A = B.
    """
    A = seqA(n)  # built first, so its errors come first
    Q, S, W = _canonical_svd(seqB(n))
    Qp, Sp, Wp = _canonical_svd(A)
    # P = I[order] and P' = I[order_p], so the permutation products are
    # column gathers: X P^T = X[:, order] and X P' = X[:, argsort(order_p)]
    order = np.argsort(S, kind="stable")
    order_p = np.argsort(Sp, kind="stable")
    U = Q[:, order][:, np.argsort(order_p)] @ Qp.conj().T
    V = Wp.conj().T[:, order_p][:, np.argsort(order)] @ W
    return EmbeddingPair(U, V, _misfit_p(Sp, S))
