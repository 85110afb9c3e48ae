"""Generators for every structured matrix family used in the laboratory.

All generators return dense complex n x n arrays and are pure: the same size
always yields the same matrix.  The locally-structured operators split n into
m = floor(sqrt(n)) blocks of size floor(n/m) plus a trailing zero block.
numpy builds every family; scipy is imported only by `_band_solver`, the
first time a matrix takes the banded SVD path of `svdvals`, or earlier through
`_preload_band_solver` when `glt-lab run` reads a config that may take it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DomainError, EvalError, NumericalError, UnknownNameError
from .symbols import FuncExpr, GltExpr, TrigPoly

__all__ = [
    "BlockLayout",
    "MatrixSeq",
    "block_layout",
    "toeplitz",
    "diag_sampling",
    "circulant",
    "circulant_spectrum",
    "fourier_matrix",
    "lt_op",
    "lc_op",
    "q_block",
    "d_af",
    "d_grid",
    "counterexample",
    "COUNTEREXAMPLES",
    "toeplitz_seq",
    "diag_seq",
    "circulant_seq",
    "lt_seq",
    "lc_seq",
    "glt_product_seq",
    "counterexample_seq",
    "identity_seq",
    "zero_seq",
]


@dataclass(frozen=True)
class BlockLayout:
    """Block partition n = m * block + t with m = floor(sqrt(n))."""

    n: int
    m: int
    block: int
    t: int

    def __post_init__(self):
        assert self.m == math.isqrt(self.n)
        assert self.block == self.n // self.m
        assert self.t == self.n - self.m * self.block


def block_layout(n: int) -> BlockLayout:
    if n < 1:
        raise DomainError("size must be positive")
    m = math.isqrt(n)
    return BlockLayout(n, m, n // m, n - m * (n // m))


@dataclass(frozen=True)
class MatrixSeq:
    """A named matrix sequence: a pure map from size n to a dense n x n matrix.

    `symbol` optionally attaches the symbol the sequence is expected to
    distribute like (a GltExpr, TrigPoly, FuncExpr or sampled grid).

    `svals` and `eigs` optionally map n to the n singular values or
    eigenvalues of A_n in closed form, for sequences whose structure fixes
    them.  The residual ladders use them instead of a dense decomposition;
    each raises the errors the generator raises at the same n.  `eigs` is
    given only to normal sequences, whose singular values are the moduli of
    their eigenvalues: a sequence given `eigs` alone gets `svals = |eigs|`
    here, and `shifted` relies on it.
    """

    name: str
    generator: object
    symbol: object = None
    info: dict = field(default_factory=dict)
    svals: object = None
    eigs: object = None

    def __post_init__(self):
        if self.svals is None and self.eigs is not None:
            eigs = self.eigs
            object.__setattr__(self, "svals", lambda n: np.abs(eigs(n)))

    def __call__(self, n: int) -> np.ndarray:
        A = np.asarray(self.generator(n), dtype=complex)
        if A.shape != (n, n):
            raise ValueError(f"{self.name}: generator returned shape {A.shape} for n={n}")
        return A

    def shifted(self, c: complex) -> "MatrixSeq":
        """The sequence A_n - c*I_n.  A normal A_n (one with `eigs`) stays
        normal with eigenvalues lambda_i - c, so the closed forms carry over."""
        c = complex(c)
        base = self.eigs
        return MatrixSeq(
            name=f"{self.name} - ({c})*I",
            generator=lambda n: self(n) - c * np.eye(n, dtype=complex),
            symbol=None,
            info=dict(self.info),
            eigs=None if base is None else lambda n: base(n) - c,
        )


def _check_ladder(sizes, minimum: int) -> tuple:
    """The ladder as a tuple of ints: at least `minimum` sizes, strictly
    ascending."""
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) < minimum:
        raise DomainError(f"need at least {minimum} sizes")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DomainError("sizes must be strictly ascending")
    return sizes


def _square_finite(A) -> np.ndarray:
    """A as a complex array, once it is known to be square and finite."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("matrix must be square")
    if not np.isfinite(A).all():
        raise DomainError("matrix has non-finite entries")
    return A


# Crossover of the banded path, measured against a dense SVD of random band
# matrices on a 2-vCPU VM (OpenBLAS 0.3.31).  It breaks even at n = 512 for
# b = 3 real and b = 1-2 complex, and at n = 1024 for b ~ 16 real and b ~ 5
# complex; it loses at n <= 256 whatever b.  The rule keeps a margin: n >= 512
# and b <= n/160 real or n/320 complex (real b = 2: n = 512 0.046 -> 0.041 s,
# 1024 0.35 -> 0.16 s, 2048 2.46 -> 0.63 s).
_BAND_MIN_N = 512
_BAND_N_PER_B = {"real": 160, "complex": 320}


def _band_solver():
    """scipy's Hermitian band eigensolver.  Importing scipy.linalg costs about
    0.25 s, so it happens here, on the first call: runs whose sizes stay below
    _BAND_MIN_N never pay it."""
    import scipy.linalg

    return scipy.linalg.eigvals_banded


def _preload_band_solver(n: int) -> None:
    """Import the band solver now if an n x n matrix may take the banded path."""
    if n >= _BAND_MIN_N:
        _band_solver()


def _banded_svdvals(A: np.ndarray, nonzero: np.ndarray, scale: float = 1.0):
    """The singular values of scale * A, for a square A and a real scale,
    through its Jordan-Wielandt matrix, or None when A is too small or too
    wide for that to beat a dense SVD.  `nonzero` is the mask A != 0.

    The eigenvalues of [[0, A], [A^H, 0]] are +-sigma_i.  Interleaving the
    two halves (row i of A -> 2i, column j -> 2j+1) makes it a Hermitian band
    of half-bandwidth 2b+1, whose 2n eigenvalues LAPACK's band solver finds in
    O(n^2 b) with the dense SVD's absolute accuracy eps*sigma_1.
    """
    n = A.shape[0]
    if n < _BAND_MIN_N:
        return None
    b_max = n // _BAND_N_PER_B["real"]
    nnz = np.count_nonzero(nonzero)
    if nnz > n * (2 * b_max + 1):
        return None
    # b is the outermost nonzero diagonal, read in O(n b_max); an entry off
    # the diagonals -b_max..b_max leaves their count short of nnz
    offsets = np.arange(-b_max, b_max + 1)
    counts = np.array([np.count_nonzero(np.diagonal(nonzero, k)) for k in offsets])
    if counts.sum() < nnz:
        return None
    b = int(np.abs(offsets[counts > 0]).max(initial=0))
    real = not A.imag.any()
    if b > n // _BAND_N_PER_B["real" if real else "complex"]:
        return None
    M = A.real if real else A
    # lower band storage: band[r - c, c] holds entry (r, c) of the interleaved matrix
    band = np.zeros((2 * b + 2, 2 * n), dtype=M.dtype)
    for k in range(b + 1):
        band[2 * k + 1, 0 : 2 * (n - k) : 2] = np.diagonal(M, k).conj()
        if k:
            band[2 * k - 1, 1 : 2 * (n - k) : 2] = np.diagonal(M, -k)
    if scale != 1:
        band *= scale
    if not np.isfinite(band).all():
        raise NumericalError("SVD failed: matrix has non-finite entries")
    try:
        w = _band_solver()(band, lower=True, overwrite_a_band=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    # the n largest are sigma_1..sigma_n; zero singular values may come out -eps
    return np.maximum(w[: n - 1 : -1], 0.0)


def _svd_reduce(A: np.ndarray, scale: float = 1.0):
    """The exact reductions `svdvals` applies before any dense work, to
    scale * A for a real scale: either (values, None) from the banded path,
    or (None, core) with core the rows and columns of A that hold a nonzero
    entry, real when its imaginary part is exactly zero, times scale.  The
    singular values of scale * A are those of core padded with zeros to n.
    A scale other than 1 costs one copy of the reduced core or band, not of
    A."""
    nonzero = A != 0
    s = _banded_svdvals(A, nonzero, scale)
    if s is not None:
        return s, None
    rows = np.flatnonzero(nonzero.any(axis=1))
    cols = np.flatnonzero(nonzero.any(axis=0))
    core = A if rows.size == cols.size == A.shape[0] else A[np.ix_(rows, cols)]
    core = core if core.imag.any() else core.real
    return None, core if scale == 1 else core * scale


def _pad(s: np.ndarray, n: int) -> np.ndarray:
    return np.concatenate([s, np.zeros(n - s.size)])


def _dense_svdvals(core: np.ndarray, n: int) -> np.ndarray:
    """The singular values of a reduced core from a dense SVD, padded to n."""
    try:
        s = np.linalg.svd(core, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    return _pad(s, n)


def svdvals(A: np.ndarray) -> np.ndarray:
    """The n singular values of a square matrix A, non-increasing.

    A narrow band takes the banded path above.  Otherwise rows and columns
    without a nonzero entry only add zero singular values, so the rest is
    decomposed alone and zeros pad the result back to n.  That block is
    decomposed in real arithmetic when its imaginary part is exactly zero.
    """
    s, core = _svd_reduce(A)
    return s if core is None else _dense_svdvals(core, A.shape[0])


def _diagonal_constant(col: np.ndarray, row_tail: np.ndarray) -> np.ndarray:
    """The n x n matrix whose first column is `col` and whose first row is
    col[0] followed by `row_tail`, constant along each diagonal: a strided
    view of one vector [col reversed, row_tail], copied."""
    n = col.size
    vals = np.concatenate((col[::-1], row_tail))
    step = vals.strides[0]
    return as_strided(vals[n - 1 :], shape=(n, n), strides=(-step, step)).copy()


def toeplitz(f: TrigPoly, n: int) -> np.ndarray:
    """Toeplitz matrix [f_{i-j}]: banded with bandwidth = degree of f."""
    if n < 1:
        raise DomainError("size must be positive")
    d = f.degree
    col = np.zeros(n, dtype=complex)
    row = np.zeros(n, dtype=complex)
    for s in range(min(d, n - 1) + 1):
        col[s] = f.coeff(s)
        row[s] = f.coeff(-s)
    return _diagonal_constant(col, row[1:])


def _grid_values(a: FuncExpr, m: int) -> np.ndarray:
    """a(1/m), a(2/m), ..., a(1); EvalError at the first non-finite value."""
    nodes = np.arange(1, m + 1) / m
    vals = np.broadcast_to(a(x=nodes), nodes.shape)
    if not np.isfinite(vals).all():
        bad = nodes[~np.isfinite(vals)][0]
        raise EvalError(f"{a.source!r} is non-finite at x={bad}")
    return vals.astype(complex)


def diag_sampling(a: FuncExpr, n: int) -> np.ndarray:
    """Diagonal matrix diag(a(1/n), a(2/n), ..., a(1))."""
    if n < 1:
        raise DomainError("size must be positive")
    return np.diag(_grid_values(a, n))


def _check_circulant_size(f: TrigPoly, n: int) -> None:
    if n <= 2 * f.degree:
        raise DomainError(f"circulant needs n > 2*degree, got n={n}, degree={f.degree}")


def circulant(f: TrigPoly, n: int) -> np.ndarray:
    """Circulant matrix sum_k f_k C^k, C the downward cyclic shift.

    C places f_k on the same diagonals as the Toeplitz matrix (entry (i,j)
    carries f_{i-j} whenever |i-j| <= degree), so the two differ only in the
    wrapped corner entries.  Requires n > 2*degree so the band wraps without
    aliasing.
    """
    _check_circulant_size(f, n)
    col = np.zeros(n, dtype=complex)
    for k in range(-f.degree, f.degree + 1):
        col[k % n] = f.coeff(k)
    return _diagonal_constant(col, col[:0:-1])


def _circulant_eigs(f: TrigPoly, n: int) -> np.ndarray:
    """Eigenvalues f(2*pi*k/n), k = 0..n-1, of circulant(f, n)."""
    _check_circulant_size(f, n)
    return f(2 * np.pi * np.arange(n) / n)


def circulant_spectrum(f: TrigPoly, n: int) -> np.ndarray:
    """Diagonal of circulant eigenvalues: diag(f(2*pi*k/n)), k = 0..n-1."""
    if n < 1:
        raise DomainError("size must be positive")
    theta = 2 * np.pi * np.arange(n) / n
    return np.diag(f(theta))


def fourier_matrix(n: int) -> np.ndarray:
    """Unitary Fourier matrix F with F^H diag(f(2 pi k/n)) F = circulant(f).

    Entry (j, k) is omega^(jk)/sqrt(n) with omega = e^(2 pi i/n).
    """
    if n < 1:
        raise DomainError("size must be positive")
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / math.sqrt(n)


def _block_diag(lay: BlockLayout, blocks, tail=0.0) -> np.ndarray:
    """The n x n complex matrix with the m `blocks` (block x block) down its
    diagonal, then the t x t `tail`, zero elsewhere; each block is copied
    into its slice as it comes."""
    out = np.zeros((lay.n, lay.n), dtype=complex)
    for i, B in enumerate(blocks):
        span = slice(i * lay.block, (i + 1) * lay.block)
        out[span, span] = B
    out[lay.n - lay.t :, lay.n - lay.t :] = tail
    return out


def _lt_parts(a: FuncExpr, f: TrigPoly, n: int):
    if n < 4:
        raise DomainError("locally Toeplitz operator needs n >= 4")
    lay = block_layout(n)
    return lay, toeplitz(f, lay.block), _grid_values(a, lay.m)


def lt_op(a: FuncExpr, f: TrigPoly, n: int) -> np.ndarray:
    """Locally Toeplitz operator: blocks a(i/m) T_block(f), then a zero block."""
    lay, T, vals = _lt_parts(a, f, n)
    return _block_diag(lay, (v * T for v in vals))


def _lt_svals(a: FuncExpr, f: TrigPoly, n: int) -> np.ndarray:
    """Singular values of lt_op(a, f, n): |a(i/m)| sigma(T_block(f)) for each
    block, then t zeros.  One block-sized SVD."""
    lay, T, vals = _lt_parts(a, f, n)
    return np.concatenate([np.outer(np.abs(vals), svdvals(_square_finite(T))).ravel(),
                           np.zeros(lay.t)])


def _lc_parts(a: FuncExpr, f: TrigPoly, n: int):
    if n < 4:
        raise DomainError("locally circulant operator needs n >= 4")
    lay = block_layout(n)
    if lay.block <= 2 * f.degree:
        raise DomainError(
            f"block size {lay.block} must exceed 2*degree={2 * f.degree} at n={n}"
        )
    return lay, _grid_values(a, lay.m)


def lc_op(a: FuncExpr, f: TrigPoly, n: int) -> np.ndarray:
    """Locally circulant operator: blocks a(i/m) C_block(f), then a zero block.

    Normal by construction (each block is circulant).
    """
    lay, vals = _lc_parts(a, f, n)
    C = circulant(f, lay.block)
    return _block_diag(lay, (v * C for v in vals))


def _lc_eigs(a: FuncExpr, f: TrigPoly, n: int) -> np.ndarray:
    """Eigenvalues of lc_op(a, f, n) in block order: a(i/m) f(2*pi*j/block),
    then t zeros."""
    lay, vals = _lc_parts(a, f, n)
    spectrum = f(2 * np.pi * np.arange(lay.block) / lay.block)
    return np.concatenate([np.outer(vals, spectrum).ravel(), np.zeros(lay.t, dtype=complex)])


def q_block(n: int) -> np.ndarray:
    """Block unitary diag(F_block, ..., F_block, I_t): independent of a and f."""
    if n < 4:
        raise DomainError("block Fourier matrix needs n >= 4")
    lay = block_layout(n)
    F = fourier_matrix(lay.block)
    return _block_diag(lay, [F] * lay.m, np.eye(lay.t))


def d_af(a: FuncExpr, f: TrigPoly, n: int) -> np.ndarray:
    """Diagonal factor of the locally circulant operator.

    Entries are a(i/m) * f(j*2pi/block) in block order, then t zeros: a
    uniform sampling of a(x) f(theta) over the rectangle domain.
    """
    if n < 4:
        raise DomainError("needs n >= 4")
    return np.diag(_lc_eigs(a, f, n))


def _theta_grid(block: int) -> np.ndarray:
    """Per-block theta nodes: uniform on [-pi,pi) for even block size, and
    0, +h, -h, +2h, -2h, ... for odd block size (h = 2pi/block)."""
    if block % 2 == 0:
        return -np.pi + 2 * np.pi * np.arange(block) / block
    half = block // 2
    js = [0]
    for j in range(1, half + 1):
        js.extend([j, -j])
    return 2 * np.pi * np.asarray(js, dtype=float) / block


def d_grid(k: FuncExpr, n: int) -> np.ndarray:
    """Diagonal sampling of k(x, theta) over the regular block grid.

    Block i holds k(i/m, theta_j) for the per-block theta nodes, followed by
    t trailing zeros.
    """
    if n < 4:
        raise DomainError("needs n >= 4")
    lay = block_layout(n)
    theta = _theta_grid(lay.block)
    xs = np.arange(1, lay.m + 1) / lay.m
    vals = k(x=xs[:, None], theta=theta[None, :])
    vals = np.broadcast_to(vals, (lay.m, lay.block))
    if not np.isfinite(vals).all():
        raise EvalError(f"{k.source!r} is non-finite on the sampling grid")
    diag = np.concatenate([vals.ravel(), np.zeros(lay.t, dtype=complex)])
    return np.diag(diag)


def _half_shift(n: int) -> np.ndarray:
    q = n // 2
    A = np.zeros((n, n), dtype=complex)
    # top-right rectangular identity: q x (n - q)
    for i in range(q):
        A[i, q + i] = 1.0
    return A


SCALED_CYCLE_CAP_SIZE = 12
SCALED_CYCLE_CAP_VALUE = 1e3


def _scaled_cycle(n: int) -> np.ndarray:
    E = np.zeros((n, n), dtype=complex)
    E[np.arange(n - 1), np.arange(1, n)] = 1.0 / n
    corner = float(n) ** (n - 1) if n <= SCALED_CYCLE_CAP_SIZE else SCALED_CYCLE_CAP_VALUE
    E[n - 1, 0] = corner
    return E


_SHIFT_POLY = TrigPoly.from_coeff_map({1: 1.0})

COUNTEREXAMPLES = ("alt_identity", "half_shift", "scaled_cycle", "jordan_shift")


def counterexample(name: str, n: int) -> np.ndarray:
    """Pathological sequences: alternating +-I, nilpotent half shift, the
    zero-distributed scaled cycle, and the Jordan-type shift."""
    if n < 2:
        raise DomainError("counterexamples need n >= 2")
    if name == "alt_identity":
        return (-1.0) ** n * np.eye(n, dtype=complex)
    if name == "half_shift":
        return _half_shift(n)
    if name == "scaled_cycle":
        return _scaled_cycle(n)
    if name == "jordan_shift":
        return toeplitz(_SHIFT_POLY, n)
    raise UnknownNameError(f"unknown counterexample {name!r}; choose from {COUNTEREXAMPLES}")


def toeplitz_seq(f: TrigPoly, label: str = "f") -> MatrixSeq:
    return MatrixSeq(f"T({label})", lambda n: toeplitz(f, n), symbol=f)


def diag_seq(a: FuncExpr) -> MatrixSeq:
    return MatrixSeq(f"D({a.source})", lambda n: diag_sampling(a, n), symbol=a)


def circulant_seq(f: TrigPoly, label: str = "f") -> MatrixSeq:
    return MatrixSeq(
        f"C({label})", lambda n: circulant(f, n), symbol=f, eigs=lambda n: _circulant_eigs(f, n)
    )


def lt_seq(a: FuncExpr, f: TrigPoly, label: str = "f") -> MatrixSeq:
    return MatrixSeq(
        f"LT({a.source},{label})", lambda n: lt_op(a, f, n), svals=lambda n: _lt_svals(a, f, n)
    )


def lc_seq(a: FuncExpr, f: TrigPoly, label: str = "f") -> MatrixSeq:
    return MatrixSeq(
        f"LC({a.source},{label})", lambda n: lc_op(a, f, n), eigs=lambda n: _lc_eigs(a, f, n)
    )


def glt_product_seq(expr: GltExpr) -> MatrixSeq:
    """The sequence sum_i D_n(a_i) T_n(f_i) generated by a separable symbol.

    D_n(a_i) T_n(f_i) is added one diagonal of T_n(f_i) at a time: entry
    (i, i-k) gains a_i(i/n) f_k.  This equals the dense product bitwise when
    a_i or f_i is real; otherwise the two can differ by one rounding per entry
    (the product may be fused).
    """

    def gen(n):
        if n < 1:
            raise DomainError("size must be positive")
        M = np.zeros((n, n), dtype=complex)
        for a, f in expr.terms:
            vals = _grid_values(a, n)
            d = min(f.degree, n - 1)
            for k in range(-d, d + 1):
                rows = np.arange(max(k, 0), n + min(k, 0))
                M[rows, rows - k] += vals[rows] * f.coeff(k)
        return M

    label = " + ".join(f"D({a.source})T(deg{f.degree})" for a, f in expr.terms)
    return MatrixSeq(label, gen, symbol=expr)


def counterexample_seq(name: str) -> MatrixSeq:
    if name not in COUNTEREXAMPLES:
        raise UnknownNameError(f"unknown counterexample {name!r}; choose from {COUNTEREXAMPLES}")
    info = {}
    if name == "scaled_cycle":
        info["corner_capped_above"] = SCALED_CYCLE_CAP_SIZE
        info["corner_cap_value"] = SCALED_CYCLE_CAP_VALUE
    return MatrixSeq(name, lambda n: counterexample(name, n), info=info)


def identity_seq() -> MatrixSeq:
    return MatrixSeq("I", lambda n: np.eye(n, dtype=complex))


def zero_seq() -> MatrixSeq:
    return MatrixSeq("0", lambda n: np.zeros((n, n), dtype=complex))
