"""Generators for every structured matrix family used in the laboratory.

All generators return dense complex n x n arrays and are pure: the same size
always yields the same matrix.  The locally-structured operators split n into
m = floor(sqrt(n)) blocks of size floor(n/m) plus a trailing zero block.
numpy builds every family.  The banded SVD path of `svdvals` reduces a narrow
band to a bidiagonal with LAPACK's ?gbbrd and takes its singular values by
dqds (dlasq1), in O(n^2 b) and within eps*sigma_1 of the dense SVD.  Those
routines are scipy's only use: `_band_solver` reaches them through the
PyCapsules of scipy.linalg.cython_lapack and imports scipy the first time a
matrix takes that path, or earlier through `_preload_band_solver` when
`glt-lab run` reads a config that may take it.
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
    """The partition of n: the one size check of the locally structured operators."""
    if n < 4:
        raise DomainError("locally structured operators need n >= 4")
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


def _square_finite(A, dtype=complex) -> np.ndarray:
    """A as an array of `dtype`, once it is known to be square and finite."""
    A = np.asarray(A, dtype=dtype)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("matrix must be square")
    if not np.isfinite(A).all():
        raise DomainError("matrix has non-finite entries")
    return A


def _complex_valued(A: np.ndarray) -> bool:
    """Whether A has a nonzero imaginary part (a real dtype has none, and its
    `imag` would allocate a zero array)."""
    return np.iscomplexobj(A) and bool(A.imag.any())


# Crossover of the banded path, measured against a dense SVD of random band
# matrices on a 2-vCPU VM (OpenBLAS 0.3.31).  A complex band costs 1.2-3x a
# real one and so does its dense SVD, so one rule serves both: n >= 512 and
# b <= n/160.  The band wins 2-3x even at n = 256 (b = 2: 0.004 against
# 0.010 s real), but saves less there than the 0.25 s import of scipy that
# `_band_solver` costs once, so runs of small matrices never load it.  At the
# widest accepted b it wins 4-5x: n = 512, b = 3 takes 0.015 against 0.055 s
# real and 0.023 against 0.105 s complex; n = 1600, b = 10 takes 0.23 against
# 1.09 s real and 0.49 against 2.30 s complex.  Wider bands keep a dense
# route: at n = 1600, b = 40 (an acs difference's block width) the band takes
# 0.84 s, the dense SVD 1.16 s and p_metric's Gram route 0.40 s.
_BAND_MIN_N = 512
_BAND_N_PER_B = 160


def _band_solver():
    """The singular values of an n x n band, as a function of its LAPACK
    general-band storage ab (n x (2b+1), row j holding column j of A) and
    its half-bandwidth b.

    LAPACK's ?gbbrd (dgbbrd real, zgbbrd complex; Kaufman's band
    bidiagonalisation) reduces the band to a real bidiagonal in O(n^2 b), and
    dlasq1 (dqds, Fernando and Parlett 1994) returns its singular values,
    non-increasing, to high relative accuracy.  scipy.linalg.cython_lapack
    exports the three routines as PyCapsules holding their C addresses, which
    ctypes calls directly; scipy.linalg.lapack exposes none of them.
    Importing scipy.linalg costs about 0.25 s, so it happens here, on the
    first call: runs whose sizes stay below _BAND_MIN_N never pay it.
    """
    import ctypes

    from scipy.linalg import cython_lapack

    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))

    def routine(name, *argtypes):
        capsule = cython_lapack.__pyx_capi__[name]
        address = capsule_pointer(capsule, capsule_name(capsule))
        return ctypes.CFUNCTYPE(None, *argtypes)(address)

    ch, i = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int)
    d = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    z = np.ctypeslib.ndpointer(np.complex128, flags="C_CONTIGUOUS")
    dgbbrd = routine("dgbbrd", ch, i, i, i, i, i, d, i, d, d, d, i, d, i, d, i, d, i)
    zgbbrd = routine("zgbbrd", ch, i, i, i, i, i, z, i, d, d, z, i, z, i, z, i, z, d, i)
    dlasq1 = routine("dlasq1", i, d, d, d, i)

    def ref(v):
        return ctypes.byref(ctypes.c_int(v))

    def check(name, info):
        if info.value:
            raise NumericalError(f"SVD failed: {name} returned info = {info.value}")

    def band_svdvals(ab: np.ndarray, b: int) -> np.ndarray:
        n = ab.shape[0]
        if ab.shape != (n, 2 * b + 1):
            raise ValueError(f"band storage of shape {ab.shape} for n = {n}, b = {b}")
        diag, off = np.empty(n), np.zeros(n)  # dlasq1 takes n entries of off
        unused = np.zeros(1, ab.dtype)  # Q, P^H and C: not referenced for vect = 'N', ncc = 0
        info = ctypes.c_int()
        args = (b"N", ref(n), ref(n), ref(0), ref(b), ref(b), ab, ref(2 * b + 1), diag, off,
                unused, ref(1), unused, ref(1), unused, ref(1))
        if ab.dtype == np.complex128:
            zgbbrd(*args, np.empty(n, complex), np.empty(n), ctypes.byref(info))
            check("zgbbrd", info)
        else:
            dgbbrd(*args, np.empty(2 * n), ctypes.byref(info))
            check("dgbbrd", info)
        dlasq1(ref(n), diag, off, np.empty(4 * n), ctypes.byref(info))
        check("dlasq1", info)
        return diag

    return band_svdvals


def _preload_band_solver(n: int) -> None:
    """Import the band solver now if an n x n matrix may take the banded path."""
    if n >= _BAND_MIN_N:
        _band_solver()


def _banded_svdvals(A: np.ndarray, nonzero: np.ndarray):
    """The singular values of a square A, non-increasing, from a band
    bidiagonalisation and dqds (`_band_solver`), or None when A is too small
    or too wide for that to beat a dense SVD.  `nonzero` is the mask A != 0.

    The reduction is backward stable, so the values agree with the dense SVD
    to an absolute eps*sigma_1, in O(n^2 b) work: they differed from
    np.linalg.svd by at most 8e-15 * sigma_1 on random real and complex
    bands and two-term `glt` matrices with n = 256-1600 and b = 1-40.
    """
    n = A.shape[0]
    if n < _BAND_MIN_N:
        return None
    b_max = n // _BAND_N_PER_B
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
    M = A if _complex_valued(A) else A.real
    # general band storage: ab[j, b + i - j] holds entry (i, j)
    ab = np.zeros((n, 2 * b + 1), dtype=M.dtype)
    for k in range(-b, b + 1):
        ab[max(k, 0) : n + min(k, 0), b - k] = np.diagonal(M, k)
    if not np.isfinite(ab).all():
        raise NumericalError("SVD failed: matrix has non-finite entries")
    return _band_solver()(ab, b)


def _svd_reduce(A: np.ndarray):
    """The exact reductions `svdvals` applies before any dense work: either
    (values, None) from the banded path, or (None, core) with core the rows
    and columns of A that hold a nonzero entry, real when its imaginary part
    is exactly zero.  The singular values of A are those of core padded with
    zeros to n."""
    nonzero = A != 0
    s = _banded_svdvals(A, nonzero)
    if s is not None:
        return s, None
    rows = np.flatnonzero(nonzero.any(axis=1))
    cols = np.flatnonzero(nonzero.any(axis=0))
    core = A if rows.size == cols.size == A.shape[0] else A[np.ix_(rows, cols)]
    return None, core if _complex_valued(core) else core.real


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
    return np.diag(_circulant_eigs(f, n))


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


def _blockwise(lay: BlockLayout, scales: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """scales[i] * spectrum[j] for each block i, then t zeros: the spectrum of
    a block diagonal operator whose block i is scales[i] times one block."""
    return np.concatenate([np.outer(scales, spectrum).ravel(), np.zeros(lay.t)])


def _lt_parts(a: FuncExpr, f: TrigPoly, n: int):
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
    return _blockwise(lay, np.abs(vals), svdvals(_square_finite(T)))


def _lc_values(lay: BlockLayout, a: FuncExpr, f: TrigPoly) -> np.ndarray:
    """a(1/m), ..., a(1), once C_block(f) is known to fit in a block."""
    if lay.block <= 2 * f.degree:
        raise DomainError(
            f"block size {lay.block} must exceed 2*degree={2 * f.degree} at n={lay.n}"
        )
    return _grid_values(a, lay.m)


def _lc_sum(terms, n: int) -> np.ndarray:
    """sum_i LC_n(a_i, f_i): block j is sum_i a_i(j/m) C_block(f_i), then a
    t x t zero block.  The terms are checked and sampled in order, so the
    first bad term raises.  Each block sum starts from zero, as a block
    accumulated in place does, so a zero entry is +0.0."""
    lay = block_layout(n)
    parts = [(_lc_values(lay, a, f), circulant(f, lay.block)) for a, f in terms]
    return _block_diag(lay, (sum(vals[j] * C for vals, C in parts) for j in range(lay.m)))


def lc_op(a: FuncExpr, f: TrigPoly, n: int) -> np.ndarray:
    """Locally circulant operator: blocks a(i/m) C_block(f), then a zero block.

    Normal by construction (each block is circulant).
    """
    return _lc_sum(((a, f),), n)


def _lc_eigs(a: FuncExpr, f: TrigPoly, n: int) -> np.ndarray:
    """Eigenvalues of lc_op(a, f, n) in block order: a(i/m) f(2*pi*j/block),
    then t zeros."""
    lay = block_layout(n)
    return _blockwise(lay, _lc_values(lay, a, f), _circulant_eigs(f, lay.block))


def q_block(n: int) -> np.ndarray:
    """Block unitary diag(F_block, ..., F_block, I_t): independent of a and f."""
    lay = block_layout(n)
    F = fourier_matrix(lay.block)
    return _block_diag(lay, [F] * lay.m, np.eye(lay.t))


def d_af(a: FuncExpr, f: TrigPoly, n: int) -> np.ndarray:
    """Diagonal factor of the locally circulant operator.

    Entries are a(i/m) * f(j*2pi/block) in block order, then t zeros: a
    uniform sampling of a(x) f(theta) over the rectangle domain.
    """
    return np.diag(_lc_eigs(a, f, n))


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
        f"LT({a.source},{label})", lambda n: lt_op(a, f, n), symbol=GltExpr(((a, f),)),
        svals=lambda n: _lt_svals(a, f, n),
    )


def lc_seq(a: FuncExpr, f: TrigPoly, label: str = "f") -> MatrixSeq:
    return MatrixSeq(
        f"LC({a.source},{label})", lambda n: lc_op(a, f, n), symbol=GltExpr(((a, f),)),
        eigs=lambda n: _lc_eigs(a, f, n),
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
