"""The structured matrix sequences of the laboratory, one `MatrixSeq` per family.

Each sequence is pure, A_n a dense complex n x n array: the same size always
yields the same matrix.  Every family but two counterexamples is defined by
A_n in LAPACK band storage (`_Band`, the `band` hook of its `MatrixSeq`),
and its dense matrix is read from the same entries.  The
locally-structured operators split n into m = floor(sqrt(n)) blocks of size
floor(n/m) plus a trailing zero block.
numpy builds every family.  The banded SVD path of `svdvals` reduces a narrow
band to a bidiagonal with LAPACK's ?gbbrd and takes its singular values by
dqds (dlasq1), in O(n^2 b) and within eps*sigma_1 of the dense SVD, and
p_metric's count route reduces a Hermitian band to a real tridiagonal with
dsbtrd or zhbtrd (`_band_tridiagonal`), then counts its eigenvalues below
given points with dlaebz (`_sturm_counter`); where the counts decline,
p_metric takes `svdvals`.  numpy's linalg API exposes none of these
routines, so one cached ctypes table (`_lapack`) takes them from the BLAS
that numpy itself links, the first time a matrix takes a band route; when
that library does not export them, the band routes decline and the dense
routes run.  The same table holds OpenBLAS's `openblas_get_num_threads` and
`openblas_set_num_threads` when the library exports them; they are optional,
and `_one_blas_thread` uses them to run the CLI's commands on one BLAS thread.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DomainError, EvalError, NumericalError, UnknownNameError
from .symbols import FuncExpr, GltExpr, TrigPoly

__all__ = [
    "BlockLayout",
    "MatrixSeq",
    "block_layout",
    "circulant_spectrum",
    "fourier_matrix",
    "q_block",
    "d_af",
    "COUNTEREXAMPLES",
    "DENSE_ONLY",
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
    """A named matrix sequence: a pure map from size n to a dense n x n matrix,
    given by `generator` or, without one, read from `band` as band(n).dense().
    The `*_seq` builders are the library's one way to build a family's A_n.

    `symbol` optionally attaches the symbol the sequence is expected to
    distribute like (a GltExpr, TrigPoly, FuncExpr or sampled grid).

    `svals` and `eigs` optionally map n to the n singular values or
    eigenvalues of A_n in closed form, for sequences whose structure fixes
    them.  The residual ladders use them instead of a dense decomposition;
    each raises the errors seq(n) raises at the same n.  `eigs` is
    given only to normal sequences, whose singular values are the moduli of
    their eigenvalues: a sequence given `eigs` alone gets `svals = |eigs|`
    here, and `shifted` relies on it.

    `band` optionally maps n to A_n as a `_Band` (ab, b): bit for bit what
    `_band_storage(seq(n), b)` holds, signed zeros included; seq(n) holds +0
    where no slot stands for an entry.  When n > 2b, slot [j, b + k] with
    j + k off the matrix stands for the corner entry ((j + k) mod n, j).
    Every `*_seq` builder and its `shifted` sequences carry it but the
    DENSE_ONLY counterexamples, whose generators are dense: b = 0 for
    `diag_seq`, `identity_seq`, `zero_seq`, `diagonal_factor_seq` and
    alt_identity, deg f for `toeplitz_seq`, `circulant_seq`, `lt_seq`,
    `glt_product_seq` and jordan_shift, block - 1 for `lc_seq` and
    `normal_form_seq`.  Of these only the normal form's two
    keep a generator; every other band is its sequence's one definition,
    checked by `_band_storage` and the tests' scipy builders.
    The residual ladders hand `singular_values` and `eigenvalues` the band
    from n = _BAND_MIN_N, and the `acs` ladder subtracts two bands from n =
    _GRAM_BAND_MIN_N, so a band route forms no dense n x n of that sequence.
    """

    name: str
    generator: object = None
    symbol: object = None
    info: dict = field(default_factory=dict)
    svals: object = None
    eigs: object = None
    band: object = None

    def __post_init__(self):
        if self.svals is None and self.eigs is not None:
            eigs = self.eigs
            object.__setattr__(self, "svals", lambda n: np.abs(eigs(n)))

    def __call__(self, n: int) -> np.ndarray:
        A = self.band(n).dense() if self.generator is None else self.generator(n)
        A = np.ascontiguousarray(A, dtype=complex)
        if A.shape != (n, n):
            raise ValueError(f"{self.name}: shape {A.shape} for n={n}")
        return A

    def shifted(self, c: complex) -> "MatrixSeq":
        """The sequence A_n - c*I_n.  A normal A_n (one with `eigs`) stays
        normal with eigenvalues lambda_i - c, so the closed forms carry over.
        A band becomes its storage minus c times that of I_n, and the dense
        matrix is read from it: the bits of A_n - c*I_n, since every entry
        no slot stands for is +0, and +0 - c*0 is +0.  A sequence without a
        band is shifted densely."""
        c = complex(c)
        base, band = self.eigs, self.band

        def shifted_band(n):
            ab, b = band(n)
            return _Band(ab - c * np.eye(1, 2 * b + 1, b, dtype=complex), b)

        return MatrixSeq(
            name=f"{self.name} - ({c})*I",
            generator=None if band else lambda n: self(n) - c * np.eye(n, dtype=complex),
            info=dict(self.info),
            eigs=None if base is None else lambda n: base(n) - c,
            band=None if band is None else shifted_band,
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


def _square_finite(A, dtype=complex):
    """A as an array of `dtype`, once it is known to be square and finite; a
    `_Band` is returned as it is, once its storage is known to be finite."""
    if isinstance(A, _Band):
        if not np.isfinite(A.ab).all():
            raise DomainError("matrix has non-finite entries")
        return A
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


_ROUTES = contextvars.ContextVar("glt_lab_routes", default=None)


def _record(stage: str, n: int, route: str, width: int | None = None) -> None:
    """Append (stage, n, route, width) to the route record, the list set in
    _ROUTES, if any: one entry per route decision of `svdvals` ("band" with
    b, or "dense"), p_metric ("counts" or "svdvals", n the core's size, width
    the kd of a Gram band it reduced), `spectra._spectrum` ("sv" or "eig":
    "hook", "band" with b, or "dense") and `spectra.eigenvalues` ("diagonal"
    or "solver").  No run sets it, and no report holds it."""
    routes = _ROUTES.get()
    if routes is not None:
        routes.append((stage, n, route, width))


# Crossover of the banded path on one BLAS thread, as the CLI runs
# (`_one_blas_thread`): dense SVD against `_band_svdvals` of random band
# matrices, band storage included, best of a few calls, ms, on a 2-vCPU VM
# (OpenBLAS 0.3.31):
#
#     n      b    real dense / band    complex dense / band
#     64     1       0.36 / 0.39           0.39 / 0.33
#     80     2       0.58 / 0.58           0.72 / 0.53
#     96     3       0.86 / 0.80           1.46 / 0.98
#     128    4       1.35 / 1.22           2.13 / 1.56
#     192    6       4.29 / 3.44           6.21 / 6.68
#     256    8       8.60 / 4.80           17.4 / 15.3
#     384    12      22.2 / 19.0           46.9 / 25.3
#     512    16      46.8 / 27.5            118 / 57.4
#     1024   32       508 / 257            1202 / 571
#
# Below n = 96 the band wins only at b <= 2, by at most a quarter, and loses
# beyond.  From n = 96 it wins up to b = n/32 (at n = 192 complex, within
# noise) and loses at twice that: n = 128, b = 8 took 1.41 / 1.53 real and
# n = 256, b = 16 16.5 / 23.3 complex.  Hence n >= 96 and b <= n/32, real or
# complex.  Timings on that VM drift about 20% over minutes.
_BAND_MIN_N = 96
_BAND_N_PER_B = 32

# The band route of p_metric's Gram matrix (acs): a square core of size
# n >= _GRAM_BAND_MIN_N whose half-bandwidth b and Gram half-width kd are
# both at most n/_GRAM_BAND_N_PER_KD, the widest band any route takes, so
# `_narrow` gates b there.  Its eigensolver costs O(n^2 kd) against a dense
# Gram eigensolver's O(n^3), and the two met near kd = n/16 on random bands
# (Gram kd = 2b) on a 2-vCPU VM (OpenBLAS 0.3.31, two BLAS threads): at
# kd = n/16 the band route took 0.78-1.01x the dense Gram's time real and
# 0.91-1.01x complex, n = 512-1600.  The acs differences of glt against lc
# or a normal form have kd = b + 2 with b about sqrt(n): at n = 1600
# (kd = 41) the route takes 0.21 against 0.37 s real.  On one BLAS thread it
# took 0.19 s against 0.51 s for the band SVD of a real glt - lc core
# (b = 39), so p_metric tries it first.
_GRAM_BAND_MIN_N = 512
_GRAM_BAND_N_PER_KD = 16

# The names under which numpy's BLAS may export LAPACK, in the order tried,
# with the width of their integer arguments: scipy-openblas (numpy >= 2
# wheels), openblas64_ (numpy 1.x wheels), and the plain Fortran name.
_MANGLINGS = (("scipy_{}_64_", np.int64), ("{}_64_", np.int64), ("{}_", np.intc))


@functools.cache
def _lapack():
    """The LAPACK routines of the band paths as ctypes functions by name,
    with the numpy integer type of their arguments under "int"; None when
    numpy's BLAS exports them under none of _MANGLINGS, and then both band
    routes decline.

    numpy's linalg extension links its BLAS, and a symbol lookup on the
    extension's handle also searches that library, so the band routines run
    in the same OpenBLAS, and thread pool, as every dense decomposition.
    They are called as numpy's umath_linalg calls LAPACK, with no hidden
    string lengths.  Every integer argument is a one-element array (`_int`),
    so `info` is read back as info[0].

    The table also holds OpenBLAS's thread routines, when they resolve under
    the band routines' mangling: "openblas_get_num_threads" returns the
    count and "openblas_set_num_threads" takes it as a one-element C int
    array (the Fortran entry points, whatever the LAPACK integer width).
    They are optional: a BLAS without them keeps its band routes.
    """
    import ctypes

    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    ch = ctypes.c_char_p
    for mangling, integer in _MANGLINGS:
        i, d, z = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
                   for t in (integer, np.float64, np.complex128))
        signatures = {
            "dgbbrd": (ch, i, i, i, i, i, d, i, d, d, d, i, d, i, d, i, d, i),
            "zgbbrd": (ch, i, i, i, i, i, z, i, d, d, z, i, z, i, z, i, z, d, i),
            "dlasq1": (i, d, d, d, i),
            "dsbtrd": (ch, ch, i, i, d, i, d, d, d, i, d, i),
            "zhbtrd": (ch, ch, i, i, z, i, d, d, z, i, z, i),
            # called with raw pointers from `_sturm_counter`, which allocates
            # every argument itself
            "dlaebz": (ctypes.c_void_p,) * 20,
        }
        try:
            routines = {name: lib[mangling.format(name)] for name in signatures}
        except AttributeError:  # an undefined symbol
            continue
        for name, routine in routines.items():
            routine.argtypes, routine.restype = signatures[name], None
        table = {**routines, "int": integer}
        try:
            get, put = (lib[mangling.format(f"openblas_{verb}_num_threads")]
                        for verb in ("get", "set"))
        except AttributeError:  # not OpenBLAS: the thread count is left alone
            return table
        get.argtypes, get.restype = (), ctypes.c_int
        put.argtypes, put.restype = (np.ctypeslib.ndpointer(np.intc),), None
        return {**table, "openblas_get_num_threads": get, "openblas_set_num_threads": put}
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one BLAS thread, and give the caller's thread count
    back however the body ends.  With more threads, OpenBLAS blocks an eig
    reduction differently, which moves the eigenvalues of a non-normal
    matrix by far more than roundoff.  A BLAS without the thread routines
    (see `_lapack`) is left as it is."""
    table = _lapack() or {}
    if "openblas_set_num_threads" not in table:
        yield
        return
    count = table["openblas_get_num_threads"]()
    table["openblas_set_num_threads"](np.ones(1, np.intc))
    try:
        yield
    finally:
        table["openblas_set_num_threads"](np.full(1, count, np.intc))


def _int(v: int) -> np.ndarray:
    """A LAPACK integer argument."""
    return np.full(1, v, _lapack()["int"])


def _call(name: str, *args, task: str) -> None:
    """Call the LAPACK routine `name` with `args` and a trailing info; a
    nonzero info raises NumericalError("<task> failed: ...")."""
    info = _int(0)
    _lapack()[name](*args, info)
    if info[0]:
        raise NumericalError(f"{task} failed: {name} returned info = {info[0]}")


def _band_svdvals(ab: np.ndarray, b: int) -> np.ndarray:
    """The singular values, non-increasing, of an n x n band held in LAPACK
    general-band storage ab (n x (2b+1), row j holding column j of A; see
    `_band_storage`) with half-bandwidth b.

    LAPACK's ?gbbrd (dgbbrd real, zgbbrd complex; Kaufman's band
    bidiagonalisation) reduces the band to a real bidiagonal in O(n^2 b), and
    dlasq1 (dqds, Fernando and Parlett 1994) returns its singular values to
    high relative accuracy.
    """
    n = ab.shape[0]
    diag, off = np.empty(n), np.zeros(n)  # dlasq1 takes n entries of off
    unused = np.zeros(1, ab.dtype)  # Q, P^H and C: not referenced for vect = 'N', ncc = 0
    args = (b"N", _int(n), _int(n), _int(0), _int(b), _int(b), ab, _int(2 * b + 1), diag, off,
            unused, _int(1), unused, _int(1), unused, _int(1))
    if ab.dtype == np.complex128:
        _call("zgbbrd", *args, np.empty(n, complex), np.empty(n), task="SVD")
    else:
        _call("dgbbrd", *args, np.empty(2 * n), task="SVD")
    _call("dlasq1", _int(n), diag, off, np.empty(4 * n), task="SVD")
    return diag


def _band_tridiagonal(gb: np.ndarray):
    """(d, e): the diagonal (n) and off-diagonal (n - 1) of a real symmetric
    tridiagonal unitarily similar to an n x n Hermitian band held in LAPACK
    lower band storage gb (n x (kd+1), gb[j, d] holding entry (j+d, j)),
    which is overwritten.

    dsbtrd (real) or zhbtrd (complex) with vect = 'N' reduces the band in
    O(n^2 kd) (Schwarz, Numer. Math. 12, 1968), the first step of LAPACK's
    band eigensolvers; the reduction is backward stable.  A nonzero
    info raises NumericalError.
    """
    n, width = gb.shape
    d, e = np.empty(n), np.empty(n)
    args = (b"N", b"L", _int(n), _int(width - 1), gb, _int(width), d, e)
    if gb.dtype == np.complex128:
        _call("zhbtrd", *args, np.zeros(1, complex), _int(1), np.empty(n, complex),
              task="eigensolver")
    else:
        _call("dsbtrd", *args, np.zeros(1), _int(1), np.empty(n), task="eigensolver")
    return d, e[: n - 1]


def _sturm_counter(d: np.ndarray, e: np.ndarray, size: int):
    """A function that maps an array x of at most `size` points to the number
    of eigenvalues below each point of the real symmetric tridiagonal T with
    diagonal d and off-diagonal e: the Sturm count, the number of
    nonpositive pivots of T - xI, which is exact for a matrix within a small
    relative perturbation of T's entries (Demmel, Dhillon and Ren, 1995).

    dlaebz with ijob = 1 counts both ends of each of up to (size + 1) // 2
    intervals in O(n) per point, guarding each pivot by pivmin as dstebz
    does.  Its arguments are allocated here once and passed as raw pointers
    (`ctypes` pointers that keep their arrays alive): checking twenty
    ndpointer arguments per call costs more than a count at n = 1024.
    """
    import ctypes

    routine, integer = _lapack()["dlaebz"], _lapack()["int"]
    d = np.ascontiguousarray(d, dtype=float)
    e = np.append(e, 0.0)  # dlaebz reads n entries of e and e2
    e2 = e * e
    half = (size + 1) // 2
    ab, nab = np.empty(2 * half), np.empty(2 * half, integer)
    mmax, minp, info = _int(half), _int(0), _int(0)
    args = [_int(1), _int(0), _int(d.size), mmax, minp, _int(0),
            np.zeros(1), np.zeros(1), np.full(1, np.finfo(float).tiny * max(1.0, e2.max())),
            d, e, e2, np.zeros(half, integer), ab, np.zeros(half), _int(0), nab,
            np.zeros(half), np.zeros(half, integer), info]
    pointers = [a.ctypes.data_as(ctypes.c_void_p) for a in args]

    def below(x: np.ndarray) -> np.ndarray:
        m = x.size
        if m > 2 * half:
            raise ValueError(f"at most {2 * half} points per count, not {m}")
        h = (m + 1) // 2  # ab and nab as Fortran (h, 2) arrays: x[:h], then x[h:]
        mmax[0] = minp[0] = h
        ab[:m], ab[m : 2 * h] = x, x[-1:]
        routine(*pointers)
        if info[0]:
            raise NumericalError(f"eigensolver failed: dlaebz returned info = {info[0]}")
        return nab[:m].copy()

    return below


def _slot_runs(n: int, b: int):
    """(column, rows, k) for every run of band storage at half-bandwidth b:
    the storage rows `rows` of column `column` hold, in order, diagonal k of
    the n x n matrix (k > 0 above the main one), so slot [j, column] holds
    entry (j - k, j).  Slot [j, b + d] stands for entry ((j + d) mod n, j).
    Where j + d lies off the matrix the slot is wrapped: when n > 2b it
    holds a corner entry, and column b + d's wrapped slots run along the
    corner diagonal n - d (d > 0) or -(n + d) (d < 0); when n <= 2b it
    stands for no entry, holds +0, and no run covers it."""
    for d in range(-b, b + 1):
        if abs(d) < n:
            yield b + d, slice(max(-d, 0), n - max(d, 0)), -d
        if n > 2 * b and d:
            yield b + d, (slice(n - d, n) if d > 0 else slice(0, -d)), (n - d if d > 0 else -n - d)


def _band_storage(M: np.ndarray, b: int) -> np.ndarray:
    """LAPACK general band storage of a square M of half-bandwidth b:
    ab[j, b + i - j] holds entry (i, j), so row j holds column j, and the
    wrapped slots hold M's corners when n > 2b (`_slot_runs`), else +0.
    Each run of slots is one diagonal of M, copied as a slice."""
    ab = np.zeros((M.shape[0], 2 * b + 1), dtype=M.dtype)
    for column, rows, k in _slot_runs(M.shape[0], b):
        ab[rows, column] = np.diagonal(M, k)
    return ab


def _band_to_dense(ab: np.ndarray, b: int) -> np.ndarray:
    """The n x n matrix whose `_band_storage` at half-bandwidth b is ab, with
    every entry no slot stands for +0: the inverse of `_band_storage`.  Each
    run of slots is written as a slice of the flat view, which steps n + 1
    along a diagonal."""
    n = ab.shape[0]
    M = np.zeros((n, n), dtype=ab.dtype)
    flat = M.reshape(-1)
    for column, rows, k in _slot_runs(n, b):
        first = k if k >= 0 else -k * n  # entry (max(-k, 0), max(k, 0))
        flat[first : first + (n + 1) * (rows.stop - rows.start) : n + 1] = ab[rows, column]
    return M


class _Band(NamedTuple):
    """A square n x n matrix held as its `_band_storage` ab at half-bandwidth
    b, every entry no slot stands for zero; when n > 2b the wrapped slots
    hold its corners (`_slot_runs`), so a circulant's column b + k holds f_k
    in every row.  `singular_values` and `p_metric` take one beside a dense
    array (its `shape` is (n, n)), and only a band takes the band routes;
    where none can run they decompose `dense()`, which is the same matrix
    bit for bit."""

    ab: np.ndarray
    b: int

    @property
    def shape(self) -> tuple:
        return (self.ab.shape[0],) * 2

    def dense(self) -> np.ndarray:
        return _band_to_dense(self.ab, self.b)

    def wraps(self) -> bool:
        """Whether a wrapped slot (n > 2b) holds a nonzero entry."""
        ab, b = self
        return 2 * b < len(ab) and any(ab[len(ab) - d :, b + d].any() or ab[:d, b - d].any()
                                       for d in range(1, b + 1))

    def widened(self, b: int) -> np.ndarray:
        """The storage padded to a half-bandwidth b >= self.b: that of the same
        matrix unless a nonzero wrapped slot would alias at b (n <= 2b), which
        the caller rules out."""
        return self.ab if b == self.b else np.pad(self.ab, ((0, 0), (b - self.b,) * 2))


def _narrow(band: _Band):
    """The operand of the band routes: band at the half-bandwidth b of its
    outermost diagonal that holds a nonzero entry, real when its imaginary
    part is exactly zero.  None off their common gate: below n =
    _BAND_MIN_N, beyond the widest route's b = n // _GRAM_BAND_N_PER_KD, or
    with a nonzero wrapped slot, whose corner lies far from the diagonal."""
    ab, width = band
    n = ab.shape[0]
    b = int(np.abs(np.flatnonzero(ab.any(axis=0)) - width).max(initial=0))
    if n < _BAND_MIN_N or b > n // _GRAM_BAND_N_PER_KD or band.wraps():
        return None
    ab = ab[:, width - b : width + b + 1]
    return _Band(np.ascontiguousarray(ab if _complex_valued(ab) else ab.real), b)


def _svd_reduce(A: np.ndarray) -> np.ndarray:
    """The exact reduction `svdvals` applies before a dense SVD: the rows and
    columns of A that hold a nonzero entry, real when their imaginary part
    is exactly zero.  The singular values of A are those of this core padded
    with zeros to A's row count.  A core that is already reduced, square or
    not, comes back as it is, without a copy."""
    nonzero = A != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    cols = np.flatnonzero(nonzero.any(axis=0))
    core = A if (rows.size, cols.size) == A.shape else A[np.ix_(rows, cols)]
    return core if _complex_valued(core) else core.real


def _drop(band: _Band, keep: np.ndarray) -> _Band:
    """The band of the matrix left when the rows and the columns outside
    `keep` are dropped from a band with no nonzero wrapped slot, at the same
    half-bandwidth: entry (i, j) moves to (i', j') with |i' - j'| <=
    |i - j|.  Slots of a dropped row or column are not read."""
    ab, b = band
    at = np.cumsum(keep) - 1
    out = np.zeros((int(at[-1]) + 1, 2 * b + 1), dtype=ab.dtype)
    for d in range(-b, b + 1):  # column b + d holds entry (j + d, j)
        j = np.arange(max(-d, 0), ab.shape[0] - max(d, 0))
        j = j[keep[j] & keep[j + d]]
        out[at[j], b + at[j + d] - at[j]] = ab[j, b + d]
    return _Band(out, b)


def _band_reduce(band: _Band):
    """`_svd_reduce` of band.dense(), read from the band.  When the rows
    without a nonzero entry are the columns without one and no wrapped slot
    holds a nonzero, as in the zero tail of `lt`, `lc` and normal-form
    differences, dropping them leaves a band no wider (`_drop`), and the
    core is that band from `_narrow` when it lies on the gate.  Otherwise
    the slots of the rows and columns with a nonzero entry are scattered
    into a dense core of that size, its other entries +0 as in
    band.dense()."""
    ab, b = band
    nonzero = ab != 0
    cols, rows = nonzero.any(axis=1), np.zeros(ab.shape[0], bool)
    for column, run, k in _slot_runs(ab.shape[0], b):
        rows[run.start - k : run.stop - k] |= nonzero[run, column]  # the rows of the run's entries
    if (rows == cols).all() and not band.wraps():
        core = _narrow(band if rows.all() else _drop(band, rows))
        if core is not None:
            return core
    at_row, at_col = np.cumsum(rows) - 1, np.cumsum(cols) - 1
    core = np.zeros((rows.sum(), cols.sum()), dtype=ab.dtype)
    for column, run, k in _slot_runs(ab.shape[0], b):
        i = slice(run.start - k, run.stop - k)  # the rows of the run's entries
        keep = rows[i] & cols[run]
        core[at_row[i][keep], at_col[run][keep]] = ab[run, column][keep]
    return _svd_reduce(core)


def _pad(s: np.ndarray, n: int) -> np.ndarray:
    return np.concatenate([s, np.zeros(n - s.size)])


def _canonical_sign(core: np.ndarray) -> np.ndarray:
    """core, or -core when its largest-magnitude entry (the first, for ties)
    lies in the left half-plane or on the negative imaginary axis; an empty
    core stays as it is.  core and -core map to the same bits."""
    if core.size == 0:
        return core
    v = core.flat[np.argmax(np.abs(core))]
    return -core if v.real < 0 or (v.real == 0 and v.imag < 0) else core


def svdvals(A) -> np.ndarray:
    """The singular values of A, non-increasing, padded with zeros to its
    row count n: n values for a square A.  A is a `_Band` or an array of n
    rows; `p_metric` passes its reduced core, which may be rectangular.

    A `_Band` on the gate of `_narrow` with b <= n // _BAND_N_PER_B, where
    the band SVD beats a dense one, takes it when numpy's BLAS has its
    routines: ?gbbrd and dqds (`_band_svdvals`), backward stable and O(n^2 b),
    on a copy of the storage, which ?gbbrd overwrites.  The values differed
    from np.linalg.svd by at most 8e-15 * sigma_1 on random real and complex
    bands and two-term `glt` matrices with n = 256-1600 and b = 1-40, and
    were the same bits for A and -A on every band tested: no sign rule.

    A dense array, or a band off that path as its dense matrix, takes the
    dense SVD: rows and columns without a nonzero entry only add zero
    singular values, so the rest is decomposed alone and zeros pad the
    result back to n.  That block is decomposed in real arithmetic when its
    imaginary part is exactly zero, and in its canonical sign
    (`_canonical_sign`), so that svdvals(A) and svdvals(-A) are the same
    bits: the dense SVD can round -A differently from A.
    """
    n = A.shape[0]
    if isinstance(A, _Band):
        band = _narrow(A)
        if band is not None and band.b <= n // _BAND_N_PER_B and _lapack() is not None:
            _record("svdvals", n, "band", band.b)
            if not np.isfinite(band.ab).all():
                raise NumericalError("SVD failed: matrix has non-finite entries")
            return _band_svdvals(band.ab.copy(), band.b)
        A = A.dense()
    _record("svdvals", n, "dense")
    try:
        s = np.linalg.svd(_canonical_sign(_svd_reduce(A)), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    return _pad(s, n)


def _toeplitz_band(f: TrigPoly, n: int) -> _Band:
    """T_n(f) as a `_Band` of half-bandwidth deg f: diagonal k holds f_k."""
    if n < 1:
        raise DomainError("size must be positive")
    d = f.degree
    ab = np.zeros((n, 2 * d + 1), dtype=complex)
    for k in range(-min(d, n - 1), min(d, n - 1) + 1):
        ab[max(-k, 0) : n - max(k, 0), d + k] = f.coeff(k)
    return _Band(ab, d)


def _grid_values(a: FuncExpr, m: int) -> np.ndarray:
    """a(1/m), a(2/m), ..., a(1); EvalError at the first non-finite value."""
    nodes = np.arange(1, m + 1) / m
    vals = np.broadcast_to(a(x=nodes), nodes.shape)
    if not np.isfinite(vals).all():
        bad = nodes[~np.isfinite(vals)][0]
        raise EvalError(f"{a.source!r} is non-finite at x={bad}")
    return vals.astype(complex)


def _diag_band(a: FuncExpr, n: int) -> _Band:
    """D_n(a) as a `_Band` of half-bandwidth 0."""
    if n < 1:
        raise DomainError("size must be positive")
    return _Band(_grid_values(a, n)[:, None], 0)


def _check_circulant_size(f: TrigPoly, n: int) -> None:
    if n <= 2 * f.degree:
        raise DomainError(f"circulant needs n > 2*degree, got n={n}, degree={f.degree}")


def _circulant_band(f: TrigPoly, n: int) -> _Band:
    """C_n(f) = sum_k f_k C^k, C the downward cyclic shift, as a `_Band` of
    half-bandwidth d = deg f: f_k in column d + k.  The wrapped slots hold
    its corners, which n > 2d keeps from aliasing."""
    _check_circulant_size(f, n)
    d = f.degree
    return _Band(np.tile(np.array([f.coeff(k) for k in range(-d, d + 1)], complex), (n, 1)), d)


def _circulant_eigs(f: TrigPoly, n: int) -> np.ndarray:
    """Eigenvalues f(2*pi*k/n), k = 0..n-1, of C_n(f)."""
    _check_circulant_size(f, n)
    return f(2 * np.pi * np.arange(n) / n)


def circulant_spectrum(f: TrigPoly, n: int) -> np.ndarray:
    """Diagonal of circulant eigenvalues: diag(f(2*pi*k/n)), k = 0..n-1."""
    return np.diag(_circulant_eigs(f, n))


def fourier_matrix(n: int) -> np.ndarray:
    """Unitary Fourier matrix F with F^H diag(f(2 pi k/n)) F = C_n(f).

    Entry (j, k) is omega^(jk)/sqrt(n) with omega = e^(2 pi i/n).
    """
    if n < 1:
        raise DomainError("size must be positive")
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / math.sqrt(n)


def _block_diag(lay: BlockLayout, blocks, tail) -> np.ndarray:
    """The n x n complex matrix with the m `blocks` (block x block) down its
    diagonal, then the t x t `tail`, zero elsewhere."""
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
    """(layout, T_block(f) as a `_Band`, a(1/m), ..., a(1))."""
    lay = block_layout(n)
    return lay, _toeplitz_band(f, lay.block), _grid_values(a, lay.m)


def _lt_band(a: FuncExpr, f: TrigPoly, n: int) -> _Band:
    """The locally Toeplitz LT_n(a, f), blocks a(i/m) T_block(f) then a zero
    block, as a `_Band` of half-bandwidth deg f: the rows of block i hold
    a(i/m) times T_block(f)'s storage on the slots that stand for an entry
    of the block; a slot that crosses into another block, a wrapped slot and
    the zero tail's hold +0."""
    lay, T, vals = _lt_parts(a, f, n)
    d = T.b
    row = np.add.outer(np.arange(lay.block), np.arange(-d, d + 1))  # of each slot's entry
    ab = np.zeros((n, 2 * d + 1), dtype=complex)
    np.multiply(vals[:, None, None], T.ab, where=(row >= 0) & (row < lay.block),
                out=ab[: n - lay.t].reshape(lay.m, lay.block, 2 * d + 1))
    return _Band(ab, d)


def _lt_svals(a: FuncExpr, f: TrigPoly, n: int) -> np.ndarray:
    """Singular values of LT_n(a, f): |a(i/m)| sigma(T_block(f)) for each
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


def _lc_band(terms, n: int) -> _Band:
    """sum_i LC_n(a_i, f_i) as a `_Band` of half-bandwidth block - 1, which
    holds each whole block: block j is sum_i a_i(j/m) C_block(f_i), each
    C_block(f_i) read from its `_circulant_band`, and after the m blocks come
    t zero rows and columns.  The terms are checked and sampled in order,
    here, so the first bad term raises.  Each block sum starts from zero, as
    a block accumulated in place does, so a zero entry is +0.0."""
    lay = block_layout(n)
    parts = [(_lc_values(lay, a, f), _circulant_band(f, lay.block).dense())
             for a, f in terms]
    b = lay.block - 1
    ab = np.zeros((n, 2 * b + 1), dtype=complex)
    # entry (r, c) of block j lies at ab[j*block + c, b + r - c]: in a view
    # of ab whose rows step one row down and one column back, block j is
    # written as its transpose
    s0, s1 = ab.strides
    placed = as_strided(ab[:, b:], shape=(lay.m, lay.block, lay.block),
                        strides=(lay.block * s0, s0 - s1, s1))
    for j in range(lay.m):
        placed[j] = sum(vals[j] * C for vals, C in parts).T
    return _Band(ab, b)


def _lc_eigs(a: FuncExpr, f: TrigPoly, n: int) -> np.ndarray:
    """Eigenvalues of LC_n(a, f) in block order: a(i/m) f(2*pi*j/block),
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
    A[np.arange(q), q + np.arange(q)] = 1.0  # top-right rectangular identity: q x (n - q)
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


DENSE_ONLY = ("half_shift", "scaled_cycle")  # entries n/2 and n - 1 off the diagonal


def _counterexample(name: str, n: int):
    """The counterexample `name` at size n: the band of alternating +-I
    (b = 0) or of the Jordan shift T_n(e^{i theta}) (b = 1), else the dense
    nilpotent half shift or zero-distributed scaled cycle (DENSE_ONLY)."""
    if n < 2:
        raise DomainError("counterexamples need n >= 2")
    if name == "alt_identity":
        return _Band((-1.0) ** n * np.ones((n, 1), dtype=complex), 0)
    if name == "jordan_shift":
        return _toeplitz_band(_SHIFT_POLY, n)
    return _half_shift(n) if name == "half_shift" else _scaled_cycle(n)


def toeplitz_seq(f: TrigPoly, label: str = "f") -> MatrixSeq:
    return MatrixSeq(f"T({label})", symbol=f, band=lambda n: _toeplitz_band(f, n))


def diag_seq(a: FuncExpr) -> MatrixSeq:
    return MatrixSeq(f"D({a.source})", symbol=a, band=lambda n: _diag_band(a, n))


def circulant_seq(f: TrigPoly, label: str = "f") -> MatrixSeq:
    return MatrixSeq(f"C({label})", symbol=f, eigs=lambda n: _circulant_eigs(f, n),
                     band=lambda n: _circulant_band(f, n))


def lt_seq(a: FuncExpr, f: TrigPoly, label: str = "f") -> MatrixSeq:
    return MatrixSeq(f"LT({a.source},{label})", symbol=GltExpr(((a, f),)),
                     svals=lambda n: _lt_svals(a, f, n), band=lambda n: _lt_band(a, f, n))


def lc_seq(a: FuncExpr, f: TrigPoly, label: str = "f") -> MatrixSeq:
    return MatrixSeq(f"LC({a.source},{label})", symbol=GltExpr(((a, f),)),
                     eigs=lambda n: _lc_eigs(a, f, n), band=lambda n: _lc_band(((a, f),), n))


def _glt_band(expr: GltExpr, n: int) -> _Band:
    """sum_i D_n(a_i) T_n(f_i) as a `_Band` of half-bandwidth max deg f_i."""
    if n < 1:
        raise DomainError("size must be positive")
    b = max(f.degree for _, f in expr.terms)
    ab = np.zeros((n, 2 * b + 1), dtype=complex)
    for a, f in expr.terms:
        vals = _grid_values(a, n)
        d = min(f.degree, n - 1)
        for k in range(-d, d + 1):
            rows = np.arange(max(k, 0), n + min(k, 0))
            ab[rows - k, b + k] += vals[rows] * f.coeff(k)  # entry (i, i - k)
    return _Band(ab, b)


def glt_product_seq(expr: GltExpr) -> MatrixSeq:
    """The sequence sum_i D_n(a_i) T_n(f_i) generated by a separable symbol.

    D_n(a_i) T_n(f_i) is added one diagonal of T_n(f_i) at a time: entry
    (i, i-k) gains a_i(i/n) f_k.  This equals the dense product bitwise when
    a_i or f_i is real; otherwise the two can differ by one rounding per entry
    (the product may be fused).  The sums are formed in band storage, and the
    dense matrix is read from it.
    """
    label = " + ".join(f"D({a.source})T(deg{f.degree})" for a, f in expr.terms)
    return MatrixSeq(label, symbol=expr, band=lambda n: _glt_band(expr, n))


def counterexample_seq(name: str) -> MatrixSeq:
    if name not in COUNTEREXAMPLES:
        raise UnknownNameError(f"unknown counterexample {name!r}; choose from {COUNTEREXAMPLES}")
    build = functools.partial(_counterexample, name)
    if name not in DENSE_ONLY:
        return MatrixSeq(name, band=build)
    info = {"corner_capped_above": SCALED_CYCLE_CAP_SIZE,
            "corner_cap_value": SCALED_CYCLE_CAP_VALUE} if name == "scaled_cycle" else {}
    return MatrixSeq(name, build, info=info)


def _constant_seq(name: str, value: complex) -> MatrixSeq:
    """value * I_n, read from its band at half-bandwidth 0."""
    return MatrixSeq(name, band=lambda n: _Band(np.full((n, 1), value, dtype=complex), 0))


def identity_seq() -> MatrixSeq:
    return _constant_seq("I", 1.0)


def zero_seq() -> MatrixSeq:
    return _constant_seq("0", 0.0)
