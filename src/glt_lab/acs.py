"""Approximating-classes-of-sequences pseudometric and splittings.

The single-matrix functional p(A) = min_i {(i-1)/n + sigma_i(A)} (with
sigma_{n+1} = 0) measures how well A splits into a low-rank part plus a
small-norm part; its limsup over a sequence induces the acs pseudometric
d(A, B) = limsup p(A_n - B_n), estimated here on a finite size ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .matrices import (
    _GRAM_BAND_MIN_N,
    _GRAM_BAND_N_PER_KD,
    MatrixSeq,
    _Band,
    _band_eigvalsh,
    _band_reduce,
    _band_storage,
    _banded_svdvals,
    _check_ladder,
    _dense,
    _dense_svdvals,
    _lapack,
    _pad,
    _square_finite,
    _svd_reduce,
    _transpose_band,
    _write_band,
)

__all__ = [
    "SplitResult",
    "AcsEstimate",
    "p_metric",
    "optimal_split",
    "acs_distance",
    "acs_equivalent",
]


def _operand(A):
    """A as a float64 array when its dtype is real and a complex one
    otherwise, once it is known to be square, non-empty and finite; a
    `_Band` stays a band."""
    if isinstance(A, _Band):
        A = _square_finite(A)
    else:
        A = np.asarray(A)
        A = _square_finite(A, float if A.dtype.kind in "biuf" else complex)
    if A.shape[0] == 0:
        raise DomainError("matrix must be non-empty")
    return A


def _objective(s: np.ndarray) -> np.ndarray:
    """(i-1)/n + sigma_i for i = 1..n+1, with sigma_{n+1} = 0."""
    n = s.size
    return np.arange(n + 1) / n + np.append(s, 0.0)


# The Gram route's a-posteriori gate.  The eigenvalues of C^H C are sigma_i^2
# to within a modest multiple of eps*sigma_1^2 (Demmel, Applied Numerical
# Linear Algebra, 1997, sec. 5.4), so their square roots satisfy
# |sigma_hat_i - sigma_i| <= c*eps*sigma_1^2/sigma_hat_i.  c reached 9.4 on
# the benchmark's acs and normal-form operands (acs-normal-form seeds 0-9,
# n = 256-1600); _GRAM_SAFETY stands for it with a 10x margin.  _GRAM_RTOL
# is the corpus tolerance, relative to p.
_GRAM_SAFETY = 100.0
_GRAM_RTOL = 1e-10
# squaring the core must neither overflow (a warning from the product) nor
# underflow (a p of 0 would pass the gate)
_GRAM_SCALE = (2.0**-400, 2.0**400)


def _in_scale(M: np.ndarray) -> bool:
    """Whether M's largest modulus lies strictly inside _GRAM_SCALE (that of
    an empty or zero M does not)."""
    return _GRAM_SCALE[0] < np.abs(M).max(initial=0.0) < _GRAM_SCALE[1]


def _gram(C: np.ndarray) -> np.ndarray:
    """C^H C, or C C^H when C has fewer rows, in one BLAS-3 product."""
    C = np.ascontiguousarray(C)  # a strided view (a real part) costs a copy per operand
    return C.conj().T @ C if C.shape[0] >= C.shape[1] else C @ C.conj().T


def _gram_band(C, b):
    """C^H C of a square core C in LAPACK lower band storage (`_band_eigvalsh`),
    or None when C is off the band route's gate, in O(n b kd) work.  b is
    C's half-bandwidth as `_svd_reduce` or `_band_reduce` returns it: None for
    a core that is not square or too wide.  C is dense or a `_Band` of
    half-bandwidth b.  C is off the gate too when n is below
    _GRAM_BAND_MIN_N, when kd is above n/_GRAM_BAND_N_PER_KD, when its
    entries lie outside _GRAM_SCALE, and when numpy's BLAS lacks the band
    routines.

    C's band storage puts column j in row j, so entry (j + d, j) of the Gram
    matrix is the sum over t of conj(ab[j + d, t - d]) * ab[j, t]: both
    factors come from row j - b + t of C, or both from the zero padding
    outside it, so -C gives the same bits product by product.  Row i of
    C holds a nonzero only between its first and last nonzero columns, so
    the Gram diagonals beyond the widest such span are exact zeros and are
    not formed.
    """
    n = C.shape[0]
    if b is None or n < _GRAM_BAND_MIN_N or _lapack() is None:
        return None
    ab = C.ab if isinstance(C, _Band) else _band_storage(C, b)
    rows = _transpose_band(ab != 0, b)  # row i holds row i of C, columns i-b..i+b
    last, first = 2 * b - rows[:, ::-1].argmax(axis=1), rows.argmax(axis=1)
    kd = int((last - first).max())
    if kd > n // _GRAM_BAND_N_PER_KD or not _in_scale(ab):
        return None
    gb = np.zeros((n, kd + 1), ab.dtype)
    for d in range(kd + 1):
        gb[: n - d, d] = (ab[d:, : 2 * b + 1 - d].conj() * ab[: n - d, d:]).sum(axis=1)
    return gb


def _gram_svdvals(core, n: int, b):
    """The singular values of a reduced core from the eigenvalues of its Gram
    matrix, padded to n, or None when the core's entries lie outside
    _GRAM_SCALE or the gate cannot certify that their error stays below
    _GRAM_RTOL * p at every index that can set p.  b is the core's
    half-bandwidth from `_svd_reduce`; a `_Band` core off the band route
    forms its dense matrix.

    On one BLAS thread below n = 512, the dense Gram matrix and a Hermitian
    eigensolver cost 0.6-1.0x the dense SVD: n = 256 complex 15.2 against
    15.0 ms, n = 384 complex 48.6 against 48.2 ms, n = 256 real 5.0 against
    7.9 ms (best of seven, 2-vCPU machine, OpenBLAS 0.3.31).  A core that
    passes the gate of `_gram_band` costs far less (see `_GRAM_BAND_MIN_N`).
    A value sigma_i from the Gram matrix can set the minimum only when
    (i-1)/n <= p; the padded zeros are exact.
    """
    gb = _gram_band(core, b)
    if gb is None:
        core = np.ascontiguousarray(_dense(core))  # a strided real part, copied once for both passes
        if not _in_scale(core):  # also the empty core of A = 0
            return None
    try:
        lam = np.linalg.eigvalsh(_gram(core)) if gb is None else _band_eigvalsh(gb)
    except (np.linalg.LinAlgError, NumericalError):
        return None
    s = _pad(np.sqrt(np.maximum(lam[::-1], 0.0)), n)
    p = _objective(s).min()
    k = lam.size
    setting = s[:k][np.arange(k) / n <= p]
    loss = _GRAM_SAFETY * np.finfo(float).eps * s[0] ** 2
    return s if loss <= _GRAM_RTOL * p * setting.min() else None


def _canonical_sign(core: np.ndarray) -> np.ndarray:
    """core, or -core when its largest-magnitude entry (the first, for ties)
    lies in the left half-plane or on the negative imaginary axis; an empty
    core stays as it is.  core and -core map to the same bits."""
    if core.size == 0:
        return core
    v = core.flat[np.argmax(np.abs(core))]
    return -core if v.real < 0 or (v.real == 0 and v.imag < 0) else core


def p_metric(A) -> float:
    """min_{i=1..n+1} {(i-1)/n + sigma_i(A)} with sigma_{n+1} = 0.

    After the exact reductions of `svdvals`, the singular values of the
    nonzero core come from its Gram matrix (band or dense) when the gate of
    `_gram_svdvals` certifies them, else from the banded path of `svdvals`,
    else from a dense SVD.  The Gram band route goes first where both band
    gates pass: it is the faster one on acs differences.  p(A) = p(-A) bit
    for bit: the Gram route is exact in sign by arithmetic ((-C)^H (-C) is
    C^H C product by product), and so was the band route on every band
    tested, but the dense SVD can round -C differently, so that route alone
    decomposes the core in one canonical sign.

    A may be a `matrices._Band`.  With no zero row or column and on the band
    gate it is its own core, and otherwise its core is scattered from its
    slots (`_band_reduce`); either way p is the dense matrix's bit for bit.
    """
    A = _operand(A)
    n = A.shape[0]
    core, b = _band_reduce(A) if isinstance(A, _Band) else _svd_reduce(A, A != 0)
    s = _gram_svdvals(core, n, b)
    if s is None:
        s = _banded_svdvals(core, b)
        s = _dense_svdvals(_canonical_sign(_dense(core)), n) if s is None else _pad(s, n)
    return float(_objective(s).min())


@dataclass(frozen=True)
class SplitResult:
    """Optimal low-rank + small-norm splitting A = R + N.

    R keeps the top i*-1 singular triplets, so rank(R) = i*-1 and the
    spectral norm of N equals sigma_{i*}; p_value = (i*-1)/n + sigma_{i*}.
    """

    rank_part: np.ndarray
    norm_part: np.ndarray
    split_index: int
    p_value: float


def optimal_split(A: np.ndarray) -> SplitResult:
    """Split at the argmin of the p objective via truncated SVD."""
    A = _operand(A).astype(complex, copy=False)
    try:
        U, s, Vh = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    obj = _objective(s)
    istar = int(np.argmin(obj)) + 1  # i runs 1..n+1
    r = istar - 1
    R = (U[:, :r] * s[:r]) @ Vh[:r] if r > 0 else np.zeros_like(A)
    return SplitResult(R, A - R, istar, float(obj[istar - 1]))


@dataclass(frozen=True)
class AcsEstimate:
    """Per-size p values plus the trailing-half maximum as a limsup proxy."""

    sizes: tuple
    p_values: tuple

    @property
    def rho_estimate(self) -> float:
        half = len(self.p_values) // 2
        return float(max(self.p_values[half:]))


def _difference(seqA: MatrixSeq, seqB: MatrixSeq, n: int):
    """A_n - B_n, bit for bit, signed zeros included.  From n =
    _GRAM_BAND_MIN_N, the first size at which p_metric can keep its operand a
    band, each sequence that carries `band` gives its band, not its dense
    matrix.  Two bands are subtracted in band storage, padded to the wider
    band (T_n - C_n keeps only C_n's wrapped slots), or densely when a
    nonzero wrapped slot would alias at that width (`_Band.widened`).  With
    one band the difference is the other operand's dense matrix, changed in
    place on the entries the band's slots stand for; beyond them it is
    A_n - 0 = A_n, or 0 - B_n when the band is A's (its dense matrix holds
    +0 there), which is -B_n with every zero +0.  Below the floor, or with
    no band, both are dense.  A_n is built first, so its errors come
    first."""
    banded = n >= _GRAM_BAND_MIN_N
    A = seqA.band(n) if banded and seqA.band is not None else seqA(n)
    B = seqB.band(n) if banded and seqB.band is not None else seqB(n)
    if isinstance(A, _Band) and isinstance(B, _Band):
        b = max(A.b, B.b)
        if 2 * b < n or not (A.wraps() or B.wraps()):
            return _Band(A.widened(b) - B.widened(b), b)
        A, B = A.dense(), B.dense()  # a wrapped slot would alias at b
    if isinstance(B, _Band):
        return _write_band(A, _band_storage(A, B.b) - B.ab, B.b)
    if isinstance(A, _Band):
        inside = A.ab - _band_storage(B, A.b)
        return _write_band(np.subtract(0.0, B, out=B), inside, A.b)
    return A - B


def _p_ladder(seqA: MatrixSeq, seqB: MatrixSeq, sizes) -> AcsEstimate:
    ps = tuple(p_metric(_difference(seqA, seqB, n)) for n in sizes)
    return AcsEstimate(tuple(sizes), ps)


def acs_distance(seqA: MatrixSeq, seqB: MatrixSeq, sizes) -> AcsEstimate:
    """Estimate the acs pseudodistance between two sequences on a ladder."""
    return _p_ladder(seqA, seqB, _check_ladder(sizes, 4))


def acs_equivalent(seqA: MatrixSeq, seqB: MatrixSeq, sizes, tol: float):
    """Verdict for {A_n - B_n} ~ 0: the rho estimate must stay below tol and
    the p ladder must be eventually decreasing (last value <= median).

    Returns (verdict, estimate).
    """
    est = _p_ladder(seqA, seqB, _check_ladder(sizes, 2))
    # the 1e-12 slack keeps roundoff from breaking ties on all-zero ladders
    verdict = est.rho_estimate < tol and est.p_values[-1] <= _median(est.p_values) + 1e-12
    return bool(verdict), est


def _median(values) -> float:
    """The median of a few finite floats, equal bit for bit to np.median,
    without the import of numpy.ma that np.median's first call makes."""
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2
