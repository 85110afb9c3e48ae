"""Approximating-classes-of-sequences pseudometric and splittings.

The single-matrix functional p(A) = min_i {(i-1)/n + sigma_i(A)} (with
sigma_{n+1} = 0) measures how well A splits into a low-rank part plus a
small-norm part; its limsup over a sequence induces the acs pseudometric
d(A, B) = limsup p(A_n - B_n), estimated here on a finite size ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .matrices import (
    _GRAM_BAND_MIN_N,
    _GRAM_BAND_N_PER_KD,
    MatrixSeq,
    _Band,
    _band_reduce,
    _band_storage,
    _band_tridiagonal,
    _banded_svdvals,
    _check_ladder,
    _dense,
    _dense_svdvals,
    _lapack,
    _pad,
    _square_finite,
    _sturm_counter,
    _svd_reduce,
    _tridiagonal_eigvalsh,
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
    """C^H C of a square core C in LAPACK lower band storage
    (`_band_tridiagonal`), or None when C is off the band route's gate, in
    O(n z kd) work for z nonzero diagonals.  b is C's half-bandwidth as
    `_svd_reduce` or `_band_reduce` returns it: None for a core that is not
    square or too wide.  C is dense or a `_Band` of half-bandwidth b.  C is
    off the gate too when n is below _GRAM_BAND_MIN_N, when kd is above
    n/_GRAM_BAND_N_PER_KD, when its entries lie outside _GRAM_SCALE, and when
    numpy's BLAS lacks the band routines.

    C's band storage puts column j in row j, so entry (j + d, j) of the Gram
    matrix is the sum over s of conj(ab[j + d, s]) * ab[j, s + d]: both
    factors come from row j - b + s + d of C, or both from the zero padding
    outside it, so -C gives the same bits product by product.  Only pairs of
    storage columns that both hold a nonzero are multiplied.  Row i of C
    holds a nonzero only on the diagonals between its outermost two, so the
    Gram diagonals beyond the widest such spread are exact zeros and are not
    formed.
    """
    n = C.shape[0]
    if b is None or n < _GRAM_BAND_MIN_N or _lapack() is None:
        return None
    ab = C.ab if isinstance(C, _Band) else _band_storage(C, b)
    cols = np.flatnonzero(ab.any(axis=0))  # storage column s holds diagonal s - b
    held = np.zeros((n, cols.size), bool)  # held[i, c]: row i has a nonzero on diagonal cols[c] - b
    for c, s in enumerate(cols):
        shift = s - b  # the entry of row i sits in storage row i - shift
        held[max(shift, 0) : n + min(shift, 0), c] = ab[max(-shift, 0) : n - max(shift, 0), s] != 0
    spread = cols[cols.size - 1 - held[:, ::-1].argmax(axis=1)] - cols[held.argmax(axis=1)]
    kd = int(spread.max(initial=0))
    if kd > n // _GRAM_BAND_N_PER_KD or not _in_scale(ab):
        return None
    paired = np.zeros(2 * b + 1 + kd, bool)
    paired[cols] = True
    gb = np.zeros((n, kd + 1), ab.dtype)
    for d in range(kd + 1):
        left = cols[paired[cols + d]]
        gb[: n - d, d] = (ab[d:, left].conj() * ab[: n - d, left + d]).sum(axis=1)
    return gb


# The count route's search (`_count_p`) refines p to _COUNT_RTOL relative and
# sigma_1 likewise.  Each round halves every interval that can still lower p
# or that holds sigma_1, and counts all their midpoints in one dlaebz call.
# On the benchmark's Gram bands (n = 576-1600) it took 53-54 rounds and
# 132-176 counts in all.  More than _COUNT_BATCH live intervals (ties in the
# objective), _COUNT_ROUNDS rounds, or an interval that no longer splits in
# floating point send the band to dsterf.  Rounds stay below log2(n) + 53
# (the search starts on t <= 1, where p lies, and stops intervals at a width
# of _COUNT_RTOL * p >= _COUNT_RTOL / n), so the cap is never reached below
# n = 2^70.
_COUNT_RTOL = 2 * np.finfo(float).eps
_COUNT_ROUNDS = 128
_COUNT_BATCH = 64


def _count_search(below, k: int, n: int, hi: float):
    """(p, sigma_1) of a Gram matrix of size k from Sturm counts, or None
    when the search cannot finish (see _COUNT_ROUNDS).  below(x) counts the
    eigenvalues below each point x (`_sturm_counter`), so
    N(t) = k - below(t^2) is the number of singular values above t, and
    hi > sigma_1.

    p = inf over t >= 0 of N(t)/n + t, and on an interval (a, c] the infimum
    is at least N(c)/n + a, which prunes the interval once it is within
    _COUNT_RTOL * p of the best point value N(t)/n + t found so far; an
    interval with N(a) = N(c) holds no singular value and is pruned too.
    p <= N(0)/n <= 1, so the search for p starts on (0, min(1, hi)].
    """
    top = min(1.0, hi)
    points = np.array([0.0, top, hi])
    n0, n_top, n_hi = k - below(points * points)
    if not n0 >= n_top >= n_hi == 0:
        return None
    p = min(n0 / n, n_top / n + top)
    sigma1 = top if n_top == 0 else hi  # the least point t with N(t) = 0
    live = [(0.0, top, n0, n_top), (top, hi, n_top, 0)]
    for _ in range(_COUNT_ROUNDS):
        live = [(a, c, na, nc) for a, c, na, nc in live
                if na > nc and (nc / n + a < p - _COUNT_RTOL * p
                                or nc == 0 and c - a > _COUNT_RTOL * c)]
        if not live:
            return p, sigma1
        if len(live) > _COUNT_BATCH:
            return None
        mids = np.array([(a + c) / 2 for a, c, _, _ in live])
        counts = k - below(mids * mids)
        split = []
        for (a, c, na, nc), m, nm in zip(live, mids.tolist(), counts.tolist()):
            if not (a < m < c and na >= nm >= nc):
                return None
            p = min(p, nm / n + m)
            if nm == 0:
                sigma1 = min(sigma1, m)
            split += [(a, m, na, nm), (m, c, nm, nc)]
        live = split
    return None


def _count_p(d: np.ndarray, e: np.ndarray, n: int):
    """p of a reduced core from the real tridiagonal (d, e) of its Gram
    matrix, padded to n, or None when the gate declines: the search of
    `_count_search` on Sturm counts, then the gate of `_spectrum_p` as one
    count.  That gate needs sigma_i >= loss/(_GRAM_RTOL * p) at the last
    index i that can set p, min(k, floor(p n) + 1), so it holds when at least
    that many singular values lie at or above the bound.  When the search
    cannot finish, dsterf takes the whole spectrum of (d, e) instead.
    """
    k = d.size
    below = _sturm_counter(d, e, _COUNT_BATCH)
    radius = np.abs(e)
    radius = np.append(radius, 0.0) + np.insert(radius, 0, 0.0)
    found = _count_search(below, k, n, math.sqrt((d + radius).max()) * (1 + 4 * _COUNT_RTOL))
    if found is None:
        return _spectrum_p(_tridiagonal_eigvalsh(d, e), n)
    p, sigma1 = found
    loss = _GRAM_SAFETY * np.finfo(float).eps * sigma1**2
    bound = loss / (_GRAM_RTOL * p)
    setting = np.count_nonzero(np.arange(k) / n <= p)
    return p if k - below(np.array([bound * bound]))[0] >= setting else None


def _spectrum_p(lam: np.ndarray, n: int):
    """p from the eigenvalues lam, ascending, of a reduced core's Gram
    matrix, padded to n, or None when the gate cannot certify that the error
    of sigma_i stays below _GRAM_RTOL * p at every index i that can set p.
    A value sigma_i from the Gram matrix can set the minimum only when
    (i-1)/n <= p; the padded zeros are exact."""
    s = _pad(np.sqrt(np.maximum(lam[::-1], 0.0)), n)
    p = _objective(s).min()
    k = lam.size
    setting = s[:k][np.arange(k) / n <= p]
    loss = _GRAM_SAFETY * np.finfo(float).eps * s[0] ** 2
    return p if loss <= _GRAM_RTOL * p * setting.min() else None


def _gram_p(core, n: int, b):
    """p of a reduced core from its Gram matrix, or None when the core's
    entries lie outside _GRAM_SCALE, an eigensolver fails, or the gate
    cannot certify the value.  b is the core's half-bandwidth from
    `_svd_reduce`; a `_Band` core off the band route forms its dense matrix.

    On the band route (`_gram_band`), ?sbtrd/?hbtrd reduce the Gram band to
    a real tridiagonal and Sturm counts find p (`_count_p`); otherwise a
    Hermitian eigensolver takes the dense Gram matrix's spectrum.  On one
    BLAS thread below n = 512, the dense Gram matrix and its eigensolver cost
    0.6-1.0x the dense SVD: n = 256 complex 15.2 against 15.0 ms, n = 384
    complex 48.6 against 48.2 ms, n = 256 real 5.0 against 7.9 ms (best of
    seven, 2-vCPU machine, OpenBLAS 0.3.31).  A core that passes the gate of
    `_gram_band` costs far less (see `_GRAM_BAND_MIN_N`).
    """
    gb = _gram_band(core, b)
    try:
        if gb is not None:
            return _count_p(*_band_tridiagonal(gb), n)
        # a strided real part is copied once, for both passes
        core = np.ascontiguousarray(_dense(core))
        if not _in_scale(core):  # also the empty core of A = 0
            return None
        return _spectrum_p(np.linalg.eigvalsh(_gram(core)), n)
    except (np.linalg.LinAlgError, NumericalError):
        return None


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

    After the exact reductions of `svdvals`, p of the nonzero core comes
    from its Gram matrix (Sturm counts on the band's tridiagonal, or a dense
    spectrum) when the gate of `_gram_p` certifies it, else from the banded
    path of `svdvals`, else from a dense SVD.  The Gram band route goes first
    where both band gates pass: it is the faster one on acs differences.
    p(A) = p(-A) bit for bit: the Gram route is exact in sign by arithmetic
    ((-C)^H (-C) is C^H C product by product, and the rest of the route
    reads only that), and so was the band route on every band
    tested, but the dense SVD can round -C differently, so that route alone
    decomposes the core in one canonical sign.

    A may be a `matrices._Band`.  With no zero row or column and on the band
    gate it is its own core, and otherwise its core is scattered from its
    slots (`_band_reduce`); either way p is the dense matrix's bit for bit.
    """
    A = _operand(A)
    n = A.shape[0]
    core, b = _band_reduce(A) if isinstance(A, _Band) else _svd_reduce(A, A != 0)
    p = _gram_p(core, n, b)
    if p is None:
        s = _banded_svdvals(core, b)
        s = _dense_svdvals(_canonical_sign(_dense(core)), n) if s is None else _pad(s, n)
        p = _objective(s).min()
    return float(p)


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
