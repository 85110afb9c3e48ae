"""Approximating-classes-of-sequences pseudometric and splittings.

The single-matrix functional p(A) = min_i {(i-1)/n + sigma_i(A)} (with
sigma_{n+1} = 0) measures how well A splits into a low-rank part plus a
small-norm part; its limsup over a sequence induces the acs pseudometric
d(A, B) = limsup p(A_n - B_n), estimated here on a finite size ladder.
"""

from __future__ import annotations

import contextlib
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
    _band_tridiagonal,
    _check_ladder,
    _lapack,
    _pad,
    _record,
    _square_finite,
    _sturm_counter,
    svdvals,
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


# The Gram band route's a-posteriori gate.  The eigenvalues of C^H C are
# sigma_i^2 to within a modest multiple of eps*sigma_1^2 (Demmel, Applied
# Numerical Linear Algebra, 1997, sec. 5.4), so their square roots satisfy
# |sigma_hat_i - sigma_i| <= c*eps*sigma_1^2/sigma_hat_i.  c reached 9.4 on
# the benchmark's acs and normal-form operands (acs-normal-form seeds 0-9,
# n = 256-1600); _GRAM_SAFETY stands for it with a 10x margin.  _GRAM_RTOL
# is the corpus tolerance, relative to p.
_GRAM_SAFETY = 100.0
_GRAM_RTOL = 1e-10
# squaring the core must neither overflow (a warning from the product) nor
# underflow (a p of 0 would pass the gate)
_GRAM_SCALE = (2.0**-400, 2.0**400)


def _gram_band(C: _Band):
    """C^H C of a band core C from `_band_reduce` in LAPACK lower band
    storage (`_band_tridiagonal`), or None when C is off the band route's
    gate, in O(n z kd) work for z nonzero diagonals.  C is off the gate when
    n is below _GRAM_BAND_MIN_N, when kd is above n/_GRAM_BAND_N_PER_KD,
    when its largest modulus lies outside the open interval _GRAM_SCALE,
    and when numpy's BLAS lacks the band routines.

    C's band storage puts column j in row j, so entry (j + d, j) of the Gram
    matrix is the sum over s of conj(ab[j + d, s]) * ab[j, s + d]: both
    factors come from row j - b + s + d of C, or both from the zero padding
    outside it, so -C gives the same bits product by product.  Only pairs of
    storage columns that both hold a nonzero are multiplied.  Row i of C
    holds a nonzero only on the diagonals between its outermost two, so the
    Gram diagonals beyond the widest such spread are exact zeros and are not
    formed.
    """
    ab, b = C
    n = ab.shape[0]
    if n < _GRAM_BAND_MIN_N or _lapack() is None:
        return None
    cols = np.flatnonzero(ab.any(axis=0))  # storage column s holds diagonal s - b
    held = np.zeros((n, cols.size), bool)  # held[i, c]: row i has a nonzero on diagonal cols[c] - b
    for c, s in enumerate(cols):
        shift = s - b  # the entry of row i sits in storage row i - shift
        held[max(shift, 0) : n + min(shift, 0), c] = ab[max(-shift, 0) : n - max(shift, 0), s] != 0
    spread = cols[cols.size - 1 - held[:, ::-1].argmax(axis=1)] - cols[held.argmax(axis=1)]
    kd = int(spread.max(initial=0))
    if kd > n // _GRAM_BAND_N_PER_KD:
        return None
    if not _GRAM_SCALE[0] < np.abs(ab).max() < _GRAM_SCALE[1]:
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
# objective), _COUNT_ROUNDS rounds, a count that is not monotone, or an
# interval that no longer splits in floating point end the search, and
# p_metric takes `svdvals` of the core instead.  Rounds stay below
# log2(n) + 53 (the search starts on t <= 1, where p lies, and stops
# intervals at a width of _COUNT_RTOL * p >= _COUNT_RTOL / n), so the cap is
# never reached below n = 2^70.
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
    matrix, padded to n, by Sturm counts alone, or None when the search of
    `_count_search` cannot finish or the gate cannot certify its value.  The
    gate asks that the error of sigma_i, at most loss/sigma_i with
    loss = _GRAM_SAFETY * eps * sigma_1^2, stay below _GRAM_RTOL * p at every
    index i that can set p ((i-1)/n <= p; the padded zeros are exact), so one
    count decides it: at least min(k, floor(p n) + 1) singular values lie at
    or above loss/(_GRAM_RTOL * p).
    """
    k = d.size
    below = _sturm_counter(d, e, _COUNT_BATCH)
    radius = np.abs(e)
    radius = np.append(radius, 0.0) + np.insert(radius, 0, 0.0)
    found = _count_search(below, k, n, math.sqrt((d + radius).max()) * (1 + 4 * _COUNT_RTOL))
    if found is None:
        return None
    p, sigma1 = found
    loss = _GRAM_SAFETY * np.finfo(float).eps * sigma1**2
    bound = loss / (_GRAM_RTOL * p)
    setting = np.count_nonzero(np.arange(k) / n <= p)
    return p if k - below(np.array([bound * bound]))[0] >= setting else None


def p_metric(A) -> float:
    """min_{i=1..n+1} {(i-1)/n + sigma_i(A)} with sigma_{n+1} = 0.

    p is read from the nonzero core of A.  A `matrices._Band` is reduced
    exactly as `svdvals` reduces it (`_band_reduce`): its core is a band
    when its zero rows are its zero columns and it lies on the band gate,
    and is otherwise scattered from its slots into a dense core.  A band
    core whose Gram band `_gram_band` accepts takes the count route, the
    faster one on acs differences: ?sbtrd/?hbtrd reduce the Gram band to a
    real tridiagonal, and Sturm counts find p on it (`_count_p`).  Where the
    core is dense, the Gram gate declines, an eigensolver fails or
    `_count_p` declines, p comes from `svdvals` of the core, or of a dense A
    whole, which `svdvals` reduces once itself: the band SVD where its gate
    passes, else the dense SVD in canonical sign, so a dense A always takes
    the dense SVD, the band routes' test oracle.

    p(A) = p(-A) bit for bit: the count route is exact in sign by
    arithmetic ((-C)^H (-C) is C^H C product by product, and the rest of the
    route reads only that), and `svdvals` gives -C the bits of C (see its
    sign rule).
    """
    A = _operand(A)
    n = A.shape[0]
    core = _band_reduce(A) if isinstance(A, _Band) else A
    p = kd = None
    gb = _gram_band(core) if isinstance(core, _Band) else None
    if gb is not None:
        kd = gb.shape[1] - 1
        with contextlib.suppress(NumericalError):  # an eigensolver failed
            p = _count_p(*_band_tridiagonal(gb), n)
    _record("p_metric", core.shape[0], "svdvals" if p is None else "counts", kd)
    if p is None:
        p = _objective(_pad(svdvals(core), n)).min()
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
    band, two sequences that both carry `band` are subtracted in band
    storage, padded to the wider band (T_n - C_n keeps only C_n's wrapped
    slots), or densely when a nonzero wrapped slot would alias at that width
    (`_Band.widened` only pads).  Below the floor, or when either carries no
    band, both are dense.  A_n is built first, so its errors come first."""
    if n < _GRAM_BAND_MIN_N or seqA.band is None or seqB.band is None:
        return seqA(n) - seqB(n)
    A, B = seqA.band(n), seqB.band(n)
    b = max(A.b, B.b)
    if 2 * b < n or not (A.wraps() or B.wraps()):
        return _Band(A.widened(b) - B.widened(b), b)
    return A.dense() - B.dense()  # a wrapped slot would alias at b


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
