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
from .matrices import (MatrixSeq, _check_ladder, _dense_svdvals, _pad, _square_finite,
                       _svd_reduce)

__all__ = [
    "SplitResult",
    "AcsEstimate",
    "p_metric",
    "optimal_split",
    "acs_distance",
    "acs_equivalent",
    "diagonal_select",
]


def _phase(A: np.ndarray) -> complex:
    """The global phase abs(v)/v that makes A's largest entry v real positive
    (1 when A = 0).

    Singular values are phase invariant; rotating by it makes p(A) and p(-A)
    bitwise identical, so the induced pseudometric is exactly symmetric.
    """
    v = A.flat[np.argmax(np.abs(A))]
    return 1 + 0j if v == 0 else abs(v) / v


def _operand(A) -> np.ndarray:
    """A as a complex array, once it is known to be square, non-empty and
    finite."""
    A = _square_finite(A)
    if A.size == 0:
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


def _gram(C: np.ndarray) -> np.ndarray:
    """C^H C, or C C^H when C has fewer rows, in one BLAS-3 product."""
    C = np.ascontiguousarray(C)  # a strided view (a real part) costs a copy per operand
    return C.conj().T @ C if C.shape[0] >= C.shape[1] else C @ C.conj().T


def _gram_svdvals(core: np.ndarray, n: int):
    """The singular values of a reduced core from the eigenvalues of its Gram
    matrix, padded to n, or None when the gate cannot certify that their
    error stays below _GRAM_RTOL * p at every index that can set p.

    One BLAS-3 product and a Hermitian eigensolver cost about a third of the
    dense SVD.  A value sigma_i from the Gram matrix can set the minimum only
    when (i-1)/n <= p; the padded zeros are exact.
    """
    amax = np.abs(core).max(initial=0.0)
    if not _GRAM_SCALE[0] < amax < _GRAM_SCALE[1]:  # also the empty core of A = 0
        return None
    try:
        lam = np.linalg.eigvalsh(_gram(core))
    except np.linalg.LinAlgError:
        return None
    s = _pad(np.sqrt(np.maximum(lam[::-1], 0.0)), n)
    p = _objective(s).min()
    k = lam.size
    setting = s[:k][np.arange(k) / n <= p]
    loss = _GRAM_SAFETY * np.finfo(float).eps * s[0] ** 2
    return s if loss <= _GRAM_RTOL * p * setting.min() else None


def p_metric(A: np.ndarray) -> float:
    """min_{i=1..n+1} {(i-1)/n + sigma_i(A)} with sigma_{n+1} = 0.

    After the exact reductions of `svdvals`, the singular values of the
    nonzero core come from its Gram matrix when the gate of `_gram_svdvals`
    certifies them, and from a dense SVD otherwise.
    """
    A = _operand(A)
    n = A.shape[0]
    phase = _phase(A)
    if A.imag.any():
        # rotate first: a rotation can leave a complex operand real (i*R)
        s, core = _svd_reduce(A * phase)
    else:
        # the phase of a real v has an imaginary part of exactly 0, so the
        # rotated operand is phase.real * A bit for bit: scale the reduced
        # core or band by it instead of copying A
        s, core = _svd_reduce(A, phase.real)
    if core is not None:
        s = _gram_svdvals(core, n)
        if s is None:
            s = _dense_svdvals(core, n)
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
    A = _operand(A)
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


def _p_ladder(seqA: MatrixSeq, seqB: MatrixSeq, sizes) -> AcsEstimate:
    ps = tuple(p_metric(seqA(n) - seqB(n)) for n in sizes)
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
    ps = np.asarray(est.p_values)
    # the 1e-12 slack keeps roundoff from breaking ties on all-zero ladders
    verdict = bool(est.rho_estimate < tol and ps[-1] <= np.median(ps) + 1e-12)
    return verdict, est


def diagonal_select(family, sizes):
    """Extract a diagonal sequence from a Cauchy family of sequences.

    For each approximation level m, the tail spread at size n is
    sup { p(B_{n,m'} - B_{n,m''}) : m <= m', m'' <= M } and its budget
    eps(m) is twice the trailing-half maximum of that spread.  m(n) is the
    largest level whose spreads at size n all stay within budget down the
    levels (enforced nondecreasing in n).  Returns ({n: m}, extracted seq).

    This selection rule is one admissible realization of the diagonal
    extraction, chosen for determinism; reports should flag it as such.
    """
    family = list(family)
    if len(family) < 2:
        raise DomainError("family needs at least 2 levels")
    sizes = _check_ladder(sizes, 2)
    M = len(family)

    def spreads_at(n):
        mats = [seq(n) for seq in family]
        P = np.zeros((M, M))
        for i in range(M):
            for j in range(i + 1, M):
                P[i, j] = P[j, i] = p_metric(mats[i] - mats[j])
        # tail spread for level m (1-based): max over the trailing submatrix
        return np.array([P[m - 1 :, m - 1 :].max() for m in range(1, M + 1)])

    spread = np.vstack([spreads_at(n) for n in sizes])  # (len(sizes), M)
    half = len(sizes) // 2
    eps = 2.0 * spread[half:].max(axis=0)

    selection = {}
    prev = 1
    for row, n in zip(spread, sizes):
        ok = row <= eps
        m_n = 1
        for m in range(M, 0, -1):
            if ok[:m].all():
                m_n = m
                break
        m_n = max(m_n, prev)
        prev = m_n
        selection[n] = m_n

    def extract(n):
        chosen = [m for sz, m in selection.items() if sz <= n]
        m_n = chosen[-1] if chosen else selection[sizes[0]]
        return family[m_n - 1](n)

    extracted = MatrixSeq("diagonal-extract", extract, info={"selection": dict(selection)})
    return selection, extracted
