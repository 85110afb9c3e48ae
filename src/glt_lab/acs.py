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
from .matrices import MatrixSeq, _check_ladder, _square_finite, svdvals

__all__ = [
    "SplitResult",
    "AcsEstimate",
    "p_metric",
    "optimal_split",
    "acs_distance",
    "acs_equivalent",
    "diagonal_select",
]


def _phase_canonical(A: np.ndarray) -> np.ndarray:
    """Rotate A by a global phase making its largest entry real positive.

    Singular values are phase invariant; canonicalizing makes p(A) and p(-A)
    bitwise identical, so the induced pseudometric is exactly symmetric.
    """
    idx = np.argmax(np.abs(A))
    v = A.flat[idx]
    if v == 0:
        return A
    return A * (abs(v) / v)


def p_metric(A: np.ndarray) -> float:
    """min_{i=1..n+1} {(i-1)/n + sigma_i(A)} with sigma_{n+1} = 0."""
    A = _square_finite(A)
    n = A.shape[0]
    s = svdvals(_phase_canonical(A))
    return float((np.arange(n + 1) / n + np.append(s, 0.0)).min())


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
    A = _square_finite(A)
    n = A.shape[0]
    try:
        U, s, Vh = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    obj = np.arange(n + 1) / n + np.append(s, 0.0)
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
