"""Singular value / eigenvalue distributions and their comparison to symbols.

The Weyl-style test: a sequence {A_n} distributes like a symbol k when the
empirical means (1/n) sum F(sigma_i) (or F(lambda_i)) converge to the
normalized integral of F(|k|) (or F(k)) for compactly supported continuous F.
Here F ranges over a finite family of radial hat functions and the integral
is a fine midpoint-grid mean, so every verdict carries an explicit tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, EvalError, NumericalError
from .matrices import MatrixSeq, _check_ladder, _square_finite, svdvals
from .symbols import (
    FuncExpr,
    GltExpr,
    SymbolGrid,
    TrigPoly,
    sample_symbol,
)

__all__ = [
    "TestFamily",
    "ResidualTable",
    "singular_values",
    "eigenvalues",
    "sv_symbol_residual",
    "eig_symbol_residual",
    "zero_distributed_test",
    "default_family",
    "as_symbol_grid",
    "convergence_tolerance",
]

DEFAULT_RECT_RESOLUTION = (64, 256)
DEFAULT_UNIT_RESOLUTION = (4096,)


def singular_values(A: np.ndarray) -> np.ndarray:
    """Full singular value spectrum, sorted non-increasing."""
    return svdvals(_square_finite(A))


def eigenvalues(A: np.ndarray) -> np.ndarray:
    """Full eigenvalue spectrum (dense solver, no symmetry assumptions).

    A diagonal matrix is its own spectrum: a copy of its diagonal is
    returned, which is what the dense solver returns for it, in the same
    order."""
    A = _square_finite(A)
    d = np.diagonal(A)
    if np.count_nonzero(A) == np.count_nonzero(d):
        return d.copy()
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


@dataclass(frozen=True, eq=False)
class TestFamily:
    """Finite family of compactly supported test functions.

    Member j is the radial hat with center `centers[j]` and support radius
    `radii[j]`; reports always name the family members they used.
    """

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        centers = np.array(self.centers, dtype=complex, ndmin=1)
        radii = np.array(self.radii, dtype=float, ndmin=1)
        if centers.ndim != 1 or centers.shape != radii.shape:
            raise ValueError("centers and radii must be 1-D and align")
        for name, value in (("centers", centers), ("radii", radii)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self):
        return self.centers.size

    @property
    def labels(self):
        def cfmt(c):
            return format(c.real, "g") if c.imag == 0 else format(c, "g")

        return tuple(f"hat(c={cfmt(c)},w={w:g})" for c, w in zip(self.centers, self.radii))

    def means(self, t) -> np.ndarray:
        """Mean of every member over the samples t: mean(max(0, 1 - |t - c|/w))
        per hat, with |t - c| scaled by 1/w as numpy's complex division by a
        real w does, so each value equals the parsed expression's.

        One hat at a time through two reused buffers, so memory stays at a
        few copies of t whatever the family size.  When t and the centers are
        real, |t - c| is the same number in real arithmetic, so it runs there.
        """
        t = np.asarray(t)
        if np.iscomplexobj(t) and not t.imag.any():
            t = t.real
        real = not np.iscomplexobj(t) and not self.centers.imag.any()
        centers = self.centers.real if real else self.centers
        g = np.empty(t.shape)
        diff = g if real else np.empty(t.shape, dtype=complex)
        out = np.empty(len(self))
        for j, (c, w) in enumerate(zip(centers, self.radii)):
            np.subtract(t, c, out=diff)
            np.abs(diff, out=g)
            g *= 1.0 / w
            np.subtract(1.0, g, out=g)
            np.maximum(g, 0.0, out=g)
            out[j] = g.mean()
        return out


def default_family(max_abs_symbol: float) -> TestFamily:
    """Eight hats with centers spanning [-R, R], R = 1 + max |k|, width R/4,
    plus one hat at 0."""
    R = 1.0 + float(max_abs_symbol)
    centers = np.append(np.linspace(-R, R, 8), 0.0)
    return TestFamily(centers, np.full(centers.size, R / 4.0))


def family_with_extra_centers(base: TestFamily, centers, width: float) -> TestFamily:
    centers = np.asarray(centers, dtype=complex)
    return TestFamily(
        np.concatenate([base.centers, centers]),
        np.concatenate([base.radii, np.full(centers.size, float(width))]),
    )


def _grid_samples(k: SymbolGrid, kind: str) -> np.ndarray:
    """The values a symbol-side mean averages: |k| for kind 'sv' and k for
    kind 'eig' at every grid sample, once the grid is known to be non-empty
    and finite."""
    if len(k.samples) == 0:
        raise DomainError("empty symbol grid")
    if k.nonfinite_count:
        raise EvalError(
            f"symbol is non-finite at {k.nonfinite_count} of {k.samples.size} grid samples"
        )
    return np.abs(k.samples) if kind == "sv" else k.samples


def as_symbol_grid(k, resolution=None) -> SymbolGrid:
    """Coerce a symbol of any supported type to a sampled grid."""
    if isinstance(k, SymbolGrid):
        return k
    if isinstance(k, (GltExpr, TrigPoly)):
        return sample_symbol(k, "RECT", resolution or DEFAULT_RECT_RESOLUTION)
    if isinstance(k, FuncExpr):
        if k.free_vars <= {"x"}:
            return sample_symbol(k, "UNIT", resolution or DEFAULT_UNIT_RESOLUTION)
        return sample_symbol(k, "RECT", resolution or DEFAULT_RECT_RESOLUTION)
    raise TypeError(f"cannot interpret {type(k).__name__} as a symbol")


def convergence_tolerance(n: int, grid: SymbolGrid) -> float:
    """Verdict tolerance 10 * max(grid resolution error, 1/sqrt(n))."""
    return 10.0 * max(1.0 / grid.min_resolution(), 1.0 / math.sqrt(n))


@dataclass(frozen=True, eq=False)
class ResidualTable:
    """Per-size, per-test-function residuals of empirical vs symbol means,
    with the verdict bound each size's largest residual is judged against."""

    kind: str
    sizes: tuple
    labels: tuple
    residuals: np.ndarray  # shape (len(sizes), len(labels))
    bounds: np.ndarray  # shape (len(sizes),)

    def max_per_size(self) -> np.ndarray:
        return self.residuals.max(axis=1)

    def passes(self) -> np.ndarray:
        """Per size, whether the largest residual is within its bound."""
        return self.max_per_size() <= self.bounds


def _spectrum(seq: MatrixSeq, n: int, kind: str) -> np.ndarray:
    """Spectrum of A_n: the sequence's closed form when it has one for this
    kind, otherwise a dense decomposition.  A closed-form `svals` is put in
    the order `svdvals` returns, non-increasing, so the means sum alike."""
    hook = seq.svals if kind == "sv" else seq.eigs
    if hook is None:
        return singular_values(seq(n)) if kind == "sv" else eigenvalues(seq(n))
    samples = np.asarray(hook(n))
    if samples.shape != (n,):
        raise ValueError(f"{seq.name}: {kind} hook returned shape {samples.shape} for n={n}")
    if not np.isfinite(samples).all():
        raise DomainError("matrix has non-finite entries")
    return np.sort(np.abs(samples.real))[::-1] if kind == "sv" else samples


def _residual_table(seq, grid, family, sizes, kind):
    """The residual ladder, bounded by `convergence_tolerance` at each size.
    Without a family, `default_family` is placed by the grid's largest |k|."""
    if family is None:
        family = default_family(grid.max_abs())
    sizes = _check_ladder(sizes, 1)
    sym_means = family.means(_grid_samples(grid, kind))
    rows = [np.abs(family.means(_spectrum(seq, n, kind)) - sym_means) for n in sizes]
    bounds = np.array([convergence_tolerance(n, grid) for n in sizes])
    return ResidualTable(kind, sizes, family.labels, np.vstack(rows), bounds)


def sv_symbol_residual(seq: MatrixSeq, k, sizes, family: TestFamily | None = None,
                       resolution=None) -> ResidualTable:
    """Residuals |(1/n) sum F(sigma_i(A_n)) - mean F(|k|)| per size and F."""
    grid = as_symbol_grid(k, resolution)
    return _residual_table(seq, grid, family, sizes, "sv")


def eig_symbol_residual(seq: MatrixSeq, k, sizes, family: TestFamily | None = None,
                        resolution=None) -> ResidualTable:
    """Residuals |(1/n) sum F(lambda_i(A_n)) - mean F(k)| per size and F."""
    grid = as_symbol_grid(k, resolution)
    return _residual_table(seq, grid, family, sizes, "eig")


def zero_distributed_test(seq: MatrixSeq, sizes):
    """Test {A_n} ~ 0 in singular values: (1/n) sum F(sigma_i) -> F(0).

    Returns (verdict, table): PASS when the residuals at the largest size all
    stay below the 10/sqrt(n) noise scale, which bounds every size of the
    table.
    """
    sizes = _check_ladder(sizes, 3)
    zero_grid = SymbolGrid("UNIT", (2,), np.zeros(2, dtype=complex))
    table = sv_symbol_residual(seq, zero_grid, sizes)
    table = replace(table, bounds=np.full(len(sizes), 10.0 / math.sqrt(sizes[-1])))
    verdict = bool(table.max_per_size()[-1] < table.bounds[-1])
    return verdict, table
