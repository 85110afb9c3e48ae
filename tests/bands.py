"""The band operand the tests hand the band routes, built from a dense matrix,
and the band SVDs a route record shows."""

import numpy as np

from glt_lab import matrices


def as_band(A, b=None):
    """A square array A as a `matrices._Band`: its band storage at
    half-bandwidth b, by default that of its outermost diagonal holding a
    nonzero entry, so a dense oracle and the band route see one matrix."""
    A = np.asarray(A)
    if b is None:
        i, j = np.nonzero(A)
        b = int(np.abs(i - j).max(initial=0))
    return matrices._Band(matrices._band_storage(A, b), b)


def band_svds(routes):
    """The half-bandwidth of every band the band SVD took, from a record."""
    return [b for stage, _, route, b in routes if (stage, route) == ("svdvals", "band")]
