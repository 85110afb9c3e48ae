"""The route record (`matrices._record`), unset and at two gates; the band SVD's
b = n/32 gate and a declined certificate are pinned with the other routes."""

import numpy as np
import pytest

from glt_lab import TrigPoly, eig_symbol_residual, p_metric, sv_symbol_residual, toeplitz_seq
from glt_lab import matrices
from glt_lab.matrices import svdvals

SEQ = toeplitz_seq(TrigPoly(np.array([0.3, 1.0, 2.0, 0.5 - 1j, 0.2])))  # a full band, b = 2


def test_an_unset_record_changes_no_bit(routes):
    calls = [lambda: svdvals(SEQ.band(128)), lambda: svdvals(SEQ(64)),
             lambda: np.float64(p_metric(SEQ.band(512))), lambda: np.float64(p_metric(SEQ(128))),
             lambda: sv_symbol_residual(SEQ, SEQ.symbol, (64, 128)).residuals,
             lambda: eig_symbol_residual(SEQ, SEQ.symbol, (64, 128)).residuals]
    recorded = [call().tobytes() for call in calls]
    taken = len(routes)
    token = matrices._ROUTES.set(None)
    try:
        assert [call().tobytes() for call in calls] == recorded
    finally:
        matrices._ROUTES.reset(token)
    assert len(routes) == taken
    assert {route for _, _, route, _ in routes} == {"band", "dense", "counts", "svdvals", "solver"}


@pytest.mark.parametrize("call, n, want", [
    (svdvals, 95, [("svdvals", 95, "dense", None)]), (svdvals, 96, [("svdvals", 96, "band", 2)]),
    (p_metric, 511, [("p_metric", 511, "svdvals", None), ("svdvals", 511, "band", 2)]),
    (p_metric, 512, [("p_metric", 512, "counts", 4)])], ids=["sv-95", "sv-96", "p-511", "p-512"])
def test_each_route_at_its_gate(call, n, want, routes):
    # the band SVD from n = 96, the Gram band of the count route from n = 512;
    # a full band of b = 2 has a Gram band of kd = 4
    call(SEQ.band(n))
    assert routes == want
