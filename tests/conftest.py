import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """peak(fn, *args): the peak of traced memory during fn(*args), in bytes,
    above what was traced before the call.  numpy reports its data buffers to
    tracemalloc, so this counts every array the call makes."""

    def peak(fn, *args):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    return peak
