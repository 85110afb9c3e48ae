"""Every name a module lists in `__all__` resolves on that module.

`from glt_lab.<module> import *` and the benchmark tracer, which wraps the
functions it finds through `__all__` and skips a name that does not resolve,
both read these lists, so a stale entry would go unnoticed without this check.
"""

import importlib
import pkgutil

import pytest

import glt_lab

MODULES = sorted(f"glt_lab.{m.name}" for m in pkgutil.iter_modules(glt_lab.__path__))


def test_modules_are_found():
    assert {"glt_lab.acs", "glt_lab.matrices", "glt_lab.spectra", "glt_lab.symbols"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [attr for attr in exported if not hasattr(module, attr)] == []


# each family is built through its sequence, `<family>_seq(...)(n)`; the dense
# builders that spelled the same matrices a second way are gone
DROPPED_BUILDERS = ("toeplitz", "circulant", "diag_sampling", "lt_op", "lc_op", "counterexample")


@pytest.mark.parametrize("name", ["glt_lab", "glt_lab.matrices"])
def test_dense_builders_are_gone(name):
    module = importlib.import_module(name)
    assert [attr for attr in DROPPED_BUILDERS if hasattr(module, attr)] == []
    assert set(DROPPED_BUILDERS).isdisjoint(getattr(module, "__all__", ()))
