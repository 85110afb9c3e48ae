"""scipy stays off the import path: scipy.linalg loads with a config whose sv
ladders reach the banded SVD path, and its LAPACK capsule module loads alone
on the first call that takes a band route; nothing else loads them.
numpy.ma, which np.median imports on its first call, never loads.

Each check runs in a fresh interpreter, since this one already holds scipy.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str) -> dict:
    """Run `code` against the package in src/; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module", ["glt_lab", "glt_lab.cli"])
def test_import_leaves_scipy_out(module):
    out = run_python(f"""
        import json, sys
        import {module}
        print(json.dumps({{"scipy": "scipy" in sys.modules}}))
    """)
    assert out == {"scipy": False}


SV_CHECK = "kind = symbol-check\nsequence = identity\nsymbol = 1\n"


@pytest.mark.parametrize("later, loads", [
    (SV_CHECK + "sizes = 128, 256, 511", False),
    (SV_CHECK + "sizes = 128, 256, 512", True),
    (SV_CHECK + "mode = sv\nsizes = 512", True),
    (SV_CHECK + "mode = eig\nsizes = 512, 1024", False),
    ("kind = acs\nsequence_a = toeplitz(2*cos(theta))\n"
     "sequence_b = circulant(2*cos(theta))\nsizes = 512", False),
    ("kind = normal-form\nterms = 1 | 2*cos(theta)\nsizes = 576", False),
], ids=["sv-511", "sv-512", "explicit-sv-512", "eig-1024", "acs-512", "normal-form-576"])
def test_load_config_loads_the_band_solver_for_sv_ladders_from_512(tmp_path, later, loads):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[global]\nseed = 1\n\n[small]\n{SV_CHECK}sizes = 8, 16\n\n"
                   f"[later]\n{later}\n", encoding="utf-8")
    out = run_python(f"""
        import json, sys
        from glt_lab.cli import load_config
        load_config({str(cfg)!r})
        print(json.dumps({{"scipy": "scipy" in sys.modules}}))
    """)
    assert out == {"scipy": loads}


@pytest.mark.parametrize("coeffs", ["{-1: 0.5, 0: 2.0, 2: -1.0}", "{-1: 0.5j, 0: 2.0, 1: 1 - 1j}"],
                         ids=["real", "complex"])
def test_cold_banded_svdvals_loads_the_solver(coeffs):
    # at n = 512 the banded path takes half-bandwidths up to 512 // 160 = 3
    out = run_python(f"""
        import json, sys
        import numpy as np
        from glt_lab import TrigPoly, toeplitz
        from glt_lab.matrices import svdvals
        A = toeplitz(TrigPoly.from_coeff_map({coeffs}), 512)
        before = "scipy" in sys.modules
        s = svdvals(A)
        dense = np.linalg.svd(A, compute_uv=False)
        print(json.dumps({{"before": before, "after": "scipy" in sys.modules,
                           "scipy.linalg": "scipy.linalg" in sys.modules,
                           "error": float(np.abs(s - dense).max() / max(1.0, dense[0]))}}))
    """)
    assert (out["before"], out["after"], out["scipy.linalg"]) == (False, True, False)
    assert out["error"] <= 1e-12


def test_p_metric_loads_the_capsule_module_alone():
    # the n = 1024 glt - lc difference takes the band Gram route; a later
    # import of scipy.linalg reuses the module the route loaded
    out = run_python("""
        import json, sys
        import numpy as np
        from glt_lab import p_metric
        from glt_lab.cli import build_sequence
        f = "1 + x^2 | 2 + cos(theta) + 0.5*i*sin(2*theta)"
        A = build_sequence(f"glt({f})")(1024) - build_sequence(f"lc({f})")(1024)
        name = "scipy.linalg.cython_lapack"
        before = name in sys.modules
        p = p_metric(A)
        loaded = {"before": before, "capsules": name in sys.modules,
                  "scipy.linalg": "scipy.linalg" in sys.modules}
        module = sys.modules[name]
        from scipy.linalg import cython_lapack, svdvals
        s = svdvals(A)
        dense = float((np.arange(1025) / 1024 + np.append(s, 0.0)).min())
        print(json.dumps({**loaded, "same module": cython_lapack is module,
                          "error": abs(p - dense) / dense}))
    """)
    assert out.pop("error") <= 1e-12
    assert out == {"before": False, "capsules": True, "scipy.linalg": False, "same module": True}


def test_acs_equivalent_leaves_numpy_ma_out():
    out = run_python("""
        import json, sys
        from glt_lab import TrigPoly, acs_equivalent, circulant_seq, toeplitz_seq
        f = TrigPoly.from_coeff_map({-1: 1.0, 1: 1.0})
        for sizes in [(8, 16), (8, 16, 32), (8, 16, 32, 64)]:
            acs_equivalent(toeplitz_seq(f), circulant_seq(f), sizes, tol=0.5)
        print(json.dumps({"numpy.ma": "numpy.ma" in sys.modules}))
    """)
    assert out == {"numpy.ma": False}
