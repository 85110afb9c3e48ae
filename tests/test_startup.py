"""scipy never loads: numpy builds every matrix family, and the band routes
call the LAPACK routines of the BLAS that numpy links (`matrices._lapack`).
numpy.ma, which np.median imports on its first call, never loads either.

Each check runs in a fresh interpreter, since this one already holds scipy
(the tests use it as an oracle).
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*parts: str) -> dict:
    """Run the code `parts`, each dedented, against the package in src/;
    they print one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "\n".join(map(textwrap.dedent, parts))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


# sets the route record; calls() counts its entries of the two band routes:
# the band SVDs, and the Gram bands p_metric reduced
SPY = """
    from glt_lab import matrices
    record = []
    matrices._ROUTES.set(record)
    def calls():
        return {"band SVD": sum(e[0] == "svdvals" and e[2] == "band" for e in record),
                "Gram band": sum(e[0] == "p_metric" and e[3] is not None for e in record)}
"""

# the n = 1024 glt - lc difference as the acs ladder forms it, a band
GLT_LC = """
    from glt_lab.acs import _difference
    from glt_lab.cli import build_sequence
    f = "1 + x^2 | 2 + cos(theta) + 0.5*i*sin(2*theta)"
    A = _difference(build_sequence(f"glt({f})"), build_sequence(f"lc({f})"), 1024)
"""


@pytest.mark.parametrize("module", ["glt_lab", "glt_lab.cli"])
def test_import_leaves_scipy_out(module):
    out = run_python(f"""
        import json, sys
        import {module}
        print(json.dumps({{"scipy": "scipy" in sys.modules}}))
    """)
    assert out == {"scipy": False}


SV_CHECK = "kind = symbol-check\nsequence = identity\nsymbol = 1\n"


@pytest.mark.parametrize("later", [
    SV_CHECK + "sizes = 128, 256, 511",
    SV_CHECK + "sizes = 128, 256, 512",
    SV_CHECK + "mode = sv\nsizes = 512",
    SV_CHECK + "mode = eig\nsizes = 512, 1024",
    "kind = acs\nsequence_a = toeplitz(2*cos(theta))\nsequence_b = circulant(2*cos(theta))\n"
    "sizes = 512",
    "kind = normal-form\nterms = 1 | 2*cos(theta)\nsizes = 576",
], ids=["sv-511", "sv-512", "explicit-sv-512", "eig-1024", "acs-512", "normal-form-576"])
def test_load_config_leaves_scipy_out(tmp_path, later):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[global]\nseed = 1\n\n[small]\n{SV_CHECK}sizes = 8, 16\n\n"
                   f"[later]\n{later}\n", encoding="utf-8")
    out = run_python(f"""
        import json, sys
        from glt_lab.cli import load_config
        load_config({str(cfg)!r})
        print(json.dumps({{"scipy": "scipy" in sys.modules}}))
    """)
    assert out == {"scipy": False}


@pytest.mark.parametrize("coeffs", ["{-1: 0.5, 0: 2.0, 2: -1.0}", "{-1: 0.5j, 0: 2.0, 1: 1 - 1j}"],
                         ids=["real", "complex"])
def test_cold_banded_svdvals_leaves_scipy_out(coeffs):
    # at n = 512 the banded path takes half-bandwidths up to 512 // 32 = 16
    out = run_python(SPY, f"""
        import json, sys
        import numpy as np
        from glt_lab import TrigPoly, toeplitz_seq
        from glt_lab.matrices import svdvals
        A = toeplitz_seq(TrigPoly.from_coeff_map({coeffs})).band(512)
        s = svdvals(A)
        dense = np.linalg.svd(A.dense(), compute_uv=False)
        print(json.dumps({{"scipy": "scipy" in sys.modules, "calls": calls(),
                           "error": float(np.abs(s - dense).max() / max(1.0, dense[0]))}}))
    """)
    assert out.pop("error") <= 1e-12
    assert out == {"scipy": False, "calls": {"band SVD": 1, "Gram band": 0}}


def test_p_metric_leaves_scipy_out():
    # the n = 1024 glt - lc difference takes the band Gram route
    out = run_python(SPY, GLT_LC, """
        import json, sys
        from glt_lab import p_metric
        p_metric(A)
        print(json.dumps({"scipy": "scipy" in sys.modules, "calls": calls()}))
    """)
    assert out == {"scipy": False, "calls": {"band SVD": 0, "Gram band": 1}}


def test_band_routes_run_with_scipy_blocked():
    # with scipy unimportable, an sv toeplitz ladder of 128, 256 and 512
    # (every size on the band SVD) and the n = 1024 glt - lc p_metric take
    # the band routes and match the dense oracle: numpy's SVD of every matrix
    out = run_python("""
        import sys
        sys.modules["scipy"] = None
    """, SPY, GLT_LC, """
        import json
        import numpy as np
        from glt_lab import MatrixSeq, TrigPoly, p_metric, sv_symbol_residual, toeplitz_seq
        seq = toeplitz_seq(TrigPoly.from_coeff_map({-1: 0.5j, 0: 2.0, 1: 1 - 1j, 2: 0.25}))
        oracle = MatrixSeq("oracle", seq,
                           svals=lambda n: np.linalg.svd(seq(n), compute_uv=False))
        sizes = (128, 256, 512)
        ladder = sv_symbol_residual(seq, seq.symbol, sizes).residuals
        dense = sv_symbol_residual(oracle, seq.symbol, sizes).residuals
        p = p_metric(A)
        s = np.linalg.svd(A.dense(), compute_uv=False)
        p_dense = float((np.arange(1025) / 1024 + np.append(s, 0.0)).min())
        print(json.dumps({"calls": calls(), "ladder": float(np.abs(ladder - dense).max()),
                          "p": abs(p - p_dense) / p_dense}))
    """)
    assert out.pop("calls") == {"band SVD": 3, "Gram band": 1}
    assert out["ladder"] <= 1e-12 and out["p"] <= 1e-12


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
