"""Seeded `glt-lab run` configs, one per benchmark workload.

The seed draws only symbol coefficients.  Experiment kinds, ladder sizes,
trig degrees and term counts are fixed per workload, so the cost of a run
does not depend on the seed.  Coefficients are drawn away from zero, so
`trig_poly_from_expr` never trims a degree and every band keeps its width.
"""

from __future__ import annotations

import random

WORKLOADS = ("spectral-ladder", "acs-normal-form", "small-sweep")

SHIFTS = "0, 1, -1, 0.5i, -0.5i, 0.5+0.5i, 2, -2, 1.5i, -1+1i"


class _Coeffs:
    """Coefficient literals in the expression grammar (plain decimals)."""

    def __init__(self, workload: str, seed: int):
        self._rng = random.Random(f"{workload}:{seed}")

    def c(self, lo: float = 0.75, hi: float = 1.25) -> str:
        return f"{self._rng.uniform(lo, hi):.4f}"

    def f(self) -> str:
        """Degree-2 trig polynomial with a non-Hermitian sine part."""
        return f"{self.c()} + {self.c()}*cos(theta) + {self.c(0.3, 0.6)}*i*sin(2*theta)"

    def f_real(self) -> str:
        """Degree-2 real cosine polynomial: Toeplitz matrices are Hermitian."""
        return f"{self.c()} + {self.c()}*cos(theta) + {self.c(0.3, 0.6)}*cos(2*theta)"

    def a(self) -> str:
        return f"{self.c()} + {self.c()}*x^2"

    def a_exp(self) -> str:
        return f"exp({self.c(0.3, 0.6)}*x)"


def _section(title: str, /, **keys) -> str:
    lines = [f"[{title}]"] + [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def _touch(r: _Coeffs, *kinds) -> list:
    """Tiny experiments (n <= 256) that call the traced layers a workload
    would otherwise skip, so that no per-layer time reads exactly zero on
    every run.  They cost milliseconds."""
    a, f, fr = r.a(), r.f(), r.f_real()
    sections = {
        "normal-form": _section("touch_normal_form", kind="normal-form", terms=f"{a} | {f}",
                                sizes="144, 256"),
        "lt": _section("touch_lt", kind="symbol-check", sequence=f"lt({a} | {f})",
                       symbol=f"({a})*({f})", mode="sv", sizes="16, 36"),
        "embed": _section("touch_embed", kind="embed", sequence_a=f"circulant({f})",
                          sequence_b=f"toeplitz({f})", sizes="16, 32"),
        "shift-test": _section("touch_shift", kind="shift-test", sequence=f"circulant({f})",
                               symbol=f, shifts="0, 1", sizes="16, 32"),
        "hermitian-fn": _section("touch_hermitian", kind="hermitian-fn",
                                 sequence=f"toeplitz({fr})", function="t^2", sizes="16, 32"),
    }
    return [sections[k] for k in kinds]


def _spectral_ladder(r: _Coeffs) -> list:
    f1, f2, f3, f4, f5 = r.f(), r.f(), r.f(), r.f(), r.f()
    a2, a3, a4, a5 = r.a(), r.a(), r.a_exp(), r.a()
    return [
        _section("sv_lt", kind="symbol-check", sequence=f"lt({a2} | {f2})",
                 symbol=f"({a2})*({f2})", mode="sv", sizes="256, 1024, 1600"),
        _section("sv_glt", kind="symbol-check", sequence=f"glt({a3} | {f3} ; {a4} | {f4})",
                 symbol=f"({a3})*({f3}) + ({a4})*({f4})", mode="sv", sizes="256, 512, 1024"),
        _section("sv_toeplitz", kind="symbol-check", sequence=f"toeplitz({f1})",
                 symbol=f1, mode="sv", sizes="128, 256, 512"),
        # eig mode only on normal sequences: their eigenvalues are well
        # conditioned, so verdicts do not move with the BLAS thread count
        _section("eig_lc", kind="symbol-check", sequence=f"lc({a5} | {f5})",
                 symbol=f"({a5})*({f5})", mode="eig", sizes="256, 576, 1024"),
        _section("eig_circulant", kind="symbol-check", sequence=f"circulant({f1})",
                 symbol=f1, mode="eig", sizes="128, 256, 512"),
    ] + _touch(r, "normal-form", "embed", "shift-test", "hermitian-fn")


def _acs_normal_form(r: _Coeffs) -> list:
    a1, f1, a2, f2 = r.a(), r.f(), r.a_exp(), r.f()
    a3, f3 = r.a(), r.f()
    f4 = r.f()
    return [
        _section("normal_form", kind="normal-form", terms=f"{a1} | {f1} ; {a2} | {f2}",
                 sizes="256, 576, 1600"),
        _section("acs_glt_lc", kind="acs", sequence_a=f"glt({a3} | {f3})",
                 sequence_b=f"lc({a3} | {f3})", sizes="256, 576, 1024"),
        _section("acs_toeplitz_circulant", kind="acs", sequence_a=f"toeplitz({f4})",
                 sequence_b=f"circulant({f4})", sizes="256, 512, 1024"),
    ] + _touch(r, "lt", "embed", "shift-test", "hermitian-fn")


def _small_sweep(r: _Coeffs) -> list:
    sections = []
    for k in range(4):
        fr = r.f_real()
        sections.append(_section(f"hermitian_{k}", kind="hermitian-fn", sequence=f"toeplitz({fr})",
                                 function="t^2", sizes="32, 64, 128"))
        fs = r.f()
        sections.append(_section(f"shift_toeplitz_{k}", kind="shift-test", sequence=f"toeplitz({fs})",
                                 symbol=fs, shifts=SHIFTS, sizes="32, 64, 128",
                                 grid="64x1024"))
        fc = r.f()
        sections.append(_section(f"shift_circulant_{k}", kind="shift-test", sequence=f"circulant({fc})",
                                 symbol=fc, shifts=SHIFTS, sizes="32, 64, 128",
                                 grid="64x1024"))
        a, f = r.a(), r.f()
        sections.append(_section(f"fine_glt_{k}", kind="symbol-check", sequence=f"glt({a} | {f})",
                                 symbol=f"({a})*({f})", mode="sv", sizes="32, 64, 128",
                                 grid="128x1024"))
        ft = r.f()
        sections.append(_section(f"fine_toeplitz_{k}", kind="symbol-check", sequence=f"toeplitz({ft})",
                                 symbol=ft, mode="sv", sizes="32, 64, 128", grid="64x2048"))
        a, f = r.a(), r.f()
        sections.append(_section(f"acs_glt_lc_{k}", kind="acs", sequence_a=f"glt({a} | {f})",
                                 sequence_b=f"lc({a} | {f})", sizes="36, 64, 100, 121"))
        fe = r.f()
        sections.append(_section(f"embed_{k}", kind="embed", sequence_a=f"circulant({fe})",
                                 sequence_b=f"toeplitz({fe})", sizes="32, 64, 128"))
    for name in ("alt_identity", "half_shift", "scaled_cycle", "jordan_shift"):
        sections.append(_section(f"demo_{name}", kind="counterexample", name=name))
    return sections + _touch(r, "normal-form", "lt")


_GENERATORS = {
    "spectral-ladder": _spectral_ladder,
    "acs-normal-form": _acs_normal_form,
    "small-sweep": _small_sweep,
}


def make_config(workload: str, seed: int, output: str) -> str:
    """INI text of the workload's config; `output` is the report path."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    head = f"[global]\nseed = {seed}\noutput = {output}\n"
    return "\n".join([head] + _GENERATORS[workload](_Coeffs(workload, seed)))
