"""The normal form pipeline: replace a diagonal-times-Toeplitz sum by a
normal sequence Q^H D Q with the same asymptotic distribution.

The unitary Q is a fixed block-Fourier matrix independent of the symbol,
and the diagonal D samples the symbol a(x) f(theta) on a regular grid, so
its eigenvalue distribution converges to the symbol's distribution.
"""

import numpy as np

from glt_lab import TrigPoly, normal_form, parse_expr, sort_perm, verify_normal_form
from glt_lab.symbols import GltExpr

x = parse_expr("x", "a")
two_cos = TrigPoly.from_coeff_map({1: 1, -1: 1})
expr = GltExpr(((x, two_cos),))

nf = normal_form(expr, 36)
A = nf.matrix()
print("normal form at n=36:")
print("  normality residual:", f"{np.linalg.norm(A.conj().T @ A - A @ A.conj().T, 'fro'):.2e}")
lam = np.sort(np.linalg.eigvals(A).real)
diag = np.sort(nf.diagonal().real)
print("  eigenvalues match the diagonal factor:", f"{np.abs(lam - diag).max():.2e}")

P = sort_perm(np.diag(nf.diagonal().real))
sorted_diag = np.diag(P @ np.diag(nf.diagonal().real) @ P.T)
print("  sorting permutation yields nondecreasing samples:",
      bool(np.all(np.diff(sorted_diag) >= 0)))

sizes = (64, 256, 1024)
report = verify_normal_form(expr, sizes)
print(f"\nladder check for the symbol x * 2cos(theta) on {sizes}:")
print("  p(generating sum - normal form):",
      [f"{p:.4f}" for p in report.acs_p_values], "->", "PASS" if report.acs_pass else "FAIL")
print("  eigenvalue residual of the diagonal factor vs the symbol:")
for n, worst, tol in zip(sizes, report.eig_table.max_per_size(), report.eig_table.bounds):
    print(f"    n={n:5d}  residual = {worst:.5f}  tolerance = {tol:.5f}")
print("  distribution verdict:", "PASS" if report.eig_pass else "FAIL")
