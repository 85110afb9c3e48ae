"""The low-rank-plus-small-norm functional p and the pseudometric it induces.

p(A) trades singular value mass against rank: it is the best achievable
value of rank(R)/n + |N| over splittings A = R + N.  Sequences whose
difference has vanishing p are interchangeable for distribution purposes.
"""

import numpy as np

from glt_lab import (
    TrigPoly,
    acs_distance,
    acs_equivalent,
    circulant_seq,
    counterexample_seq,
    glt_product_seq,
    lt_seq,
    optimal_split,
    parse_expr,
    toeplitz_seq,
)
from glt_lab.symbols import GltExpr

two_cos = TrigPoly.from_coeff_map({1: 1, -1: 1})
x = parse_expr("x", "a")

E = counterexample_seq("scaled_cycle")(3)
split = optimal_split(E)
print("scaled cycle at n=3 has singular values (9, 1/3, 1/3)")
print(f"  optimal split keeps {split.split_index - 1} triplet(s): p = {split.p_value:.4f}")
print(f"  norm part spectral norm = {np.linalg.svd(split.norm_part, compute_uv=False)[0]:.4f}")

sizes = (16, 64, 256, 1024)
est = acs_distance(toeplitz_seq(two_cos), circulant_seq(two_cos), sizes)
print("\nToeplitz vs circulant of 2cos(theta): corner rank 2 forces p <= 2/n")
for n, p in zip(est.sizes, est.p_values):
    print(f"  n={n:5d}  p = {p:.6f}   2/n = {2 / n:.6f}")
print(f"  trailing-half estimate of the pseudodistance: {est.rho_estimate:.6f}")

expr = GltExpr(((x, two_cos),))
verdict, est2 = acs_equivalent(glt_product_seq(expr), lt_seq(x, two_cos), sizes, tol=0.5)
print("\nD(x) T(2cos) vs its locally Toeplitz surrogate:")
for n, p in zip(est2.sizes, est2.p_values):
    m = int(np.sqrt(n))
    bound = (2 * m + (n - m * m)) / n + 6.0 / m
    print(f"  n={n:5d}  p = {p:.4f}   rank+norm bound = {bound:.4f}")
print("  acs-equivalent verdict:", "PASS" if verdict else "FAIL")
