"""Four sequences that mark the limits of distributional calculus.

- alternating +-identity: has a singular value symbol but adding I destroys
  it, so no normal form can exist;
- half shift: nilpotent with symbol chi_[0,1/2], yet A^2 = 0 rules out any
  equivalent normal sequence;
- scaled cycle: zero-distributed, but a continuous fixed-point function
  breaks the push-through of functionals;
- Jordan-type shift: all the polynomial singular value tests pass for
  exp(i theta), while every eigenvalue is 0.
"""

import numpy as np

from glt_lab import (
    counterexample_seq,
    eigenvalues,
    p_metric,
    singular_values,
    zero_distributed_test,
)

alt = counterexample_seq("alt_identity")
print("alternating identity: eigenvalue means flip with the parity of n")
for n in (64, 65):
    lam = eigenvalues(alt(n))
    print(f"  n={n:3d}: mean eigenvalue = {lam.mean().real:+.1f}")

hs = counterexample_seq("half_shift")
A = hs(64)
sv = singular_values(A)
print("\nhalf shift at n=64: half the singular values are 1, half are 0")
print(f"  ones: {int(np.sum(sv > 0.5))}, zeros: {int(np.sum(sv < 0.5))}, "
      f"|A^2| = {np.abs(A @ A).max()}")

sc = counterexample_seq("scaled_cycle")
verdict, table = zero_distributed_test(sc, (8, 16, 32, 64))
print("\nscaled cycle: zero-distributed verdict:", "PASS" if verdict else "FAIL")
for n in (8, 16, 32, 64):
    print(f"  n={n:3d}: p = {p_metric(sc(n)):.5f}  (2/n = {2 / n:.5f})")
E = sc(12)
lam, S = np.linalg.eig(E)
fE = S @ np.diag(lam + 1 - np.abs(lam) ** 2) @ np.linalg.inv(S)
print("  f(t) = t + 1 - |t|^2 fixes the matrix:",
      f"|f(E) - E| = {np.abs(fE - E).max():.2e}",
      "yet f(0) = 1, so the functional limit jumps")

j = counterexample_seq("jordan_shift")
lam = eigenvalues(j(64))
sv = singular_values(j(64))
print("\nJordan-type shift at n=64:")
print(f"  max |eigenvalue| = {np.abs(lam).max()}, singular values in [{sv.min()}, {sv.max()}]")
print("  the singular value data mimics exp(i theta); the spectrum is identically 0")
