"""Align one matrix sequence onto another with a unitary pair built from
sorted singular value decompositions.

When two sequences share a singular value distribution, sorting both SVDs
and chaining the factors gives unitaries U, V with B ~ U A V up to a misfit
whose p value reflects only the singular value mismatch at finite n: the
misfit's singular values are |sigma_i(B) - sigma_i(A)|, and `residual_p` is
read from them.  A self-embedding therefore prints exactly 0.
"""

import numpy as np

from glt_lab import TrigPoly, circulant_seq, group_embed, toeplitz_seq

shift = TrigPoly.from_coeff_map({1: 1})
circ = circulant_seq(shift)
toep = toeplitz_seq(shift)

print("embedding the unitary cycle onto the nilpotent shift:")
print("(their singular values differ in exactly one place: 1 vs 0)")
for n in (16, 32, 64, 128, 256):
    pair = group_embed(circ, toep, n)
    uni = max(
        np.abs(pair.u.conj().T @ pair.u - np.eye(n)).max(),
        np.abs(pair.v.conj().T @ pair.v - np.eye(n)).max(),
    )
    print(f"  n={n:4d}  misfit p = {pair.residual_p:.6f}  (1/n = {1 / n:.6f}, "
          f"unitarity residual {uni:.1e})")

pair = group_embed(toep, toep, 48)
print(f"\nself-embedding cancels exactly: p = {pair.residual_p:.2e}")
