"""Build every structured matrix family and check their exact relations.

Circulants are normal and diagonalized by the Fourier matrix; they agree
with the Toeplitz matrix of the same symbol except in O(degree^2) wrapped
corner entries.  The locally circulant operator glues scaled circulant
blocks and is conjugate, via a fixed block-Fourier unitary, to a diagonal
sampling of the separable symbol a(x) f(theta).
"""

import numpy as np

from glt_lab import (
    TrigPoly,
    circulant_seq,
    circulant_spectrum,
    d_af,
    fourier_matrix,
    lc_seq,
    lt_seq,
    parse_expr,
    q_block,
    toeplitz_seq,
)

two_cos = TrigPoly.from_coeff_map({1: 1, -1: 1})
shift = TrigPoly.from_coeff_map({1: 1})
a = parse_expr("x", "a")
Tseq, Cseq = toeplitz_seq(two_cos), circulant_seq(two_cos)

print("Toeplitz of 2cos(theta), n=5 (tridiagonal):")
print(Tseq(5).real)
print("\nCirculant of the same symbol wraps the band into the corners:")
print(Cseq(5).real)

n = 8
F = fourier_matrix(n)
C = Cseq(n)
D = circulant_spectrum(two_cos, n)
print("\nFourier diagonalization residual |F^H D F - C|:",
      f"{np.abs(F.conj().T @ D @ F - C).max():.2e}")
print("eigenvalue samples f(2 pi k/n):", np.round(np.diag(D).real, 4))

diff = Tseq(32) - Cseq(32)
s = np.linalg.svd(diff, compute_uv=False)
print("\nrank(T - C) at n=32:", int(np.count_nonzero(s > 1e-10 * s[0])),
      "(bound 2*degree^2 = 2)")

n = 36
LT = lt_seq(a, two_cos)(n)
LC = lc_seq(a, two_cos)(n)
print(f"\nlocally Toeplitz vs locally circulant at n={n}:",
      f"rank of difference = {np.count_nonzero(np.linalg.svd(LT - LC, compute_uv=False) > 1e-10)}")
norm_res = np.linalg.norm(LC.conj().T @ LC - LC @ LC.conj().T, "fro")
print("LC normality residual:", f"{norm_res:.2e}")

Q = q_block(n)
Dn = d_af(a, two_cos, n)
print("block-Fourier conjugation residual |LC - Q^H D Q|:",
      f"{np.abs(LC - Q.conj().T @ Dn @ Q).max():.2e}")
print("diagonal factor samples a(i/m) f(2 pi j/block); first block:",
      np.round(np.diag(Dn)[:6].real, 4))
