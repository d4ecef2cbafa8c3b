"""Lattice sums, the exact index-shift identity, amplification
bookkeeping, and the dyadic prime partition.

Run:  python demos/05_cusp_sums_and_amplification.py
"""

import random
from fractions import Fraction

from h4hecke.hecke import CoefficientField, EigenvalueTriple
from h4hecke.sums import (
    MultiplicitySpec,
    PrimeWindow,
    amplified_sum,
    choose_parameters,
    inequality_report,
    lambda3_lower_bound_sq,
    partition_primes,
    split_sharp_flat,
    sum_R,
    sum_S_d,
    verify_R_shift_identity,
)

print("== basic sums on the constant-1 field over the norm-9 ball ==")
A = CoefficientField.ones_ball(9)
print(f"S(9)   = {sum_S_d(A, 1, 9)!s}   (122 nonzero lattice points)")
print(f"S_3(9) = {sum_S_d(A, 3, 9)!s}   (the six unit multiples of 3)")

print()
print("== the index-shift identity for R, exactly ==")
rng = random.Random(1)
field = CoefficientField.random(rng, support=6, coord_bound=4)
for p, ell, d, z in ((3, 1, 1, 2000), (3, 2, 2, 20000), (5, 1, 3, 30000)):
    lhs = sum_R(field, p, ell, d * p ** ell, z)
    verify_R_shift_identity(field, p, ell, d, z)
    print(f"R^({p},{ell})_{d * p ** ell}({z}) = R^({p},0)_{d}({Fraction(z, p ** (2 * ell))}) "
          f"= {lhs!s} (exact)")

print()
print("== sharp/flat split over a prime window ==")
window = PrimeWindow.from_bound(6.0)  # the primes 3 and 5
big = CoefficientField.ones_ball(250)
spec = MultiplicitySpec(1, 0, window)  # sharp part: beta divisible by no window prime
split = split_sharp_flat(big, [spec], 225)
print(f"window {window.primes}: S = {split.total!s}, S_sharp = {split.sharp!s}, "
      f"S_flat = {split.flats[0]!s} (sum checks: {split.sharp + split.flats[0] == split.total})")

print()
print("== amplified sums and the cutoff selection ==")
lam = {p: EigenvalueTriple.from_lam12(p, 0.6, 0.4) for p in window.primes}
amp = amplified_sum(big, window, lam, 1, [MultiplicitySpec(1, 1, window)], 225)
print(f"amplifier mass with |lambda_1|^2 weights: {amp:.3f}")
w32 = PrimeWindow.from_bound(32.0)
K = choose_parameters(1.0, w32, 1.0, 1, 0.125)
print(f"window [16, 32] holds {w32.primes}; K_1 = {K}")

print()
print("== two-sided inequality reports (informational ratios) ==")
lam3 = EigenvalueTriple(3, 1.0, 0.5, 0.0)
for which, kw in (
    ("L6.3i", dict(p=3, d=1, lam=lam3)),
    ("L6.3iii", dict(p=3, c=1, k=1, ell=1)),
    ("L6.4a", dict(window=window, K=2)),
):
    rep = inequality_report(which, A=CoefficientField.ones_ball(81), z=81, **kw)
    ratio = "vacuous" if rep.ratio is None else f"{rep.ratio:.4f}"
    print(f"  {rep.name:8s} left {rep.left:10.3f}  right {rep.right:12.3f}  ratio {ratio}")

print()
print("== dyadic eigenvalue partition of the prime window at y = 2^40 ==")
table = {p: EigenvalueTriple.from_lam12(p, 0.05 * p / 17, 0.1) for p in w32.primes}
part = partition_primes(table, 2.0 ** 40)
print(f"P = {part.P:.4g}, J = {part.J}, |Q| = {len(part.Q)}")
for key, cell in sorted(part.cells.items()):
    print(f"  cell {key}: {cell}")
print(f"largest cell {part.best} (away from (0,0,0): {part.best_is_nonzero})")

print()
print("== relation-forced eigenvalue lower bound ==")
for p in (3, 11, 97):
    print(f"  p = {p:3d}: |lambda_3|^2 >= {float(lambda3_lower_bound_sq(p)):.4f} "
          f"whenever |lambda_1|^2, |lambda_2|^2 <= 1/100")
