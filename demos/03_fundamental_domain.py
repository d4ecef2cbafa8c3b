"""Reducing points of hyperbolic 4-space into the fundamental domain,
and sampling the four-fold tiling of the cusp box.

Run:  python demos/03_fundamental_domain.py
"""

import random

from h4hecke.geometry import (
    PointH4,
    act,
    is_in_region,
    is_integral_sv2,
    pseudo_det,
    reduce_to_fundamental_domain,
    verify_cusp_decomposition,
    word_to_matrix,
)

print("== reduction into F = {|x0| <= 1/2, 0 <= x1, x2 <= 1/2, |z| >= 1} ==")
samples = [
    (0.0, 0.0, 0.0, 0.5),
    (0.7, 0.3, 0.2, 5.0),
    (2.3, -1.7, 0.4, 0.08),
    (-0.49, 0.01, -0.27, 0.11),
]
for z in samples:
    word, reduced = reduce_to_fundamental_domain(z)
    tokens = [t[0] if len(t) == 1 else f"translate{t[1]}" for t in word]
    print(f"z = {z}")
    print(f"  word    = [{', '.join(tokens)}]  ({len(word)} steps)")
    print(f"  reduced = ({reduced.x0:+.6f}, {reduced.x1:+.6f}, {reduced.x2:+.6f}, {reduced.y:.6f})")
    g = word_to_matrix(word)
    print(f"  word matrix integral with pseudo-determinant 1: {is_integral_sv2(g)}")
    if word:
        moved = act(g, z)
        err = max(abs(a - b) for a, b in zip(moved.as_tuple(), reduced.as_tuple()))
        print(f"  matrix action reproduces the reduced point to {err:.2e}")
    print()

print("== random soundness check ==")
rng = random.Random(0)
worst_err = 0.0
for _ in range(500):
    z = PointH4(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.05, 50))
    word, reduced = reduce_to_fundamental_domain(z)
    assert is_in_region(reduced, "F")
    g = word_to_matrix(word)
    assert is_integral_sv2(g) and pseudo_det(g) == 1
    if word:
        moved = act(g, z)
        worst_err = max(worst_err, max(abs(a - b) for a, b in zip(moved.as_tuple(), reduced.as_tuple())))
print(f"500 random points reduced; worst matrix-vs-reduction discrepancy {worst_err:.2e}")

print()
print("== the cusp box tiles into four rotated copies of S_T ==")
report = verify_cusp_decomposition(2.0, 2000, seed=1)
print(f"T = {report.T}: {report.interior_checked} interior samples, "
      f"{report.boundary_ties} boundary ties")
for name, count in report.matches_by_matrix.items():
    print(f"  {name:9s} claimed {count} samples")
