"""The recursion-to-decay lemma with explicit constants, and the
floating-point spectral layer: K-Bessel kernels, fixed-height Parseval,
cusp mass, and the finite-difference mode check.

Run:  python demos/06_decay_and_spectral_numerics.py
"""

import math

from h4hecke.asymptotics import (
    DecayParams,
    check_decay_conclusion,
    check_recursive_hypothesis,
    compute_R,
    power_law_function,
)
from h4hecke.numerics import (
    SpectralForm,
    bessel_k_imag_order,
    cusp_sum_I,
    direct_cusp_integral,
    evaluate_form,
    laplace_eigen_residual,
    parseval_check,
)

print("== the smallest admissible recursion exponent R ==")
for A, M, eps in ((10, 0, 0.5), (10, 3, 0.01), (12, 2, 0.1)):
    print(f"  A={A:3d} M={M} eps={eps:5.2f}:  R = {compute_R(A, M, eps)}")

print()
print("== hypothesis -> decay, end to end ==")
params = DecayParams(delta=0.125, eps=0.25, A=10.0)
R = compute_R(params.A, params.M, params.eps)
f = power_law_function(0.125, log_power=2.0, scale=3.0, y_max=math.exp(24))
hyp = check_recursive_hypothesis(f, params)
conclusion = check_decay_conclusion(f, R, params.delta)
print(f"synthetic f: hypothesis passed = {hyp.passed} (worst margin {hyp.worst_margin:.3f})")
print(f"decay envelope C (1+log y)^{R} / y^{params.delta}: minimal C = {conclusion.minimal_C:.4f}")

print()
print("== the radial kernel: K of imaginary order ==")
for r, x in ((0.0, 1.0), (1.0, 2 * math.pi), (5.0, 3.0)):
    print(f"  K_(i{r})({x:.4f}) = {bessel_k_imag_order(r, x):.12e}")

print()
print("== a three-coefficient mode ==")
form = SpectralForm.from_dict(1.0, {(1, 0, 0): 1 + 0.5j, (0, 1, 0): -0.3 + 1j, (1, 1, 0): 0.7j})
z = (0.12, 0.3, -0.25, 0.8)
print(f"phi(z) at z = {z}: {evaluate_form(form, z):.6e}")

print()
print("== fixed-height Parseval over the period box ==")
for y in (0.5, 1.0, 2.0):
    rep = parseval_check(form, y)
    print(f"  y = {y}: box integral {rep.box_integral:.6e} vs coefficient sum "
          f"{rep.coefficient_sum:.6e} (relative error {rep.rel_error:.1e})")

print()
print("== cusp mass above height T, two independent routes ==")
T = 1.5
coeff_side = cusp_sum_I(form, T)
direct = direct_cusp_integral(form, T)
print(f"coefficient side: {coeff_side:.9e}")
print(f"direct 4-d quad:  {direct:.9e}   (relative difference "
      f"{abs(coeff_side - direct) / coeff_side:.2e})")

print()
print("== finite-difference check of the mode equation ==")
point = (0.1, 0.2, 0.3, 0.3)
for beta, r in (((1, 0, 0), 1.0), ((1, 1, 0), 0.0)):
    residuals = [laplace_eigen_residual(beta, r, point, h) for h in (1e-2, 5e-3, 2.5e-3, 1e-3)]
    orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    print(f"  beta={beta} r={r}: residual(h=1e-3) = {residuals[-1]:.2e}, "
          f"orders across h-halvings: {['%.2f' % o for o in orders[:2]]}")
