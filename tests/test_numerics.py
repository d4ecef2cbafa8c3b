import cmath
import math
import random
import sys

import mpmath as mp
import numpy as np
import pytest

from h4hecke.geometry import PointH4
from h4hecke.numerics import (
    MAX_SPECTRAL_R,
    SpectralForm,
    bessel_k_imag_order,
    cusp_sum_I,
    direct_cusp_integral,
    evaluate_form,
    laplace_eigen_residual,
    parseval_check,
)
from h4hecke.numerics import _amplitudes, _box_integral, _gram


def mp_bessel(r, x):
    return float(mp.besselk(1j * r, x).real)


def mp_bessel_scale(r, x):
    """K_{ir}(x) and the size to hold an error against, from mpmath at 40 digits: |K|, or where x < r
    and K oscillates, the larger of |K| and the envelope sqrt(K^2 + x^2 K'^2 / (r^2 - x^2)), so that
    near a zero of K the error is relative to the size of K around it."""
    with mp.workdps(40):
        k = mp.besselk(1j * r, x).real
        if x >= r:
            return float(k), abs(float(k))
        dk = -(mp.besselk(1j * r - 1, x) + mp.besselk(1j * r + 1, x)).real / 2  # K'_nu = -(K_{nu-1} + K_{nu+1})/2
        return float(k), max(abs(float(k)), float(mp.sqrt(k ** 2 + (x * dk) ** 2 / (r * r - x * x))))


def _kernel_grid():
    """(r, x) points: the six of the spectral layer's accuracy table, x = 345 and 700, a product grid
    of small r and x, and 40 seeded points with r in [0, 60] and x log-uniform in [0.05, 200]."""
    points = [(1.0, 20.0), (1.0, 60.0), (20.0, 0.5), (20.0, 2 * math.pi), (20.0, 20.0), (200.0, 2 * math.pi),
              (0.0, 345.0), (1.0, 345.0), (60.0, 345.0), (200.0, 345.0), (5.0, 700.0)]
    points += [(r, x) for r in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0) for x in (0.1, 0.7, 1.0, 3.0, 5.0, 6.0, 12.0, 20.0)]
    rng = random.Random(31)
    points += [(60 * rng.random(), math.exp(rng.uniform(math.log(0.05), math.log(200)))) for _ in range(40)]
    return points


def grid_box_integral(form, y, nodes):
    """Reference box rule: W |phi|^2 summed over the whole nodes^3 tensor Gauss-Legendre grid at height y.

    This is how the spectral layer took the box integral at each height
    before the mode Gram matrix; the phase is written out here, not taken
    from the library.
    """
    pts, wts = np.polynomial.legendre.leggauss(nodes)
    pts = 0.5 * pts  # [-1/2, 1/2]
    wts = 0.5 * wts
    X0, X1, X2 = np.meshgrid(pts, pts, pts, indexing="ij")
    W = wts[:, None, None] * wts[None, :, None] * wts[None, None, :]
    phi = np.zeros_like(X0, dtype=complex)
    for beta, coeff in form.entries:
        k = bessel_k_imag_order(form.r, 2 * math.pi * math.sqrt(sum(b * b for b in beta)) * y)
        radial = k * y ** 1.5 if k else 0.0
        phi += coeff * radial * np.exp(2j * math.pi * (beta[0] * X0 - beta[1] * X1 - beta[2] * X2))
    return float(np.sum(W * np.abs(phi) ** 2))


def mp_cusp_mass(form, T, nodes=16):
    """sum_beta |A(beta)|^2 integral_{T sqrt N(beta)}^oo K_{ir}(2 pi y)^2 dy/y with mpmath's K_{ir},
    by Gauss-Laguerre in u = 4 pi (y - T sqrt N(beta)), which takes out the decay exp(-4 pi y)."""
    u, w = np.polynomial.laguerre.laggauss(nodes)
    total = 0.0
    with mp.workdps(20):
        for beta, coeff in form.entries:
            a = T * math.sqrt(sum(b * b for b in beta))
            ys = a + u / (4 * math.pi)
            mass = sum(wi * math.exp(ui) * mp_bessel(form.r, 2 * math.pi * y) ** 2 / y for ui, wi, y in zip(u, w, ys))
            total += abs(coeff) ** 2 * mass / (4 * math.pi)
    return total


class TestBessel:
    def test_classical_K0(self):
        assert bessel_k_imag_order(0.0, 1.0) == pytest.approx(0.4210244382407083, rel=1e-14)

    def test_against_reference_values(self):
        # an absolute 1e-10 once passed here while the error reached 0.19 relative at (1, 60), 370 at
        # (20, 20) and 1e125 at (200, 2 pi): |K| ~ e^(-pi r/2) falls below any absolute bound
        for r, x in _kernel_grid():
            ref, scale = mp_bessel_scale(r, x)
            assert abs(bessel_k_imag_order(r, x) - ref) <= 1e-12 * scale, (r, x)

    @pytest.mark.parametrize("x", [5e-324, 1e-310, 1.7e308])
    @pytest.mark.parametrize("r", [0.0, 1.0, MAX_SPECTRAL_R])
    def test_extreme_arguments(self, r, x, time_limit):
        # below x of about 2e-307 the cut of the old quadrature was inf: at r = 0 it bisected without
        # end, and at r = 1 it raised a math domain error.  K_500 is 0 in doubles at all three x.
        with time_limit(5):
            value = bessel_k_imag_order(r, x)
        ref, scale = mp_bessel_scale(r, x)
        assert math.isfinite(value) and abs(value - ref) <= 1e-12 * scale, (value, ref)

    def test_monotone_decay_in_x(self):
        for r in (0.0, 1.0, 5.0):
            assert bessel_k_imag_order(r, 2.0) < bessel_k_imag_order(r, 1.0)

    def test_even_in_r(self):
        assert bessel_k_imag_order(1.5, 2.0) == bessel_k_imag_order(-1.5, 2.0)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_k_imag_order(1.0, 0.0)


# The first odd Maass cusp form on SL2(Z): its spectral parameter (D. A. Hejhal, IMA Vol. 109, 1999;
# H. Then, Math. Comp. 74, 2005; Booker, Strombergsson & Venkatesh, IMRN 2006).
FIRST_ODD_SL2Z_R = 9.53369526135355755434


def _sl2z_pullback(x, y):
    """x + iy moved into the SL2(Z) fundamental domain |x| <= 1/2, |z| >= 1 by x -> x + n and z -> -1/z."""
    while True:
        x -= math.floor(x + 0.5)
        norm = x * x + y * y
        if norm >= 1:
            return x, y
        x, y = -x / norm, y / norm


def _hejhal_coefficients(r, height, terms=22, points=60):
    """c(1..terms) of an odd form sum_n c(n) sqrt(y) K_ir(2 pi n y) sin(2 pi n x) on SL2(Z) with c(1) = 1,
    from Hejhal's collocation at one height: the sine coefficients of phi at the points
    x_m = (m - 1/2) / (2 points), m = 1..points, of the line y = height, where phi is read at each
    point's pullback into the fundamental domain."""
    n = np.arange(1, terms + 1)
    xs = (np.arange(1, points + 1) - 0.5) / (2 * points)
    stars = [_sl2z_pullback(x, height) for x in xs]
    # column k: the k-th term of phi at each pullback
    pulled = np.array([[math.sqrt(y) * bessel_k_imag_order(r, 2 * math.pi * k * y) * math.sin(2 * math.pi * k * x)
                        for k in n] for x, y in stars])
    direct = np.array([math.sqrt(height) * bessel_k_imag_order(r, 2 * math.pi * k * height) for k in n])
    system = np.diag(direct) - (2 / points) * np.sin(2 * math.pi * np.outer(n, xs)) @ pulled
    rest = np.linalg.solve(system[1:, 1:], -system[1:, 0])
    return np.concatenate(([1.0], rest))


class TestHejhalRehearsal:
    def test_first_odd_sl2z_form(self):
        # the kernel at scale, against a published eigenvalue rather than mpmath: c(2) read at two
        # heights agrees only at an eigenvalue, so a secant on the difference finds r; the solve does
        # not impose the Hecke relations, so they check the coefficients independently
        def gap(r):
            return _hejhal_coefficients(r, 0.48)[1] - _hejhal_coefficients(r, 0.43)[1]

        r0, r1 = 9.5, 9.55
        g0, g1 = gap(r0), gap(r1)
        for _ in range(30):
            r0, r1, g0 = r1, r1 - g1 * (r1 - r0) / (g1 - g0), g1
            if abs(r1 - r0) < 1e-13:
                break
            g1 = gap(r1)
        assert abs(r1 - FIRST_ODD_SL2Z_R) < 1e-10, r1
        c = _hejhal_coefficients(r1, 0.48)
        assert abs(c[1] * c[2] - c[5]) < 1e-10 and abs(c[1] ** 2 - 1 - c[3]) < 1e-10, c[:6]


class TestEvaluateForm:
    def test_empty_form_is_zero(self):
        form = SpectralForm(r=1.0, entries=())
        assert evaluate_form(form, (0.1, 0.2, 0.3, 1.0)) == 0

    def test_single_term_reduces_to_bessel(self):
        form = SpectralForm.from_dict(1.0, {(1, 0, 0): 1.0 + 0j})
        value = evaluate_form(form, (0.0, 0.0, 0.0, 1.0))
        assert value.real == pytest.approx(bessel_k_imag_order(1.0, 2 * math.pi), rel=1e-12)
        assert value.imag == pytest.approx(0.0, abs=1e-15)

    def test_large_r_against_mpmath(self):
        # at r = 20, |K| ~ e^(-10 pi) ~ 2e-14, under the old kernel's absolute tolerance 1e-12; Parseval
        # passed there only because both of its sides took the same wrong K
        form = SpectralForm.from_dict(20.0, {(1, 0, 0): 1.0, (1, 1, 0): 0.5 - 2j, (2, 1, 1): -0.7j})
        for z in ((0.1, 0.2, 0.3, 0.3), (0.4, -0.1, 0.25, 0.8), (0.0, 0.0, 0.0, 2.5)):
            with mp.workdps(40):
                radial = [mp_bessel(20.0, 2 * math.pi * math.sqrt(sum(b * b for b in beta)) * z[3])
                          for beta, _ in form.entries]
            terms = [coeff * z[3] ** 1.5 * k * cmath.exp(2j * math.pi * (b0 * z[0] - b1 * z[1] - b2 * z[2]))
                     for ((b0, b1, b2), coeff), k in zip(form.entries, radial)]
            assert abs(evaluate_form(form, z) - sum(terms)) <= 1e-12 * sum(map(abs, terms)), z
            report = parseval_check(form, z[3])
            assert report.coefficient_sum == pytest.approx(sum(abs(t) ** 2 for t in terms), rel=1e-12)
            assert report.rel_error < 1e-12

    def test_periodicity(self):
        form = SpectralForm.from_dict(1.0, {(1, 0, 0): 0.3 + 1j, (1, 1, 0): -2.0 + 0j})
        z0 = (0.12, 0.34, -0.4, 0.8)
        z1 = (1.12, 0.34, -0.4, 0.8)
        assert evaluate_form(form, z0) == pytest.approx(evaluate_form(form, z1), abs=1e-15)

    def test_phase_convention(self):
        # e(Re(beta z)) = exp(2 pi i (b0 x0 - b1 x1 - b2 x2))
        form = SpectralForm.from_dict(0.0, {(0, 1, 0): 1.0 + 0j})
        x1 = 0.2
        value = evaluate_form(form, (0.0, x1, 0.0, 1.0))
        expected_phase = cmath.exp(-2j * math.pi * x1)
        radial = bessel_k_imag_order(0.0, 2 * math.pi)
        assert value == pytest.approx(radial * expected_phase, rel=1e-12)

    def test_accepts_point_object(self):
        form = SpectralForm.from_dict(0.0, {(1, 0, 0): 1.0})
        z = PointH4(0.1, 0.2, 0.3, 1.5)
        assert evaluate_form(form, z) == evaluate_form(form, z.as_tuple())

    def test_hardcoded_phase_matches_clifford_product(self):
        # Re(beta z) = b0 x0 - b1 x1 - b2 x2, checked against the exact algebra
        from fractions import Fraction
        from h4hecke.clifford import CliffordElement
        from h4hecke.numerics import _phase_re_beta_z
        rng = __import__("random").Random(6)
        for _ in range(20):
            beta = tuple(rng.randint(-3, 3) for _ in range(3))
            coords = [Fraction(rng.randint(-8, 8), 4) for _ in range(4)]
            bq = CliffordElement(3, {(): Fraction(beta[0]), (1,): Fraction(beta[1]),
                                     (2,): Fraction(beta[2])})
            zq = CliffordElement(3, {(): coords[0], (1,): coords[1],
                                     (2,): coords[2], (3,): coords[3]})
            assert (bq * zq).real_part == _phase_re_beta_z(beta, *coords[:3])

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError):
            SpectralForm.from_dict(1.0, {(0, 0, 0): 1.0})

    def test_short_beta_rejected(self):
        with pytest.raises(ValueError, match="3 coordinates"):
            SpectralForm(r=1.0, entries=(((1, 0), 1.0),))

    def test_beta_past_the_double_range_rejected(self):
        # such an N(beta) once reached math.sqrt and raised OverflowError
        with pytest.raises(ValueError, match="beyond the double range"):
            SpectralForm.from_dict(1.0, {(10 ** 155, 0, 0): 1.0})
        SpectralForm.from_dict(1.0, {(10 ** 154, 0, 0): 1.0})  # N(beta) = 1e308 fits


class TestParseval:
    def test_single_coefficient(self):
        form = SpectralForm.from_dict(1.0, {(1, 0, 0): 2.0 - 1j})
        report = parseval_check(form, 1.0)
        assert report.rel_error < 1e-12

    def test_two_coefficients(self):
        form = SpectralForm.from_dict(1.0, {(1, 0, 0): 1.0, (0, 1, 0): 1.0})
        report = parseval_check(form, 1.0)
        assert report.rel_error < 1e-6

    def test_real_valued_combination(self):
        # conjugate pair at beta and -beta gives a real form, same identity
        form = SpectralForm.from_dict(0.5, {(1, 2, 0): 1 + 2j, (-1, -2, 0): 1 - 2j})
        z = (0.3, 0.1, -0.2, 0.7)
        assert abs(evaluate_form(form, z).imag) < 1e-14
        report = parseval_check(form, 0.7)
        assert report.rel_error < 1e-6

    def test_heights_and_parameters(self):
        form = SpectralForm.from_dict(0.0, {(1, 0, 0): 1.0, (1, 1, 0): 0.5j, (2, 0, 0): -0.25})
        for y in (0.5, 1.0, 2.0):
            assert parseval_check(form, y).rel_error < 1e-6

    def test_invalid_height(self):
        with pytest.raises(ValueError):
            parseval_check(SpectralForm(r=0.0, entries=()), 0.0)

    def test_refuses_zero_coefficients(self):
        form = SpectralForm.from_dict(1.0, {(1, 0, 0): 0.0})
        with pytest.raises(ValueError, match="is 0, 0 or subnormal"):
            parseval_check(form, 1.0)

    def test_refuses_subnormal_coefficient_side(self):
        # at y = 58 both sides are subnormal and differ by 6e-6 relative
        form = SpectralForm.from_dict(1.0, {(1, 0, 0): 1.0})
        with pytest.raises(ValueError, match="0 or subnormal"):
            parseval_check(form, 58.0)

    def test_error_is_relative_near_underflow(self):
        # at y = 56 the coefficient side is 2.5e-303; the error is relative
        # to it, not to a floor of 1e-300
        form = SpectralForm.from_dict(1.0, {(1, 0, 0): 1.0})
        report = parseval_check(form, 56.0)
        assert sys.float_info.min <= report.coefficient_sum < 1e-300
        assert report.rel_error == abs(report.box_integral - report.coefficient_sum) / report.coefficient_sum
        assert report.rel_error < 1e-12


def _gram_test_forms():
    """Seeded forms with 1-8 modes of norm <= 6, half of them holding a conjugate pair beta, -beta,
    and three fixed ones: a conjugate pair, four modes of one norm, and modes of norm 6."""
    betas = [(a, b, c) for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)
             if 0 < a * a + b * b + c * c <= 6]
    rng = random.Random(17)
    forms = [SpectralForm.from_dict(0.5, {(1, 2, 0): 1 + 2j, (-1, -2, 0): 1 - 2j}),
             SpectralForm.from_dict(1.0, {(1, 0, 0): 1.0, (0, 1, 0): -0.5j, (0, 0, 1): 2.0, (-1, 0, 0): 0.3 + 0.1j}),
             SpectralForm.from_dict(2.0, {(2, 1, 1): 1.0, (-1, 2, -1): 1j, (1, -1, 2): -0.7, (1, 1, 0): 0.2})]
    for k in range(1, 9):
        chosen = rng.sample(betas, k)
        if k % 2 == 0:
            chosen[-1] = tuple(-b for b in chosen[0])
        coeffs = {beta: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for beta in chosen}
        forms.append(SpectralForm.from_dict(3 * rng.random(), coeffs))
    return forms


class TestGramBoxRule:
    @pytest.mark.parametrize("nodes", [8, 24, 32])
    def test_matches_per_height_grid(self, nodes):
        checked = 0
        for form in _gram_test_forms():
            gram = _gram(form, nodes)
            for y in (0.3, 1.0, 3.0, 12.0, 56.0):
                ref = grid_box_integral(form, y, nodes)
                value = _box_integral(_amplitudes(form, y), gram)
                assert abs(value - ref) <= 1e-12 * ref, (form, y, value, ref)
                checked += ref > 0
        assert checked >= 40

    def test_beta_past_int64(self):
        # the betas were once an int64 array, which a coordinate of 1e19 overflowed
        one = SpectralForm.from_dict(1.0, {(1, 0, 0): 1.0})
        wide = SpectralForm.from_dict(1.0, {(1, 0, 0): 1.0, (10 ** 19, 0, 0): 1.0})
        assert parseval_check(wide, 1.0).rel_error < 1e-12
        assert direct_cusp_integral(wide, 1.5) == pytest.approx(direct_cusp_integral(one, 1.5), rel=1e-12)

    def test_gram_is_hermitian_with_unit_diagonal(self):
        for form in _gram_test_forms():
            gram = _gram(form, 24)
            assert np.array_equal(gram, gram.conj().T)
            assert np.allclose(np.diag(gram), 1.0, rtol=0, atol=1e-14)


class TestCuspMass:
    def test_zero_form(self):
        assert cusp_sum_I(SpectralForm(r=1.0, entries=()), 2.0) == 0.0

    def test_monotone_in_T(self):
        form = SpectralForm.from_dict(1.0, {(1, 0, 0): 1.0})
        v1 = cusp_sum_I(form, 1.0)
        v2 = cusp_sum_I(form, 2.0)
        assert 0 < v2 < v1

    def test_exponential_envelope(self):
        form = SpectralForm.from_dict(0.0, {(1, 0, 0): 1.0})
        T = 2.0
        value = cusp_sum_I(form, T)
        # |K_0(2 pi y)|^2 <= e^{-4 pi y} / (4 y) for y >= 1: integral tail bound
        envelope = math.exp(-4 * math.pi * T) / (4 * T * T)
        assert 0 < value < envelope

    def test_direct_quadrature_agrees(self):
        form = SpectralForm.from_dict(1.0, {(1, 0, 0): 1 + 0.5j, (0, 1, 0): -0.3 + 1j, (1, 1, 0): 0.7j})
        coeff_side = cusp_sum_I(form, 1.5)
        direct = direct_cusp_integral(form, 1.5)
        assert abs(coeff_side - direct) / coeff_side < 1e-3

    def test_direct_quadrature_against_mpmath(self):
        # by orthogonality the 4-d integral equals the coefficient-side mass, here taken on mpmath's K_{ir}
        form = SpectralForm.from_dict(1.0, {(1, 0, 0): 1 + 0.5j, (0, 1, 0): -0.3 + 1j, (1, 1, 0): 0.7j})
        ref = mp_cusp_mass(form, 1.5)
        assert abs(direct_cusp_integral(form, 1.5) - ref) / ref < 1e-6

    def test_T_below_one_rejected(self):
        with pytest.raises(ValueError):
            cusp_sum_I(SpectralForm.from_dict(0.0, {(1, 0, 0): 1.0}), 0.5)


class TestLaplaceResidual:
    def test_frozen_value_at_unit_height(self):
        # the discretization error of the 3-point stencil at this point
        # is 2.10e-4; frozen from a high-precision finite-difference oracle
        res = laplace_eigen_residual((1, 0, 0), 1.0, (0.1, 0.2, 0.3, 1.0), 1e-3)
        assert res == pytest.approx(2.102e-4, rel=0.05)

    def test_residual_small_at_low_height(self):
        assert laplace_eigen_residual((1, 0, 0), 1.0, (0.1, 0.2, 0.3, 0.3), 1e-3) < 1e-4
        assert laplace_eigen_residual((1, 1, 0), 0.0, (0.1, 0.2, 0.3, 0.3), 1e-3) < 1e-4

    def test_second_order_convergence(self):
        for beta, r in (((1, 0, 0), 1.0), ((1, 1, 0), 0.0)):
            res = [laplace_eigen_residual(beta, r, (0.1, 0.2, 0.3, 1.0), h)
                   for h in (1e-2, 5e-3, 2.5e-3)]
            for a, b in zip(res, res[1:]):
                assert 3.0 <= a / b <= 5.0

    def test_r_zero_mode(self):
        assert laplace_eigen_residual((1, 0, 0), 0.0, (0.1, 0.2, 0.3, 0.5), 1e-3) < 1e-3

    def test_vanishing_mode_reported(self):
        # the outermost zero of K_i sits near x = 0.064, i.e. y ~ 0.0102
        def f(y):
            return bessel_k_imag_order(1.0, 2 * math.pi * y)

        a, b = 0.0098, 0.0106
        assert f(a) * f(b) < 0
        for _ in range(80):
            m = 0.5 * (a + b)
            if f(a) * f(m) <= 0:
                b = m
            else:
                a = m
        with pytest.raises(ValueError, match="vanishes"):
            laplace_eigen_residual((1, 0, 0), 1.0, (0.1, 0.2, 0.3, 0.5 * (a + b)), 1e-3)

    @pytest.mark.parametrize("r", [15.0, 17.0, 20.0])
    def test_large_r_is_second_order(self, r):
        # the absolute test |u| < 1e-12 once refused r = 17 and 20 here, where |u| ~ e^(-pi r/2); at r = 15
        # the old kernel's error, divided by h^2, read 4.3e-2 at h = 1e-3 and 14.6 at h = 1e-4
        res = [laplace_eigen_residual((1, 0, 0), r, (0.1, 0.2, 0.3, 0.3), h) for h in (1e-3, 1e-4)]
        assert 95.0 <= res[0] / res[1] <= 105.0, res

    def test_underflowed_mode_refused(self):
        # at r = 500 the mode underflows to 0 at every stencil point
        with pytest.raises(ValueError, match="vanishes"):
            laplace_eigen_residual((1, 0, 0), MAX_SPECTRAL_R, (0.1, 0.2, 0.3, 0.3))

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError, match="beta must be nonzero"):
            laplace_eigen_residual((0, 0, 0), 1.0, (0.1, 0.2, 0.3, 0.3))

    @pytest.mark.parametrize("h", [1e-160, 1e-300, 1e-17])
    def test_step_below_the_resolution_of_the_point_refused(self, h):
        # h = 1e-160 once printed a residual of nan: c + h == c makes every difference 0
        with pytest.raises(ValueError, match="below the resolution of the point"):
            laplace_eigen_residual((1, 0, 0), 1.0, (0.1, 0.2, 0.3, 0.3), h)

    def test_step_just_above_the_resolution_accepted(self):
        # every coordinate moves at h = 1e-16, and the point (0, 0, 0, y) takes any h below y
        assert math.isfinite(laplace_eigen_residual((1, 0, 0), 1.0, (0.1, 0.2, 0.3, 0.3), 1e-16))
        assert math.isfinite(laplace_eigen_residual((1, 0, 0), 1.0, (0.0, 0.0, 0.0, 0.3), 1e-16))

    def test_step_must_keep_y_positive(self):
        with pytest.raises(ValueError):
            laplace_eigen_residual((1, 0, 0), 1.0, (0, 0, 0, 0.0005), 1e-3)


class TestNonFiniteInputs:
    # NaN never meets the quadrature tolerance, so each of these once bisected
    # to depth 60 and never returned, or overflowed in y^(3/2)
    @pytest.mark.parametrize("r,x", [(1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf),
                                     (1.0, -1.0)])
    def test_bessel_rejects(self, r, x, time_limit):
        with time_limit(5), pytest.raises(ValueError, match="finite"):
            bessel_k_imag_order(r, x)

    @pytest.mark.parametrize("r", [MAX_SPECTRAL_R + 0.5, -MAX_SPECTRAL_R - 0.5, 1e5, 1e308])
    def test_spectral_parameter_past_the_ceiling_rejected(self, r, time_limit):
        # K_ir takes time linear in r: r = 1e5 once ran for 8.5 s per evaluation
        with time_limit(1):
            for call in (lambda: bessel_k_imag_order(r, 2 * math.pi), lambda: SpectralForm(r, (((1, 0, 0), 1.0),)),
                         lambda: laplace_eigen_residual((1, 0, 0), r, (0.1, 0.2, 0.3, 0.3))):
                with pytest.raises(ValueError, match=r"finite with \|r\| <= 500, got"):
                    call()

    def test_spectral_parameter_at_the_ceiling_accepted(self):
        assert SpectralForm(-MAX_SPECTRAL_R, ()).r == -MAX_SPECTRAL_R
        assert math.isfinite(bessel_k_imag_order(MAX_SPECTRAL_R, 2 * math.pi))

    @pytest.mark.parametrize("r,coeff", [(math.nan, 1.0), (-math.inf, 1.0), (1.0, complex(math.nan, 0.0)),
                                         (1.0, complex(0.0, math.inf))])
    def test_form_rejects(self, r, coeff):
        with pytest.raises(ValueError, match="finite"):
            SpectralForm.from_dict(r, {(1, 0, 0): coeff})

    @pytest.mark.parametrize("call", [
        lambda form: parseval_check(form, math.nan),
        lambda form: parseval_check(form, math.inf),
        lambda form: parseval_check(form, 1e308),
        lambda form: cusp_sum_I(form, math.nan),
        lambda form: cusp_sum_I(form, math.inf),
        lambda form: cusp_sum_I(form, 1e308),
        lambda form: direct_cusp_integral(form, math.nan),
        lambda form: evaluate_form(form, (0.0, 0.0, 0.0, 1e308)),
        lambda form: evaluate_form(form, (0.0, 0.0, 0.0, math.nan)),
        lambda form: laplace_eigen_residual((1, 0, 0), math.nan, (0.1, 0.2, 0.3, 0.3)),
        lambda form: laplace_eigen_residual((1, 0, 0), 1.0, (0.1, 0.2, 0.3, 0.3), math.nan),
        lambda form: laplace_eigen_residual((1, 0, 0), 1.0, (0.1, 0.2, 0.3, 0.3), 0.0),
        lambda form: laplace_eigen_residual((1, 0, 0), 1.0, (0.1, 0.2, 0.3, 0.3), -1e-3),
        lambda form: parseval_check(form, 150.0),
    ])
    def test_entry_points_reject(self, call, time_limit):
        form = SpectralForm.from_dict(1.0, {(1, 0, 0): 1.0, (0, 1, 1): 0.5j})
        with time_limit(10), pytest.raises(ValueError):
            call(form)

    @pytest.mark.parametrize("y", [1e200, 1e250])
    def test_kernel_underflow_does_not_overflow(self, y):
        # y^3 and y^(3/2) overflow at these heights, where K_ir has long underflowed to 0;
        # Parseval refuses the height rather than compare 0 with 0
        form = SpectralForm.from_dict(1.0, {(1, 0, 0): 1.0, (0, 1, 1): 0.5j})
        assert evaluate_form(form, (0.1, 0.2, 0.3, y)) == 0
        with pytest.raises(ValueError, match="0 or subnormal"):
            parseval_check(form, y)
