"""Acceptance suite: every criterion prints one PASS line and enforces its
stated tolerance and time budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from h4hecke.asymptotics import (
    DecayParams,
    check_decay_conclusion,
    check_recursive_hypothesis,
    compute_R,
    power_law_function,
    r_conditions_hold,
)
from h4hecke.geometry import (
    PointH4,
    act,
    is_in_region,
    is_integral_sv2,
    reduce_to_fundamental_domain,
    verify_cusp_decomposition,
    word_to_matrix,
)
from h4hecke.hecke import (
    CoefficientField,
    apply_hecke,
    verify_commutativity,
    verify_hecke_relation,
)
from h4hecke.numerics import (
    SpectralForm,
    cusp_sum_I,
    direct_cusp_integral,
    laplace_eigen_residual,
    parseval_check,
)
from h4hecke.quaternions import enumerate_norm, orbit_representatives, verify_conjugation_lemmas
from h4hecke.sums import lambda3_lower_bound_sq, sum_R, sum_S_d, verify_R_shift_identity


def _pass(n: int, started: float, message: str) -> None:
    print(f"\nACCEPTANCE {n:2d}: PASS ({time.time() - started:6.2f}s) - {message}")


_SWEEPS: dict = {}


def _sweep(p: int):
    if p not in _SWEEPS:
        qs = tuple(q for q in (3, 5, 7, 11) if q != p)
        _SWEEPS[p] = verify_conjugation_lemmas(p, 20, q_primes=qs)
    return _SWEEPS[p]


def test_accept_01_quaternion_counts():
    t0 = time.time()
    for p in (3, 5, 7, 11, 13, 17, 19):
        assert len(enumerate_norm(p)) == 8 * (p + 1)
        assert len(orbit_representatives(p).representatives) == p + 1
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _pass(1, t0, "norm-p counts 8(p+1) and p+1 orbit representatives for p in {3..19}")


def test_accept_02_conjugation_valuation_sweep():
    t0 = time.time()
    pairs = 0
    for p in (3, 5, 7):
        report = _sweep(p)
        assert report.violations == 0
        assert report.max_vp_jump <= 2
        assert report.max_unequal_reps <= 2
        pairs += report.pairs_checked
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _pass(2, t0, f"two-sided v_p bound, v_q invariance, <=2 exceptional orbits over {pairs} pairs")


def test_accept_03_squared_divisibility_sweep():
    t0 = time.time()
    for p in (3, 5):
        report = _sweep(p)
        assert report.violations == 0
        assert report.max_exceptional_set <= 2
        assert report.squared_divisibility_max_small <= 16
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _pass(3, t0, ">16-conjugate squared divisibility criterion and |I(beta)| <= 2, p in {3,5}")


def test_accept_04_hecke_relation_exact():
    t0 = time.time()
    for p in (3, 5, 7):
        rng = random.Random(1000 + p)
        for _ in range(100):
            field = CoefficientField.random(rng, p=p, support=8, coord_bound=3, entry_bound=10)
            residual = verify_hecke_relation(p, field)
            assert residual.is_zero  # exact arithmetic, tolerance 0
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _pass(4, t0, "quadratic operator relation residual identically zero: 300 random fields, p in {3,5,7}")


def test_accept_05_cross_prime_commutativity():
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        rng = random.Random(2000 + seed)
        field = CoefficientField.random(rng, support=6, coord_bound=2, entry_bound=8).symmetrized()
        for (p, q) in ((3, 5), (3, 7), (5, 7)):
            for ell in (1, 2):
                for m in (1, 2):
                    worst = max(worst, verify_commutativity(p, q, ell, m, field))
    assert worst < 1e-9
    # documented finding: dropping the sign symmetry breaks commutativity,
    # so the criterion gates on the symmetric subspace where it is exact
    asym = CoefficientField.random(random.Random(5), support=5, coord_bound=2, entry_bound=4)
    finding = verify_commutativity(3, 7, 1, 2, asym)
    assert finding > 0.1
    _pass(5, t0, f"commutators < 1e-9 on sign-symmetric fields (worst {worst:.2e}); "
                 f"finding: asymmetric witness residual {finding:.2f}")


def test_accept_06_index_shift_identity():
    t0 = time.time()
    rng = random.Random(3000)
    cases = 0
    nonzero = 0
    while cases < 50:
        for p in (3, 5):
            for ell in (1, 2):
                for d in (1, 2, 3):
                    if cases >= 50:
                        break
                    field = CoefficientField.random(rng, support=6, coord_bound=4, entry_bound=6)
                    z = Fraction(p ** (2 * ell) * d * d * rng.randint(20, 60))
                    assert verify_R_shift_identity(field, p, ell, d, z)
                    if sum_R(field, p, ell, d * p ** ell, z) != 0:
                        nonzero += 1
                    cases += 1
    assert nonzero >= 5  # the identity is exercised with real mass, not just 0 = 0
    _pass(6, t0, f"R index-shift identity exact on {cases} seeded cases ({nonzero} with nonzero mass)")


def test_accept_07_lattice_sums():
    t0 = time.time()
    # independent brute-force enumeration fixes the expected values first
    count_all = 0
    count_div3 = 0
    for b0 in range(-3, 4):
        for b1 in range(-3, 4):
            for b2 in range(-3, 4):
                n = b0 * b0 + b1 * b1 + b2 * b2
                if 0 < n <= 9:
                    count_all += 1
                    if b0 % 3 == 0 and b1 % 3 == 0 and b2 % 3 == 0:
                        count_div3 += 1
    assert (count_all, count_div3) == (122, 6)
    A = CoefficientField.ones_ball(9)
    assert sum_S_d(A, 1, 9) == 122
    assert sum_S_d(A, 3, 9) == 6
    _pass(7, t0, "S(9) = 122 and S_3(9) = 6 against independent lattice enumeration")


def test_accept_08_recursion_exponent():
    t0 = time.time()
    for (A, M, eps, expected) in ((10, 3, 0.01, 1094), (10, 0, 0.5, 16)):
        R = compute_R(A, M, eps)
        assert R == expected
        assert r_conditions_hold(A, M, eps, R)
        assert not r_conditions_hold(A, M, eps, R - 1)
    _pass(8, t0, "compute_R(10,3,0.01) = 1094 and compute_R(10,0,0.5) = 16, minimal by direct check")


def test_accept_09_recursion_end_to_end():
    t0 = time.time()
    params = DecayParams(delta=0.125, eps=0.25, A=10.0)
    R = compute_R(params.A, params.M, params.eps)
    shapes = ((1.0, 0.0), (2.0, 0.5), (3.0, 1.0), (5.0, 2.0), (1.5, 3.0))
    for scale, k in shapes:
        coarse = power_law_function(0.125, log_power=k, scale=scale, y_max=math.exp(24), h=0.05)
        fine = power_law_function(0.125, log_power=k, scale=scale, y_max=math.exp(24), h=0.025)
        assert check_recursive_hypothesis(coarse, params).passed
        c0 = check_decay_conclusion(coarse, R, params.delta).minimal_C
        c1 = check_decay_conclusion(fine, R, params.delta).minimal_C
        assert math.isfinite(c0) and c0 > 0
        assert abs(c1 - c0) <= 0.10 * c0
    _pass(9, t0, f"5 hypothesis-passing functions decay with finite C, stable within 10% under h -> h/2")


def test_accept_10_parseval():
    t0 = time.time()
    two = {(1, 0, 0): 1.0 + 0j, (0, 1, 0): 1.0 + 0j}
    five = {(1, 0, 0): 1.0, (0, 1, 0): -0.5 + 0.25j, (1, 1, 0): 0.7j,
            (2, 0, 0): 0.3 - 0.1j, (0, 1, 1): -1.1 + 0j}
    worst = 0.0
    for coeffs in (two, five):
        for r in (0.0, 1.0):
            form = SpectralForm.from_dict(r, coeffs)
            for y in (0.5, 1.0, 2.0):
                worst = max(worst, parseval_check(form, y).rel_error)
    assert worst < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _pass(10, t0, f"fixed-height orthogonality: worst relative error {worst:.2e} over 12 checks")


def test_accept_11_unfolding_cross_check():
    t0 = time.time()
    form = SpectralForm.from_dict(1.0, {(1, 0, 0): 1 + 0.5j, (0, 1, 0): -0.3 + 1j, (1, 1, 0): 0.7j})
    coeff_side = cusp_sum_I(form, 1.5)
    direct = direct_cusp_integral(form, 1.5)
    rel = abs(coeff_side - direct) / abs(coeff_side)
    assert rel < 1e-3
    _pass(11, t0, f"cusp mass: coefficient side vs direct 4-d quadrature, relative difference {rel:.2e}")


def test_accept_12_laplacian_mode():
    t0 = time.time()
    z = (0.1, 0.2, 0.3, 0.3)  # evaluation point with healthy mode amplitude
    for beta, r in (((1, 0, 0), 1.0), ((1, 1, 0), 0.0)):
        residual = laplace_eigen_residual(beta, r, z, 1e-3)
        assert residual < 1e-4
        series = [laplace_eigen_residual(beta, r, z, h) for h in (1e-2, 5e-3, 2.5e-3)]
        for big, small in zip(series, series[1:]):
            order = math.log2(big / small)
            assert 1.8 <= order <= 2.2
    _pass(12, t0, "mode annihilation residual < 1e-4 at h = 1e-3 with convergence order 2.0 +/- 0.2")


def test_accept_13_fundamental_domain_reduction():
    t0 = time.time()
    rng = random.Random(4000)
    for _ in range(1000):
        z = PointH4(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3),
                    rng.uniform(0.05, 50))
        word, reduced = reduce_to_fundamental_domain(z)
        assert is_in_region(reduced, "F")
        g = word_to_matrix(word)
        assert is_integral_sv2(g)
        moved = act(g, z) if word else z
        assert max(abs(a - b) for a, b in zip(moved.as_tuple(), reduced.as_tuple())) < 1e-9
    _pass(13, t0, "1000 random points reduced into F; words evaluate to integral matrices matching")


def test_accept_14_cusp_decomposition():
    t0 = time.time()
    report = verify_cusp_decomposition(2.0, 1000, seed=5000)
    assert report.interior_checked == sum(report.matches_by_matrix.values())
    assert report.interior_checked + report.boundary_ties == 1000
    assert report.boundary_ties == 0  # random samples stay off the measure-zero boundary
    _pass(14, t0, "1000 cusp-box samples each matched by exactly one of the four rotated copies")


def test_accept_15_eigenvalue_nonvanishing():
    t0 = time.time()
    primes = [p for p in range(3, 98) if all(p % q for q in range(2, p))]
    for p in primes:
        bound = lambda3_lower_bound_sq(p)
        assert bound >= Fraction(1, 2)  # exact rational arithmetic
    _pass(15, t0, f"|lambda_3|^2 >= 1/2 forced whenever |lambda_1|^2, |lambda_2|^2 <= 1/100, p in {{3..97}}")
