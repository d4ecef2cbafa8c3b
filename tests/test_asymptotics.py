import math
import random
import warnings

import mpmath
import numpy as np
import pytest

from h4hecke.asymptotics import (
    DecayParams,
    SampledFunction,
    check_decay_conclusion,
    check_recursive_hypothesis,
    compute_R,
    half_sup_witness,
    power_law_function,
    r_conditions_hold,
)


class TestComputeR:
    def test_known_values(self):
        assert compute_R(10, 3, 0.01) == 1094
        assert compute_R(10, 0, 0.5) == 16

    def test_minimality(self):
        for (A, M, eps) in ((10, 3, 0.01), (10, 0, 0.5), (12, 1, 0.3), (25, 5, 0.1)):
            R = compute_R(A, M, eps)
            assert r_conditions_hold(A, M, eps, R)
            assert not r_conditions_hold(A, M, eps, R - 1)

    def test_matches_linear_search(self):
        def linear_search(A, M, eps):
            R = math.ceil(A)
            while not r_conditions_hold(A, M, eps, R):
                R += 1
            return R

        rng = random.Random(17)
        for _ in range(120):
            A, M, eps = rng.uniform(10, 50), rng.randrange(4), 10 ** (-1 - 2 * rng.random())
            R = compute_R(A, M, eps)
            assert R == linear_search(A, M, eps), (A, M, eps)
            assert r_conditions_hold(A, M, eps, R)
            assert not r_conditions_hold(A, M, eps, R - 1)

    def test_search_start_always_fails(self):
        # compute_R starts its search at lo = ceil(A) as a point where the predicate fails, with no test:
        # there 0 <= R - A < 1, so 2 A (log A)^(A - R) >= 2 A / log A >= 8.6 > 1/4
        grid = [*np.geomspace(10, 1e300, 61).tolist(), 10.5, 11, 12.3, 1e20, 2.0 ** 53 + 2]
        for A in grid:
            for M in (0, 1, 1000):
                for eps in (1e-12, 0.01, 0.3, 0.5, 0.99):
                    assert not r_conditions_hold(A, M, eps, math.ceil(A)), (A, M, eps)

    def test_monotone_in_M(self):
        for M in range(4):
            assert compute_R(10, M + 1, 0.05) >= compute_R(10, M, 0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_R(9, 0, 0.5)
        with pytest.raises(ValueError):
            compute_R(10, 0, 1.5)
        with pytest.raises(ValueError):
            compute_R(10, -1, 0.5)
        with pytest.raises(ValueError, match="rounds to 1"):
            compute_R(20, 3, 1e-17)
        assert compute_R(20, 0, 1e-17) == compute_R(20, 0, 0.5)

    @pytest.mark.parametrize("A", [1e15, 2.0 ** 53, 1e17, 1e20, 1e100])
    def test_large_A_matches_exact_minimum(self, A):
        # A - R was once rounded to a double, so R came out A + 9 at 1e17 (A + 12 is least), A + 8193
        # at 1e20 and about 1e84 off at 1e100.  Each A here is an integer, so the least R is A plus the
        # least k >= log(8A) / log(log A), and the second inequality holds far below A.
        M, eps = 3, 0.5
        with mpmath.workdps(60):
            a = mpmath.mpf(A)
            k = int(mpmath.ceil(mpmath.log(8 * a) / mpmath.log(mpmath.log(a))))
            assert mpmath.log(8 * a * M) / -mpmath.log(1 - mpmath.mpf(eps) / 2) < a
        assert compute_R(A, M, eps) == int(A) + k

    @pytest.mark.parametrize("A,M", [(1e308, 3), (8.99e307, 1), (1e300, 10 ** 30), (10, 10 ** 400), (10 ** 400, 0)],
                             ids=["A=1e308", "A=8.99e307", "A=1e300,M=1e30", "M=1e400", "A=1e400"])
    def test_2A_max_M_past_the_double_range_is_refused(self, A, M):
        # the predicate read inf there, so the search ran R out of the double range: OverflowError
        with pytest.raises(ValueError, match="past the double range"):
            compute_R(A, M, 0.5)


class TestSampledFunction:
    def test_requires_f_of_one_equal_one(self):
        with pytest.raises(ValueError):
            SampledFunction(grid=np.array([1.0, 2.0]), values=np.array([0.5, 0.1]))

    @pytest.mark.parametrize("grid,values", [([1.0, 2.0, 3.0], [1.0, math.nan, 0.5]),
                                             ([1.0, 2.0, math.inf], [1.0, 0.5, 0.5]),
                                             ([1.0, math.nan, 3.0], [1.0, 0.5, 0.5])])
    def test_non_finite_refused(self, grid, values):
        with pytest.raises(ValueError, match="finite"):
            SampledFunction(grid=np.array(grid), values=np.array(values))

    def test_interpolation_is_log_linear(self):
        f = SampledFunction(grid=np.array([1.0, math.e ** 2]), values=np.array([1.0, 0.0]))
        assert f.value(math.e) == pytest.approx(0.5)

    def test_zero_beyond_support(self):
        f = power_law_function(0.5, y_max=100.0)
        assert f.value(1e6) == 0.0

    def test_values_clipped_to_unit_interval(self):
        f = power_law_function(0.125, log_power=1.0, scale=2.0, y_max=50.0)
        assert np.all(f.values <= 1.0)
        assert f.values[0] == 1.0


def reference_hypothesis(f, params):
    """The per-point loop that the array check replaced: (passed, worst_margin, worst_y, points_checked).

    It reads f by its own log-linear interpolation, zero past grid[-1] (1 + 1e-12),
    and makes each power y^c with Python floats.
    """
    log_grid = np.log(f.grid)

    def value(y):
        return 0.0 if y > f.grid[-1] * (1 + 1e-12) else float(np.interp(math.log(y), log_grid, f.values))

    A, delta, eps = params.A, params.delta, params.eps
    worst_margin, worst_y, checked = math.inf, float(f.grid[0]), 0
    for y, fy in zip(f.grid, f.values):
        y = float(y)
        if y < A:
            continue
        checked += 1
        rhs = math.log(y) ** A / y ** delta + value(y ** (1 + eps))
        for a in params.a_funcs:
            av = a(y)
            rhs += y ** (-delta * av) * value(y ** (1 - av))
        for b in params.b_funcs:
            bv = b(y)
            rhs += math.exp(-eps * bv) * y ** (delta * bv) * value(y ** (1 + bv))
        margin = A * rhs - float(fy)
        if margin < worst_margin:
            worst_margin, worst_y = margin, y
    return worst_margin >= -1e-12, worst_margin, worst_y, checked


class TestDecayParams:
    @pytest.mark.parametrize("kw,message", [({"delta": math.nan}, "Delta"), ({"delta": math.inf}, "Delta"),
                                            ({"A": math.nan}, "A must"), ({"A": math.inf}, "A must"),
                                            ({"eps": math.nan}, "eps")])
    def test_non_finite_refused(self, kw, message):
        with pytest.raises(ValueError, match=message):
            DecayParams(**{"delta": 0.125, "eps": 0.25, "A": 10.0, **kw})


class TestHypothesis:
    def params(self, delta=0.125, eps=0.25, A=10.0, a=(), b=()):
        return DecayParams(delta=delta, eps=eps, A=A,
                           a_funcs=tuple((lambda v: (lambda y: v))(v) for v in a),
                           b_funcs=tuple((lambda v: (lambda y: v))(v) for v in b))

    def test_spike_at_one_passes_vacuously(self):
        grid = np.exp(0.05 * np.arange(200))
        values = np.zeros(200)
        values[0] = 1.0
        f = SampledFunction(grid=grid, values=values)
        report = check_recursive_hypothesis(f, self.params())
        assert report.passed

    def test_power_laws_pass(self):
        for scale, k in ((1.0, 0.0), (2.0, 1.0), (5.0, 2.0)):
            f = power_law_function(0.125, log_power=k, scale=scale, y_max=math.exp(25))
            report = check_recursive_hypothesis(f, self.params())
            assert report.passed, (scale, k, report)

    def test_with_shift_families(self):
        f = power_law_function(0.125, y_max=math.exp(25))
        params = self.params(a=(0.5, 0.25), b=(3.0,))
        report = check_recursive_hypothesis(f, params)
        assert report.passed

    def test_failing_function_detected(self):
        # constant 1 with steep decay target: beyond the support shift the
        # inhomogeneous term alone is too small
        grid_max = 60.0
        f = SampledFunction.from_callable(lambda y: 1.0, y_max=grid_max, h=0.05)
        params = self.params(delta=5.0, eps=1.0 - 1e-9, A=10.0)
        report = check_recursive_hypothesis(f, params)
        assert not report.passed
        assert report.worst_margin < 0

    def test_grid_too_sparse_flagged(self):
        f = SampledFunction.from_callable(lambda y: y ** -0.125, y_max=100.0, h=0.9)
        with pytest.raises(ValueError, match="sparse"):
            check_recursive_hypothesis(f, self.params(eps=0.05))

    def test_envelope_validation(self):
        f = power_law_function(0.125, y_max=100.0)
        bad_a = DecayParams(delta=0.125, eps=0.25, A=10.0, a_funcs=(lambda y: 2.0,))
        with pytest.raises(ValueError, match="outside"):
            check_recursive_hypothesis(f, bad_a)
        bad_b = DecayParams(delta=0.125, eps=0.25, A=10.0, b_funcs=(lambda y: 0.01,))
        with pytest.raises(ValueError, match="below"):
            check_recursive_hypothesis(f, bad_b)

    @pytest.mark.parametrize("a,b", [((), ()), ((0.5, 0.25), (3.0,))])
    def test_matches_per_point_reference(self, a, b):
        wild = SampledFunction.from_callable(lambda y: 1.0 if y < 10 else min(1.0, y ** -0.125),
                                             y_max=math.exp(20), h=0.04)
        profiles = [power_law_function(0.125, log_power=k, scale=scale, y_max=math.exp(24), h=h)
                    for h in (0.05, 0.01) for scale, k in ((1.0, 0.0), (3.0, 1.0), (1.5, 3.0))]
        cases = [(f, self.params(a=a, b=b)) for f in (*profiles, wild)]
        failing = SampledFunction.from_callable(lambda y: 1.0, y_max=60.0, h=0.05)
        cases.append((failing, self.params(delta=5.0, eps=1.0 - 1e-9, a=(1.0,) if a else ())))
        for f, params in cases:
            report = check_recursive_hypothesis(f, params)
            passed, worst_margin, worst_y, checked = reference_hypothesis(f, params)
            assert (report.passed, report.worst_y, report.points_checked) == (passed, worst_y, checked)
            assert report.worst_margin == pytest.approx(worst_margin, rel=1e-12)

    def test_each_envelope_called_once_per_point(self):
        f = power_law_function(0.125, y_max=math.exp(20))
        calls = {"a1": 0, "a2": 0, "b1": 0}

        def counting(name, v):
            def g(y):
                calls[name] += 1
                return v
            return g

        params = DecayParams(delta=0.125, eps=0.25, A=10.0, a_funcs=(counting("a1", 0.5), counting("a2", 0.25)),
                             b_funcs=(counting("b1", 3.0),))
        report = check_recursive_hypothesis(f, params)
        assert report.points_checked == int(np.sum(f.grid >= 10.0))
        assert calls == dict.fromkeys(calls, report.points_checked)

    def test_hundred_thousand_point_grid(self, time_limit):
        n = 100_001
        grid = np.exp(np.linspace(0.0, 25.0, n))
        f = SampledFunction(grid=grid, values=np.minimum(1.0, grid ** -0.125))
        with time_limit(10):
            report = check_recursive_hypothesis(f, self.params(a=(0.5,), b=(3.0,)))
        assert report.passed
        assert report.points_checked == int(np.sum(grid >= 10.0))

    def test_overflowing_weights_give_a_verdict_without_warnings(self):
        f = power_law_function(0.125, y_max=math.exp(20))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # every b-term of y^(Delta b) with b = 400 lies past the support, so it adds 0
            assert check_recursive_hypothesis(f, self.params(b=(400.0,))).passed
            assert check_recursive_hypothesis(f, self.params(b=(4000.0,))).passed
            # Delta = 1e300 asks f to vanish past y = A, which it does not
            steep = check_recursive_hypothesis(f, self.params(delta=1e300, b=(400.0,)))
            assert not steep.passed and math.isfinite(steep.worst_margin)
            assert check_decay_conclusion(f, 16, 1e300).minimal_C == math.inf

    def test_conclusion_past_the_double_range_reads_inf(self):
        # R = 1094 with Delta = 1e300: (1 + log y)^R and y^Delta both overflow, and their
        # quotient once read nan with a RuntimeWarning
        f = power_law_function(0.125, y_max=math.exp(20), h=0.02)
        R = compute_R(10, 3, 0.01)
        assert R == 1094
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_decay_conclusion(f, R, 1e300)
        assert report.minimal_C == math.inf
        assert report.worst_y == f.grid[1]

    def test_behavior_below_A_is_unconstrained(self):
        # wild values on [1, A) must not affect the verdict
        def wild(y):
            return 1.0 if y < 10 else min(1.0, y ** -0.125)

        f = SampledFunction.from_callable(wild, y_max=math.exp(20), h=0.04)
        report = check_recursive_hypothesis(f, self.params())
        assert report.passed


class TestConclusion:
    def test_spike_needs_C_one(self):
        grid = np.exp(0.05 * np.arange(100))
        values = np.zeros(100)
        values[0] = 1.0
        f = SampledFunction(grid=grid, values=values)
        report = check_decay_conclusion(f, 16, 0.125)
        assert report.minimal_C <= 1.0 * (1 + 1e-12)
        assert report.minimal_C == pytest.approx(1.0)

    def test_pure_power_law_needs_C_one(self):
        f = power_law_function(0.125, y_max=math.exp(20))
        report = check_decay_conclusion(f, 16, 0.125)
        assert report.minimal_C <= 1.0 * (1 + 1e-12)
        assert report.minimal_C == pytest.approx(1.0)

    def test_insufficient_C_detected(self):
        f = power_law_function(0.125, log_power=2.0, scale=5.0, y_max=math.exp(20))
        tight = check_decay_conclusion(f, 16, 0.125)
        assert tight.minimal_C > 1e-6


class TestEndToEnd:
    def synthetic_family(self, h):
        fs = []
        for scale, k in ((1.0, 0.0), (2.0, 0.5), (3.0, 1.0), (5.0, 2.0), (1.5, 3.0)):
            fs.append(power_law_function(0.125, log_power=k, scale=scale,
                                         y_max=math.exp(24), h=h))
        return fs

    def test_hypothesis_passers_obey_conclusion(self):
        params = DecayParams(delta=0.125, eps=0.25, A=10.0)
        R = compute_R(params.A, params.M, params.eps)
        for f in self.synthetic_family(0.05):
            assert check_recursive_hypothesis(f, params).passed
            report = check_decay_conclusion(f, R, params.delta)
            assert math.isfinite(report.minimal_C)
            envelope = (1 + np.log(f.grid)) ** R / f.grid ** params.delta
            assert np.all(f.values <= report.minimal_C * envelope * (1 + 1e-12))

    def test_minimal_C_stable_under_refinement(self):
        R = 16
        coarse = self.synthetic_family(0.05)
        fine = self.synthetic_family(0.025)
        for fc, ff in zip(coarse, fine):
            c0 = check_decay_conclusion(fc, R, 0.125).minimal_C
            c1 = check_decay_conclusion(ff, R, 0.125).minimal_C
            assert abs(c1 - c0) <= 0.1 * c0


class TestHalfSupWitness:
    def test_witness_realizes_grid_sup(self):
        f = power_law_function(0.125, log_power=1.0, scale=2.0, y_max=math.exp(20))
        for r in (0.0, 1.0, 5.0, 16.0):
            zr = half_sup_witness(f, 0.125, r)
            gz = zr ** 0.125 * f.value(zr) / (1 + math.log(zr)) ** r
            for y, v in zip(f.grid, f.values):
                gy = y ** 0.125 * v / (1 + math.log(y)) ** r
                assert gy <= 2 * gz + 1e-12
