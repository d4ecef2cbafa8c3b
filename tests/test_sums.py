import math
import random
from fractions import Fraction

import numpy as np
import pytest

from h4hecke import hecke, sums
from h4hecke.hecke import CoefficientField, EigenvalueTriple, QComplex, QuadExt, hecke_relation_constant
from h4hecke.quaternions import (
    conjugate_action,
    conjugation_matrices,
    divide_lattice,
    lattice_norm,
    orbit_representatives,
)
from h4hecke.sums import (
    MultiplicitySpec,
    PrimeWindow,
    ShiftIdentityError,
    amplified_sum,
    choose_parameters,
    inequality_report,
    lambda3_lower_bound_sq,
    partition_primes,
    eigen_power_sum,
    split_sharp_flat,
    sum_R,
    sum_S_d,
    verify_R_shift_identity,
)
from reference import apply_matrix


def ball_points(radius):
    m = math.isqrt(radius)
    for b0 in range(-m, m + 1):
        for b1 in range(-m, m + 1):
            for b2 in range(-m, m + 1):
                beta = (b0, b1, b2)
                if beta != (0, 0, 0) and lattice_norm(beta) <= radius:
                    yield beta


def brute_force_R(A, p, ell, d, z):
    """Independent evaluation of R by enumerating the whole ball."""
    mats = conjugation_matrices(p)
    total = QuadExt.of(0, A.p)
    for beta in ball_points(math.floor(z)):
        if not all(c % d == 0 for c in beta):
            continue
        inner = QComplex.of(0, p=A.p)
        for mat in mats:
            inner = inner + A.at(divide_lattice(apply_matrix(mat, beta), p ** ell))
        total = total + inner.abs_sq()
    return total * Fraction(1, p)


def brute_force_S(A, d, z):
    """Independent evaluation of S_d by enumerating the whole ball."""
    total = QuadExt.of(0, A.p)
    for beta in ball_points(math.floor(z)):
        if all(c % d == 0 for c in beta):
            total = total + A.at(beta).abs_sq()
    return total


def brute_force_L64_left(A, window, K, ell, z):
    """The L6.4 double sum in exact Fractions, with conjugates formed as quaternion products.

    sum over p in the window and beta in the ball with p not dividing beta
    and at most K window primes dividing beta, of
    (1/p) |sum_alpha A(alpha' beta bar(alpha) / p^ell)|^2.
    """
    total = QuadExt.of(0, A.p)
    for p in window.primes:
        reps = orbit_representatives(p).representatives
        for beta in ball_points(math.floor(z)):
            if all(c % p == 0 for c in beta):
                continue
            if sum(1 for r in window.primes if all(c % r == 0 for c in beta)) > K:
                continue
            inner = QComplex.of(0, p=A.p)
            for alpha in reps:
                inner = inner + A.at(divide_lattice(conjugate_action(alpha, beta), p ** ell))
            total = total + inner.abs_sq() * Fraction(1, p)
    return total


def fractional_field(rng, q, support, coord_bound, symmetric=False, extra=()):
    """A random field over Q(sqrt q) whose rational and sqrt parts have denominators 2, 3 and 4.

    The support holds the points of `extra` and random points of the box.
    """
    def scalar():
        return QuadExt(q, Fraction(rng.randint(-9, 9), rng.choice((2, 3, 4))),
                       Fraction(rng.randint(-9, 9), rng.choice((2, 3, 4))))

    entries = {beta: QComplex(scalar(), scalar()) for beta in extra}
    while len(entries) < len(extra) + support:
        beta = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(3))
        if beta != (0, 0, 0) and beta not in entries:
            entries[beta] = QComplex(scalar(), scalar())
    field = CoefficientField(q, entries)
    return field.symmetrized() if symmetric else field


def brute_force_split(A, specs, z):
    """(sharp, flats, total) of the sharp/flat split, each |A(beta)|^2 formed in QComplex arithmetic."""
    sharp, flats, total = QuadExt.of(0, A.p), [QuadExt.of(0, A.p) for _ in specs], QuadExt.of(0, A.p)
    for beta in ball_points(math.floor(z)):
        sq = A.at(beta).abs_sq()
        total = total + sq
        if all(s.member(beta) for s in specs):
            sharp = sharp + sq
        for idx, s in enumerate(specs):
            if not s.member(beta):
                flats[idx] = flats[idx] + sq
    return sharp, flats, total


class TestSumS:
    def test_ones_ball_examples(self):
        A = CoefficientField.ones_ball(9)
        assert sum_S_d(A, 1, 9) == 122
        assert sum_S_d(A, 3, 9) == 6

    def test_vanishes_when_d_square_exceeds_z(self):
        A = CoefficientField.ones_ball(9)
        assert sum_S_d(A, 4, 9) == 0

    def test_monotone_in_z(self):
        rng = random.Random(1)
        A = CoefficientField.random(rng, support=8, coord_bound=3)
        values = [float(sum_S_d(A, 1, z)) for z in (1, 4, 9, 16, 27)]
        assert values == sorted(values)

    def test_divisor_refinement(self):
        rng = random.Random(2)
        A = CoefficientField.random(rng, support=10, coord_bound=4)
        for d, dd in ((1, 2), (1, 3), (2, 4), (3, 9)):
            assert float(sum_S_d(A, dd, 30)) <= float(sum_S_d(A, d, 30))

    def test_exact_threshold_comparison(self):
        A = CoefficientField.delta((1, 1, 1), 1)  # norm 3
        assert sum_S_d(A, 1, 3) == 1
        assert sum_S_d(A, 1, Fraction(29, 10)) == 0

    @pytest.mark.parametrize("q", [3, 7])
    def test_sqrt_field_matches_brute_force(self, q):
        rng = random.Random(q)
        A = fractional_field(rng, q, support=12, coord_bound=4)
        for d, z in ((1, 30), (2, 48), (3, Fraction(100, 3)), (4, 40)):
            mine = sum_S_d(A, d, z)
            ref = brute_force_S(A, d, z)
            assert mine == ref and repr(mine) == repr(ref)
        assert sum_S_d(A, 1, 48).b != 0


class TestSumR:
    def test_zero_field(self):
        assert sum_R(CoefficientField.zero(), 3, 0, 1, 9) == 0

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(3)
        for p, ell in ((3, 0), (3, 1), (5, 0)):
            A = CoefficientField.random(rng, support=5, coord_bound=3)
            mine = sum_R(A, p, ell, 1, 90)
            ref = brute_force_R(A, p, ell, 1, 90)
            assert mine == ref

    def test_delta_example(self):
        A = CoefficientField.delta((1, 0, 0), 1)
        mine = sum_R(A, 3, 0, 1, 9)
        assert mine == brute_force_R(A, 3, 0, 1, 9)

    def test_with_divisor_constraint(self):
        rng = random.Random(4)
        A = CoefficientField.random(rng, support=6, coord_bound=3)
        assert sum_R(A, 3, 1, 2, 200) == brute_force_R(A, 3, 1, 2, 200)

    @pytest.mark.parametrize("p,ell,d,z,gamma", [
        (3, 0, 2, 40, (18, 0, 0)), (3, 1, 2, 40, (6, 0, 0)), (3, 2, 3, 90, (3, 0, 0)),
        (3, 3, 2, 330, (2, 0, 0)), (3, 3, 3, 90, (1, 0, 0)),
        (5, 0, 2, 100, (50, 0, 0)), (5, 1, 3, 230, (15, 0, 0)), (5, 2, 2, 110, (2, 0, 0)),
    ])
    def test_sqrt_field_fractional_entries(self, p, ell, d, z, gamma):
        # Entries lie in Q(sqrt 7), so the sqrt parts do not interact with the conjugation prime.
        # The support point gamma is hit from beta = p^(ell-2) C_i^T gamma, a multiple of d of
        # norm p^(2 ell - 2) N(gamma) <= z, so every case has mass.
        rng = random.Random(100 * p + 10 * ell + d)
        for symmetric in (False, True):
            A = fractional_field(rng, 7, support=8, coord_bound=3, symmetric=symmetric, extra=[gamma])
            mine = sum_R(A, p, ell, d, z)
            ref = brute_force_R(A, p, ell, d, z)
            assert mine == ref and repr(mine) == repr(ref)
            assert mine != 0


class TestShiftIdentity:
    def test_zero_field(self):
        assert verify_R_shift_identity(CoefficientField.zero(), 3, 1, 1, 81)

    def test_random_fields(self):
        rng = random.Random(5)
        for p, ell, d, z in ((3, 1, 1, 81), (3, 2, 3, 1000), (5, 2, 2, 10 ** 4), (5, 1, 2, 400)):
            A = CoefficientField.random(rng, support=6, coord_bound=4)
            assert verify_R_shift_identity(A, p, ell, d, z)

    def test_nonzero_cases_exist(self):
        # make sure the identity is exercised with nonzero mass
        rng = random.Random(6)
        nonzero = 0
        for _ in range(10):
            A = CoefficientField.random(rng, support=6, coord_bound=4)
            lhs = sum_R(A, 3, 1, 3, 2000)
            verify_R_shift_identity(A, 3, 1, 1, 2000)
            if lhs != 0:
                nonzero += 1
        assert nonzero > 0


class TestMultiplicity:
    def window(self):
        return PrimeWindow(6.0, (3, 5))

    def test_membership_examples(self):
        w = self.window()
        assert not MultiplicitySpec(1, 1, w).member((15, 0, 0))
        assert MultiplicitySpec(1, 1, w).member((3, 0, 0))
        w3 = PrimeWindow(3.0, (3,))
        assert MultiplicitySpec(2, 1, w3).member((9, 0, 0))

    @pytest.mark.parametrize("q", [None, 3, 5, 7])
    def test_split_matches_brute_force(self, q):
        rng = random.Random(70 + (q or 0))
        w = PrimeWindow(6.0, (3, 5))
        specs = [MultiplicitySpec(1, 0, w), MultiplicitySpec(1, 1, w), MultiplicitySpec(2, 0, w)]
        for symmetric in (False, True):
            if q is None:
                A = CoefficientField.random(rng, support=12, coord_bound=5)
                A = A.symmetrized() if symmetric else A
            else:
                A = fractional_field(rng, q, 10, 5, symmetric=symmetric, extra=[(3, 0, 0), (5, 0, 0), (0, 9, 0)])
            for z in (0, 9, Fraction(51, 2), 75):
                split = split_sharp_flat(A, specs, z)
                sharp, flats, total = brute_force_split(A, specs, z)
                assert (split.sharp, list(split.flats), split.total) == (sharp, flats, total)
                assert split.sharp.p == split.total.p == A.p and all(f.p == A.p for f in split.flats)

    def test_split_consistency(self):
        rng = random.Random(7)
        A = CoefficientField.random(rng, support=12, coord_bound=5)
        spec = MultiplicitySpec(1, 0, self.window())
        split = split_sharp_flat(A, [spec], 40)
        assert split.sharp + split.flats[0] == split.total
        assert split.total == sum_S_d(A, 1, 40)


class TestAmplified:
    def test_zero_eigenvalues(self):
        A = CoefficientField.ones_ball(9)
        w = PrimeWindow(3.0, (3,))
        lam = {3: EigenvalueTriple(3, 0.0, 0.0, 0.0)}
        assert amplified_sum(A, w, lam, 1, [], 9) == 0.0

    def test_ones_ball_example(self):
        A = CoefficientField.ones_ball(9)
        w = PrimeWindow(3.0, (3,))
        lam = {3: EigenvalueTriple(3, 1.0, 0.0, 0.0)}
        spec = MultiplicitySpec(1, 10 ** 6, w)
        value = amplified_sum(A, w, lam, 1, [spec], 9)
        assert value == pytest.approx(116.0)
        assert value == pytest.approx(float(sum_S_d(A, 1, 9) - sum_S_d(A, 3, 9)))

    def test_lower_bound_inequality(self):
        # A >= (L/2) (|P| - K_1) S_sharp when every |lambda_ell|^2 >= L/2
        rng = random.Random(8)
        A = CoefficientField.random(rng, support=10, coord_bound=4)
        w = PrimeWindow(6.0, (3, 5))
        L = 0.8
        lam = {p: EigenvalueTriple(p, math.sqrt(0.5 * L) + 0.1, 0.0, 0.0) for p in w.primes}
        K1 = 1
        spec = MultiplicitySpec(1, K1, w)
        amp = amplified_sum(A, w, lam, 1, [spec], 40)
        sharp = float(split_sharp_flat(A, [spec], 40).sharp)
        assert amp >= 0.5 * L * (len(w) - K1) * sharp - 1e-12

    @pytest.mark.parametrize("q", [None, 3, 7])
    def test_matches_quadext_evaluation(self, q):
        # the amplified sum in doubles of each exact |A(beta)|^2, in support order
        rng = random.Random(80 + (q or 0))
        w = PrimeWindow(6.0, (3, 5))
        lam = {3: EigenvalueTriple(3, 0.7, -1.1, 0.3), 5: EigenvalueTriple(5, -0.2, 0.9, 1.7)}
        A = CoefficientField.random(rng, support=14, coord_bound=5) if q is None else \
            fractional_field(rng, q, 12, 5, extra=[(3, 0, 0), (15, 0, 0)])
        specs = [MultiplicitySpec(1, 1, w)]
        for ell in (1, 2, 3):
            expected = 0.0
            for beta, value in A.entries.items():
                if lattice_norm(beta) <= 60 and specs[0].member(beta):
                    weight = sum(getattr(lam[p], f"lam{ell}") ** 2 for p in w.primes if any(c % p for c in beta))
                    expected += float(value.abs_sq()) * weight
            assert amplified_sum(A, w, lam, ell, specs, 60) == expected

    def test_missing_primes(self):
        w = PrimeWindow(6.0, (3, 5))
        with pytest.raises(KeyError):
            amplified_sum(CoefficientField.ones_ball(4), w, {3: EigenvalueTriple(3, 1, 1, 1)}, 1, [], 4)


def boundary_field(q, peak, support, seed):
    """A field over Q(sqrt q) on `support` random points of [-1, 1]^3 whose numerators reach `peak` in size."""
    rng = random.Random(seed)

    def scalar():
        return QuadExt(q, Fraction(peak - rng.randint(0, 9)), Fraction(rng.choice((-1, 1)) * (peak - rng.randint(0, 9))))

    entries = {}
    while len(entries) < support:
        beta = tuple(rng.randint(-1, 1) for _ in range(3))
        if beta != (0, 0, 0):
            entries[beta] = QComplex(scalar(), scalar())
    return CoefficientField(q, entries)


# Two support points past the int64 range of the norms (2^31 + 11) and of the keys (10^30 + 1),
# each a multiple M gamma_0 of a short vector.  M is prime to 2, 3, 5 and 7, so for every d, p and
# window here, d | M beta exactly when d | beta, and T_l A at M beta is T_l of the far entry at beta.
FAR = ((2 ** 31 + 11, (1, 1, 0)), (10 ** 30 + 1, (0, 0, 1)))
WINDOW = PrimeWindow.from_bound(6.0)  # primes 3 and 5


def far_variants(A):
    """(far, variants): the far entries as (M, delta field at gamma_0), and (field, k) for A with its
    first k - 1 far entries added: A itself, A past int64 in the norms, and A past it in the keys."""
    values = [QComplex(QuadExt(A.p, Fraction(5, 2), Fraction(-1)), QuadExt.of(3, A.p)),
              QComplex(QuadExt.of(-2, A.p), QuadExt(A.p, Fraction(1, 3), Fraction(4)))]
    far = [(M, CoefficientField(A.p, {gamma: v})) for (M, gamma), v in zip(FAR, values)]
    variants = [(A, 1)]
    for k in (1, 2):
        entries = dict(A.entries)
        entries.update({tuple(M * c for c in gamma): v for (M, gamma), v in zip(FAR[:k], values)})
        variants.append((CoefficientField(A.p, entries), k + 1))
    return far, variants


def by_norm_classes(reference, A, far, z, reach):
    """[reference(A, z), then reference(far part, z) for each far part], each from a run on a small ball.

    Every sum here adds over beta whose norm is reach N(gamma) for the support point gamma that
    reaches it, so the near part and each far part add separately: on A with the far points the
    sum is the total of the list.  The near part needs no ball past reach * A.support_radius, and
    the part of M gamma_0 is the sum of its delta at z / M^2.
    """
    return [reference(A, min(Fraction(z), reach * A.support_radius))] + [
        reference(delta, min(Fraction(z) / M ** 2, reach * delta.support_radius)) for M, delta in far]


def amplified_reference(A, window, lam, ell, specs, z):
    """amplified_sum in doubles of each exact |A(beta)|^2, in support order."""
    total = 0.0
    for beta, value in A.entries.items():
        if lattice_norm(beta) <= z and all(s.member(beta) for s in specs):
            weight = sum(getattr(lam[p], f"lam{ell}") ** 2 for p in window.primes if any(c % p for c in beta))
            total += float(value.abs_sq()) * weight
    return total


class TestInt64Boundary:
    """Every exact sum on numerators and coordinates on both sides of its int64 guards."""

    Q = 7
    SUPPORT = 10
    # |a| <= n (2 + 2q) M^2 and |b| <= 4 n M^2 on the n squares: int64 while n (4 + 2q) M^2 < 2^63
    SQUARE_EDGE = math.isqrt((2 ** 63 - 1) // (SUPPORT * (4 + 2 * Q)))
    # a T_l sum adds up to p + 1 numerators: int64 while M (p + 1) < 2^63, here for p = 3 and 5
    PEAKS = (SQUARE_EDGE, SQUARE_EDGE + 1, 10 ** 12, 2 ** 63 // 6 - 1, 2 ** 63 // 4 + 1, 2 ** 63 - 1, 2 ** 63 + 5)
    ZS = (0, Fraction(37, 3), 10 ** 30)

    def fields(self, peak):
        A = boundary_field(self.Q, peak, self.SUPPORT, seed=peak % 1000)
        assert max(abs(c) for row in A.nums.tolist() for c in row) == peak
        return A

    def test_square_totals_equal_the_row_sums(self):
        for M in self.PEAKS:
            nums = self.fields(M).nums
            a, b = sums._square_sum(nums, self.Q, M)
            for peak in (M, 2 ** 70):  # a bound past the true peak only widens the dtype
                ta, tb = sums._square_sum(nums, self.Q, peak, total=True)
                assert (int(ta), int(tb)) == (sum(map(int, a)), sum(map(int, b)))
        empty = np.zeros((0, 4), np.int64)
        assert [int(x) for x in sums._square_sum(empty, self.Q, 0, total=True)] == [0, 0]

    def test_the_peaks_straddle_the_guards(self):
        square_dtypes = [sums._square_sum(self.fields(M).nums, self.Q, M)[0].dtype
                         for M in self.PEAKS]
        assert square_dtypes == [np.int64] + [object] * (len(self.PEAKS) - 1)
        mats = conjugation_matrices(3)
        sum_dtypes = []
        for M in self.PEAKS:
            A = self.fields(M)
            sum_dtypes.append(hecke._conj_sum_rows(1, 3, A.keys, A.nums, mats, (A.key_peak, A.num_peak))[1].dtype)
        assert sum_dtypes == [np.int64] * 4 + [object] * 3
        assert self.fields(2 ** 63 + 5).nums.dtype == object
        _, variants = far_variants(self.fields(10 ** 12))
        dtypes = [(B.keys.dtype, B.norms.dtype) for B, _ in variants]
        assert dtypes == [(np.int64, np.int64), (np.int64, object), (object, object)]

    @pytest.mark.parametrize("peak", PEAKS)
    def test_S_and_split(self, peak):
        A = self.fields(peak)
        far, variants = far_variants(A)
        specs = [MultiplicitySpec(1, 0, WINDOW), MultiplicitySpec(2, 0, WINDOW)]
        for z in self.ZS:
            for d in (1, 2, 3):
                parts = by_norm_classes(lambda C, y: brute_force_S(C, d, y), A, far, z, 1)
                for field, k in variants:
                    got, expected = sum_S_d(field, d, z), sum(parts[1:k], parts[0])
                    assert got == expected and repr(got) == repr(expected), (z, d, k)
            parts = by_norm_classes(lambda C, y: brute_force_split(C, specs, y), A, far, z, 1)
            for field, k in variants:
                split, used = split_sharp_flat(field, specs, z), parts[:k]
                assert split.sharp == sum((sharp for sharp, _, _ in used[1:]), used[0][0])
                assert list(split.flats) == [sum((flats[i] for _, flats, _ in used[1:]), used[0][1][i]) for i in range(2)]
                assert split.total == sum((total for _, _, total in used[1:]), used[0][2])

    @pytest.mark.parametrize("peak", PEAKS)
    def test_R(self, peak):
        A = self.fields(peak)
        far, variants = far_variants(A)
        for p, ell, d in ((3, 0, 1), (3, 1, 1), (5, 1, 2), (3, 2, 3), (5, 2, 1)):
            for z in self.ZS:
                parts = by_norm_classes(lambda C, y: brute_force_R(C, p, ell, d, y), A, far, z,
                                        Fraction(p) ** (2 * ell - 2))
                for field, k in variants:
                    got, expected = sum_R(field, p, ell, d, z), sum(parts[1:k], parts[0])
                    assert got == expected and repr(got) == repr(expected), (p, ell, d, z, k)

    @pytest.mark.parametrize("peak", PEAKS[3:5])  # the inner sums just under and past their guard
    @pytest.mark.parametrize("ell", [1, 2])
    def test_L64_left(self, peak, ell):
        A = self.fields(peak)
        far, variants = far_variants(A)
        which = "L6.4a" if ell == 1 else "L6.4b"
        window = WINDOW if ell == 1 else PrimeWindow(3.0, (3,))  # keeps the brute-force ball at norm 27
        for z in self.ZS:
            for K in (0, 1):
                parts = by_norm_classes(lambda C, y: brute_force_L64_left(C, window, K, ell, y), A, far, z,
                                        max(window.primes) ** (2 * ell - 2))
                for field, k in variants:
                    left = inequality_report(which, A=field, z=z, window=window, K=K).left
                    assert left == float(sum(parts[1:k], parts[0])), (z, K, k)

    @pytest.mark.parametrize("peak", PEAKS[::3])
    def test_amplified(self, peak):
        lam = {3: EigenvalueTriple(3, 0.7, -1.1, 0.3), 5: EigenvalueTriple(5, -0.2, 0.9, 1.7)}
        for A, _ in far_variants(self.fields(peak))[1]:
            for specs in ([], [MultiplicitySpec(1, 1, WINDOW)],
                          [MultiplicitySpec(1, 0, WINDOW), MultiplicitySpec(2, 0, WINDOW)]):
                for z in self.ZS:
                    for ell in (1, 2):
                        got = amplified_sum(A, WINDOW, lam, ell, specs, z)
                        assert got == amplified_reference(A, WINDOW, lam, ell, specs, z)

    def test_divisors_past_int64(self):
        # d, p^ell past 2^63 divide no int64 key; on Python-int keys they divide the multiples
        A = self.fields(10 ** 12)
        huge = 3 ** 40
        B = CoefficientField(A.p, {**A.entries, (huge, 0, -huge): A.entries[next(iter(A.entries))]})
        assert A.keys.dtype == np.int64 and B.keys.dtype == object
        for d in (2 ** 63 + 1, huge):
            for field in (A, B):
                expected = A.entries[next(iter(A.entries))].abs_sq() if field is B and d == huge else 0
                assert sum_S_d(field, d, 10 ** 40) == expected
        assert sum_R(A, 3, 1, 2 ** 63 + 1, 10 ** 40) == sum_R(A, 3, 1, huge, 10 ** 40) == 0
        assert sum_R(B, 5, 1, 2 ** 63 + 1, 10 ** 40) == 0
        window = PrimeWindow(1000.0, (997,))  # 997^7 > 2^63
        for points in (list(ball_points(12)), [(997 ** 7, 0, 0), (0, 2 * 997 ** 7, 997 ** 8), (997 ** 6, 0, 0)]):
            for K in (0, 1):
                spec = MultiplicitySpec(7, K, window)
                assert spec.members(hecke._support_array(points)).tolist() == [spec.member(b) for b in points]

    @pytest.mark.parametrize("ell", [1, 2])
    def test_members_mask_equals_member(self, ell):
        ball = list(ball_points(200))
        far = [tuple(M * c for c in gamma) for M, gamma in FAR] + [(15 * 2 ** 40, 0, 45), (225, 10 ** 30 * 225, 0)]
        for window in (WINDOW, PrimeWindow.from_bound(14.0), PrimeWindow(3.0, (3,))):
            for K in (0, 1, 2):
                spec = MultiplicitySpec(ell, K, window)
                for points in (ball, ball + far):
                    keys = hecke._support_array(points)
                    assert spec.members(keys).tolist() == [spec.member(beta) for beta in points]
                assert spec.members(np.zeros((0, 3), np.int64)).tolist() == []
                keys = hecke._support_array(ball + far)
                hits = spec.hits(keys)
                assert [h.tolist() for h in hits] == [[all(c % p ** ell == 0 for c in beta) for beta in ball + far]
                                                      for p in window.primes]
                assert spec.members(keys, hits).tolist() == spec.members(keys).tolist()
        assert not all(MultiplicitySpec(ell, 0, WINDOW).members(hecke._support_array(ball)))


class TestParameters:
    def test_power_sum_base(self):
        lam = EigenvalueTriple(3, 123.0, 456.0, 0.0)
        assert eigen_power_sum(lam, 0) == 1.0

    def test_power_sum_one(self):
        lam = EigenvalueTriple(3, math.sqrt(2), 5.0, 0.0)
        assert eigen_power_sum(lam, 1) == pytest.approx(3.0)

    def test_power_sum_two(self):
        lam = EigenvalueTriple(3, 1.0, 2.0, 0.0)
        # (a,b) in {(0,0),(1,0),(2,0),(0,1)}: 1 + 1 + 1 + 4
        assert eigen_power_sum(lam, 2) == pytest.approx(7.0)

    def test_K_selection_example(self):
        w = PrimeWindow.from_bound(32.0)
        assert w.primes == (17, 19, 23, 29, 31)
        assert choose_parameters(1.0, w, 1.0, 1, 0.125) == 6

    def test_K_variant_without_L(self):
        # the small-eigenvalue variant without the L factor is the K of L = 1
        w = PrimeWindow.from_bound(32.0)
        assert choose_parameters(1.0, w, 1.0, 1, 0.125) < choose_parameters(1.0, w, 10.0, 1, 0.125)

    def test_parameter_validation(self):
        w = PrimeWindow.from_bound(32.0)
        with pytest.raises(ValueError):
            choose_parameters(0.5, w, 1.0, 1, 0.125)
        with pytest.raises(ValueError):
            choose_parameters(1.0, w, 1.0, 1, 1.5)

    @pytest.mark.parametrize("call,message", [
        (lambda A, lam: sum_S_d(A, 0, 9), "^d must be a positive integer$"),
        (lambda A, lam: sum_R(A, 3, 1, 0, 9), "^need d >= 1$"),
        (lambda A, lam: PrimeWindow(10.0, (3,)), r"^prime 3 outside window \[5.0, 10.0\]$"),
        (lambda A, lam: inequality_report("Cor6.2", A=A, z=9, d=4, lam_table={3: lam}), "^d must be odd$"),
        (lambda A, lam: inequality_report("Prop6.1", A=A, z=9, p=3, k=1, c=6, lam=lam), "^c must be coprime to p$"),
        (lambda A, lam: inequality_report("L6.3iii", A=A, z=9, p=3, c=3, k=1, ell=1), "^c must be coprime to p$"),
    ])
    def test_refused_input_named(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(CoefficientField.ones_ball(9, p=3), EigenvalueTriple(3, 1.0, 0.5, 0.1))

    def test_exponents_past_the_ceiling_refused_and_the_ceiling_accepted(self, time_limit):
        # eigen_power_sum adds about ell^2/4 terms: Prop6.1 at k = 100000 once ran past 30 s
        top = sums.MAX_EXPONENT
        lam = EigenvalueTriple(3, 1.0, 0.5, 0.1)
        A = CoefficientField.ones_ball(9, p=7)
        window = PrimeWindow.from_bound(6.0)
        table = {p: lam for p in window.primes}
        calls = {
            "eigen_power_sum": lambda e: eigen_power_sum(lam, e),
            "sum_R": lambda e: sum_R(A, 3, e, 1, 9),
            "Prop6.1": lambda e: inequality_report("Prop6.1", A=A, z=9, p=3, k=e, lam=lam),
            "L6.3ii": lambda e: inequality_report("L6.3ii", A=A, z=9, p=3, d=1, ell=e, lam=lam),
            "L6.3iii k": lambda e: inequality_report("L6.3iii", A=A, z=9, p=3, c=1, k=e, ell=1),
            "L6.3iii ell": lambda e: inequality_report("L6.3iii", A=A, z=9, p=3, c=1, k=1, ell=e),
            "L6.5": lambda e: inequality_report("L6.5", A=A, z=9, window=window, K=1, ell=e, lam_table=table),
        }
        with time_limit(10):
            for name, call in calls.items():
                for bad in (top + 1, 10 ** 5, -1):
                    with pytest.raises(ValueError, match=rf"= {bad} is outside \[0, MAX_EXPONENT = {top}\]"):
                        call(bad)
                assert call(top) is not None, name

    @pytest.mark.parametrize("which,kw", [
        ("Prop6.1", {"p": 3, "k": 400}),  # |lambda_1|^800
        ("Prop6.1", {"p": 3, "k": 2, "const_A": 1e300}),
        ("L6.5", {"K": 1, "ell": 400}),
        ("L6.5", {"K": 400.0, "ell": 1, "const_B": 5.0}),  # (P/2)^(2 (K + 1)) in doubles: K is a float, as read
        ("L6.5", {"K": 1e300, "ell": 1, "const_B": 5.0}),
        ("L6.4a", {"K": 1e308}),  # K S(z) is inf
        ("Cor6.2", {"d": 9, "const_A": 1e300}),
    ])
    def test_side_past_the_double_range_named(self, which, kw):
        # each once raised OverflowError, or printed right=inf
        lam = EigenvalueTriple(3, 3.0, 0.5, 0.1)
        window = PrimeWindow.from_bound(6.0)
        A = CoefficientField.ones_ball(9, p=7)
        with pytest.raises(ValueError, match=rf"^{which}: the right side leaves the double range$"):
            inequality_report(which, A=A, z=9, lam=lam, lam_table={3: lam, 5: lam}, window=window, **kw)

    @pytest.mark.parametrize("K", [-1, -0.5, math.nan])
    def test_negative_cutoff_refused(self, K):
        # K = -1 once divided by K + 1 = 0 in L6.5
        window = PrimeWindow.from_bound(6.0)
        lam = EigenvalueTriple(3, 1.0, 0.5, 0.1)
        with pytest.raises(ValueError, match="the cutoff K of M_ell"):
            MultiplicitySpec(1, K, window)
        for which in ("L6.4a", "L6.4b", "L6.5"):
            with pytest.raises(ValueError, match="the cutoff K of M_ell"):
                inequality_report(which, A=CoefficientField.ones_ball(9), z=9, window=window, K=K, ell=1,
                                  lam_table={3: lam, 5: lam})

    def test_missing_window_primes_named(self):
        # this once raised a bare KeyError(7)
        lam = {3: EigenvalueTriple(3, 0.1, 0.1, 0.1)}
        window = PrimeWindow.from_bound(14)
        with pytest.raises(KeyError, match=r"missing primes \[7, 11, 13\]"):
            amplified_sum(CoefficientField.ones_ball(9), window, lam, 1, [MultiplicitySpec(1, 1, window)], 9)


class TestPartition:
    def table(self, lam1=0.001, lam2=0.001, lam3=1.2):
        return {p: EigenvalueTriple(p, lam1, lam2, lam3) for p in (17, 19, 23, 29, 31)}

    def test_window_for_power_of_two(self):
        part = partition_primes(self.table(), 2.0 ** 40)
        assert part.Q == (17, 19, 23, 29, 31)
        assert part.P == pytest.approx(32.0)

    def test_small_values_collect_in_zero_bin(self):
        lam = {p: EigenvalueTriple(p, math.sqrt(1 / 200), 0.0, 0.0) for p in (17, 19, 23, 29, 31)}
        part = partition_primes(lam, 2.0 ** 40)
        assert part.best == (0, 0, 0)
        assert len(part.best_cell) == 5

    def test_consistent_eigendata_leaves_zero_cell(self):
        lam = {p: EigenvalueTriple.from_lam12(p, 0.05, 0.05) for p in (17, 19, 23, 29, 31)}
        part = partition_primes(lam, 2.0 ** 40)
        assert part.best_is_nonzero
        assert all(abs(lam[p].relation_residual()) < 1e-12 for p in part.Q)

    def test_cells_partition_window(self):
        part = partition_primes(self.table(), 2.0 ** 40)
        assert sorted(p for cell in part.cells.values() for p in cell) == list(part.Q)
        assert len(part.best_cell) >= len(part.Q) / (part.J + 1) ** 3

    def test_dyadic_boundaries(self):
        lam = {p: EigenvalueTriple(p, math.sqrt(2 / 100), 0.0, 1.0) for p in (17, 19, 23, 29, 31)}
        part = partition_primes(lam, 2.0 ** 40)
        (i, j, k) = part.best
        assert i == 1  # |lam1|^2 = 2/100 sits at the top of bin 1

    def test_missing_primes_found_quickly(self, time_limit):
        # P = 10^10 and 10^37.5: windows of about 2 * 10^8 and 10^35 primes, none in the table
        lam = {p: EigenvalueTriple(p, 0.1, 0.1, 0.1) for p in (3, 5, 7)}
        windows = ((1e80, r"\[5e\+09, 1e\+10\]"), (1e300, r"\[1\.58114e\+37, 3\.16228e\+37\]"))
        for y, window in windows:
            with time_limit(10), pytest.raises(KeyError, match="table ends at 7, below the prime window " + window):
                partition_primes(lam, y)
        # a window that starts inside the table: the scan stops at, and names, its first missing prime
        table = {p: lam[3] for p in (17, 19, 23, 29, 31, 97)}
        with time_limit(10), pytest.raises(KeyError, match=r"missing the prime 37 of the window \[20\.7"):
            partition_primes(table, 2.0 ** 43)
        assert partition_primes(table, 2.0 ** 40).Q == (17, 19, 23, 29, 31)

    def test_out_of_range_eigenvalue(self):
        lam = {p: EigenvalueTriple(p, 10.0 ** 9, 0.0, 0.0) for p in (17, 19, 23, 29, 31)}
        with pytest.raises(ValueError):
            partition_primes(lam, 2.0 ** 40)


class TestLambda3Bound:
    def test_exceeds_half_for_all_odd_primes_to_97(self):
        for p in range(3, 98):
            if p % 2 and all(p % q for q in range(3, p) if q * q <= p):
                assert lambda3_lower_bound_sq(p) >= Fraction(1, 2)

    def test_all_small_triples_are_inconsistent(self):
        # |lambda_3|^2 <= 1/100 contradicts the exact lower bound
        for p in (3, 5, 97):
            assert lambda3_lower_bound_sq(p) > Fraction(1, 100)

    def test_bound_is_positive_and_p_must_be_an_odd_prime(self):
        # the bound 89/100 + 9/(10p) + 1/p^2 + 1/p^3 is above 0.89 at every odd prime, so it is never clamped
        for p in (3, 5, 97, 997):
            bound = hecke_relation_constant(p) - Fraction(1, 100) - (1 + Fraction(1, p)) / 10
            assert bound == Fraction(89, 100) + Fraction(9, 10 * p) + Fraction(1, p * p) + Fraction(1, p ** 3)
            assert lambda3_lower_bound_sq(p) == bound * bound > Fraction(89, 100) ** 2
        for p in (1, 2, 9, 1009):
            with pytest.raises(ValueError, match=f"^p = {p} is past|^p must be an odd prime, got {p}$"):
                lambda3_lower_bound_sq(p)


class TestInequalityReports:
    def test_vacuous_zero_field(self):
        rep = inequality_report("L6.3i", A=CoefficientField.zero(), z=81, p=3, d=1,
                                lam=EigenvalueTriple(3, 1.0, 1.0, 1.0))
        assert rep.vacuous
        assert rep.ratio is None

    def test_L63i_ones_ball(self):
        A = CoefficientField.ones_ball(81)
        lam = EigenvalueTriple(3, 1.0, 0.0, 0.0)
        rep = inequality_report("L6.3i", A=A, z=81, p=3, d=1, lam=lam)
        assert rep.left == pytest.approx(float(sum_S_d(A, 3, 81)))
        assert rep.left == 122.0  # multiples of 3 with norm <= 81 = ball of norm 9
        expected_right = (
            lam.lam1 ** 2 * float(sum_S_d(A, 1, 9))
            + float(sum_S_d(A, 1, 1))
            + float(sum_R(A, 3, 1, 1, 9))
        )
        assert rep.right == pytest.approx(expected_right)
        assert rep.ratio == pytest.approx(rep.left / rep.right)

    def test_L64a_finite_ratio(self):
        A = CoefficientField.ones_ball(25)
        w = PrimeWindow(6.0, (3, 5))
        rep = inequality_report("L6.4a", A=A, z=25, window=w, K=2)
        assert rep.right == 2 * len(list(ball_points(25)))
        assert rep.ratio is not None and rep.ratio >= 0

    @pytest.mark.parametrize("which", ["L6.4a", "L6.4b"])
    def test_L64_left_is_rounded_exact_sum(self, which):
        w = PrimeWindow.from_bound(6.0)  # primes 3 and 5
        ell = 1 if which == "L6.4a" else 2
        rng = random.Random(17)
        fields = [
            CoefficientField.random(rng, support=10, coord_bound=2).symmetrized(),
            fractional_field(rng, 7, support=8, coord_bound=2),
            fractional_field(rng, 3, support=8, coord_bound=2, symmetric=True),
        ]
        for A in fields:
            z = A.support_radius * (1 if ell == 1 else 4)
            for K in (0, 1):
                exact = brute_force_L64_left(A, w, K, ell, z)
                rep = inequality_report(which, A=A, z=z, window=w, K=K)
                assert rep.left == float(exact)
                if K == 1:
                    assert exact != 0

    def test_L65_asserts_with_generous_constant(self):
        rng = random.Random(11)
        A = CoefficientField.random(rng, support=10, coord_bound=5)
        w = PrimeWindow(6.0, (3, 5))
        lam = {p: EigenvalueTriple(p, 1.0, 1.0, 0.0) for p in (3, 5)}
        rep = inequality_report("L6.5", A=A, z=40, window=w, K=1, ell=1, lam_table=lam, const_B=50.0)
        rep.asserted()

    def test_prop61_asserts_with_generous_constant(self):
        A = CoefficientField.ones_ball(81)
        lam = EigenvalueTriple(3, 1.0, 1.0, 0.0)
        rep = inequality_report("Prop6.1", A=A, z=81, p=3, k=1, c=1, lam=lam, const_A=100.0)
        rep.asserted()

    def test_assert_failure_raises(self):
        A = CoefficientField.ones_ball(81)
        lam = EigenvalueTriple(3, 0.0, 0.0, 0.0)
        # right side is zero-ish with A-constant 0 < left
        rep = inequality_report("Prop6.1", A=A, z=81, p=3, k=1, c=1, lam=lam, const_A=1e-9)
        with pytest.raises(AssertionError):
            rep.asserted()

    def test_L63ii_and_iii_shapes(self):
        rng = random.Random(13)
        A = CoefficientField.random(rng, support=8, coord_bound=4)
        lam = EigenvalueTriple(3, 0.5, 0.5, 0.0)
        rep2 = inequality_report("L6.3ii", A=A, z=810, p=3, d=1, ell=1, lam=lam)
        assert rep2.left >= 0 and rep2.right >= 0
        rep3 = inequality_report("L6.3iii", A=A, z=810, p=3, c=1, k=1, ell=1)
        assert rep3.left >= 0

    def test_L63iii_ell_zero_threshold_shrinks(self):
        # ell = 0 sends the right side to the ball of norm z * p^2, exactly
        A = CoefficientField.ones_ball(90)
        rep = inequality_report("L6.3iii", A=A, z=10, p=3, c=1, k=0, ell=0)
        assert rep.right == float(sum_S_d(A, 1, 90))
        assert rep.left >= 0

    def test_cor62(self):
        A = CoefficientField.ones_ball(250)
        lam = {3: EigenvalueTriple(3, 1.0, 1.0, 0.0), 5: EigenvalueTriple(5, 1.0, 1.0, 0.0)}
        rep = inequality_report("Cor6.2", A=A, z=225, d=15, lam_table=lam)
        assert rep.left == pytest.approx(float(sum_S_d(A, 15, 225)))
        assert rep.left == 6.0  # multiples of 15 with norm <= 225: the six unit directions
        rep.asserted() if rep.left <= rep.right else None

    def test_cor62_factors_with_multiplicity(self):
        # d = 3^2 * 5 * 7: the product of A^v * power sum over the prime powers of d
        A = CoefficientField.ones_ball(30)
        lam = {p: EigenvalueTriple.from_lam12(p, 0.1 * p, -0.3) for p in (3, 5, 7, 11)}
        rep = inequality_report("Cor6.2", A=A, z=Fraction(3 * 315 ** 2), d=315, lam_table=lam, const_A=1.5)
        prod = 1.5 ** 2 * eigen_power_sum(lam[3], 2) * 1.5 * eigen_power_sum(lam[5], 1) \
            * 1.5 * eigen_power_sum(lam[7], 1)
        assert rep.right == prod * float(sum_S_d(A, 1, 3))
        assert inequality_report("Cor6.2", A=A, z=9, d=1, lam_table={}).right == float(sum_S_d(A, 1, 9))

    @pytest.mark.parametrize("d,primes,message", [
        (999999937, (3, 5, 7), "ends at 7, below every prime factor of 999999937, which divides d = 999999937"),
        (3 * 999999937, (3, 5, 7), "below every prime factor of 999999937, which divides d = 2999999811"),
        (5 * 7 * 1000003 ** 2, (3, 5, 7), "ends at 7, below every prime factor of 1000006000009, which divides"),
        (2 ** 89 - 1, (3, 5, 7), "ends at 7, below every prime factor of 618970019642690137449562111, which"),
        (3 * 11, (3, 5, 7), "missing the prime 11 of d = 33"),
        (1000003 * 1000033, (1000033,), "missing the prime 1000003 of d = 1000036000099"),
    ])
    def test_cor62_names_missing_factor_quickly(self, d, primes, message, time_limit):
        # trial division stops at sqrt(rest) or past the table's largest prime, whichever comes first
        lam = {p: EigenvalueTriple.from_lam12(p, 0.1, 0.1) for p in primes}
        with time_limit(10), pytest.raises(KeyError, match=message):
            inequality_report("Cor6.2", A=CoefficientField.ones_ball(4), z=9, d=d, lam_table=lam)

    def test_unknown_inequality(self):
        with pytest.raises(ValueError):
            inequality_report("L9.9", A=CoefficientField.zero(), z=1)
