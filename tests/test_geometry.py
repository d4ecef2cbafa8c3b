import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from h4hecke import geometry
from h4hecke.clifford import CliffordElement, inverse as cl_inverse
from h4hecke.geometry import (
    CuspDecompositionReport,
    IsometryMatrix,
    PointH4,
    act,
    apply_word,
    cosh_distance,
    inversion,
    is_in_region,
    is_integral_sv2,
    is_similitude,
    pseudo_det,
    reduce_to_fundamental_domain,
    rotation,
    translation,
    verify_cusp_decomposition,
    word_to_matrix,
)
from h4hecke.quaternions import Quaternion


def random_integral_matrix(rng: random.Random, length: int = 6) -> IsometryMatrix:
    g = IsometryMatrix.identity()
    for _ in range(length):
        choice = rng.randrange(5)
        if choice == 0:
            m = inversion()
        elif choice == 1:
            m = rotation(rng.choice("ijk"))
        else:
            m = translation(tuple(rng.randint(-2, 2) for _ in range(3)))
        g = m @ g
    return g


class TestPseudoDet:
    def test_identity(self):
        assert pseudo_det(IsometryMatrix.identity()) == 1

    def test_inversion(self):
        assert pseudo_det(inversion()) == 1

    def test_translation(self):
        assert pseudo_det(translation((1, 2, 3))) == 1

    def test_rotations(self):
        for axis in "ijk":
            assert pseudo_det(rotation(axis)) == 1

    def test_non_similitude_reported(self):
        g = IsometryMatrix(Quaternion(1, 0, 0, 0), Quaternion(0, 0, 0, 0),
                           Quaternion(0, 0, 0, 0), Quaternion(0, 1, 0, 0))
        with pytest.raises(ValueError, match="not a similitude"):
            pseudo_det(g)

    def test_hecke_style_similitude(self):
        g = IsometryMatrix(Quaternion(1, 0, 0, 0), Quaternion(0, 0, 0, 0),
                           Quaternion(0, 0, 0, 0), Quaternion(3, 0, 0, 0))
        assert pseudo_det(g) == 3
        assert is_similitude(g)


def _c2(q: Quaternion) -> CliffordElement:
    """q in C_2 with i = e1, j = e2, k = e12."""
    return CliffordElement(2, {(): Fraction(q.a), (1,): Fraction(q.b), (2,): Fraction(q.c),
                               (1, 2): Fraction(q.d)})


def _c2_matmul(g, h):
    """2x2 product of matrices given as Clifford 4-tuples (a, b, c, d)."""
    a1, b1, c1, d1 = g
    a2, b2, c2, d2 = h
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def _random_word(rng: random.Random, length: int) -> tuple:
    tokens = [("inversion",), ("rot_i",), ("rot_j",), ("rot_k",)]
    return tuple(rng.choice(tokens) if rng.random() < 0.5
                 else ("translate", tuple(rng.randint(-3, 3) for _ in range(3)))
                 for _ in range(length))


def _random_fraction_matrix(rng: random.Random) -> IsometryMatrix:
    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return IsometryMatrix(*(Quaternion(*(entry() for _ in range(4))) for _ in range(4)))


class TestTupleLayerAgainstClifford:
    """The matrix layer's products on coordinate tuples against the same products in C_2."""

    def test_word_to_matrix(self):
        rng = random.Random(31)
        one, zero = CliffordElement.scalar(2, 1), CliffordElement.zero(2)
        for _ in range(200):
            word = _random_word(rng, rng.randint(0, 10))
            expected = (one, zero, zero, one)
            for token in word:
                token_c2 = tuple(_c2(q) for q in word_to_matrix((token,)).entries())
                expected = _c2_matmul(token_c2, expected)
            g = word_to_matrix(word)
            assert tuple(_c2(q) for q in g.entries()) == expected
            # integral words keep Python int entries
            assert all(type(x) is int for q in g.entries() for x in q.coords())

    def test_matmul_with_fraction_entries(self):
        rng = random.Random(32)
        for _ in range(100):
            g, h = _random_fraction_matrix(rng), _random_fraction_matrix(rng)
            expected = _c2_matmul(tuple(map(_c2, g.entries())), tuple(map(_c2, h.entries())))
            assert tuple(_c2(q) for q in (g @ h).entries()) == expected

    def test_pseudo_det(self):
        rng = random.Random(33)
        for _ in range(200):
            if rng.random() < 0.5:
                g = _random_fraction_matrix(rng)
            else:
                # a word scaled by a rational: mu = scale^2, Fraction entries
                scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                g = IsometryMatrix(*(q * scale for q in word_to_matrix(_random_word(rng, 10)).entries()))
            a, b, c, d = map(_c2, g.entries())
            mu = a * d.reverse() - b * c.reverse()
            if mu.is_scalar:
                assert pseudo_det(g) == mu.real_part
                assert type(pseudo_det(g)) is Fraction
            else:
                with pytest.raises(ValueError, match="not a similitude"):
                    pseudo_det(g)


class TestIntegralMembership:
    def test_generators_integral(self):
        for g in (IsometryMatrix.identity(), inversion(), translation((1, -2, 0)),
                  rotation("i"), rotation("j"), rotation("k")):
            assert is_integral_sv2(g)

    def test_half_integer_rejected(self):
        g = IsometryMatrix(Quaternion(1, 0, 0, 0), Quaternion(Fraction(1, 2), 0, 0, 0),
                           Quaternion(0, 0, 0, 0), Quaternion(1, 0, 0, 0))
        assert not is_integral_sv2(g)

    def test_k_translation_rejected(self):
        # b = k fails a b^* in V3 even though all entries are integral
        g = IsometryMatrix(Quaternion(1, 0, 0, 0), Quaternion(0, 0, 0, 1),
                           Quaternion(0, 0, 0, 0), Quaternion(1, 0, 0, 0))
        assert not is_integral_sv2(g)

    def test_random_words_integral(self):
        rng = random.Random(11)
        for _ in range(20):
            assert is_integral_sv2(random_integral_matrix(rng))


class TestAction:
    def test_inversion_at_low_point(self):
        z = act(inversion(), (0, 0, 0, 0.5))
        assert max(abs(a - b) for a, b in zip(z.as_tuple(), (0, 0, 0, 2))) < 1e-12

    def test_translation(self):
        z = act(translation((1, 2, 3)), (0, 0, 0, 1))
        assert max(abs(a - b) for a, b in zip(z.as_tuple(), (1, 2, 3, 1))) < 1e-12

    def test_inversion_squared_is_identity(self):
        z = PointH4(0.3, -0.2, 0.7, 1.4)
        zz = act(inversion(), act(inversion(), z))
        assert max(abs(a - b) for a, b in zip(z.as_tuple(), zz.as_tuple())) < 1e-12

    def test_group_action_homomorphism(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_integral_matrix(rng, 4)
            h = random_integral_matrix(rng, 4)
            z = PointH4(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2),
                        rng.uniform(0.2, 3))
            lhs = act(g @ h, z)
            rhs = act(g, act(h, z))
            assert max(abs(a - b) for a, b in zip(lhs.as_tuple(), rhs.as_tuple())) < 1e-10

    def test_action_is_isometry(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_integral_matrix(rng, 5)
            z = PointH4(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.3, 4))
            w = PointH4(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.3, 4))
            assert cosh_distance(act(g, z), act(g, w)) == pytest.approx(cosh_distance(z, w), abs=1e-9)

    def test_inversion_height_is_y_over_norm(self):
        rng = random.Random(13)
        for _ in range(20):
            z = PointH4(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.2, 3))
            assert act(inversion(), z).y == pytest.approx(z.y / z.norm_sq, rel=1e-12)

    def test_nonpositive_mu_rejected(self):
        g = IsometryMatrix(Quaternion(-1, 0, 0, 0), Quaternion(0, 0, 0, 0),
                           Quaternion(0, 0, 0, 0), Quaternion(1, 0, 0, 0))
        with pytest.raises(ValueError):
            act(g, (0, 0, 0, 1))

    def test_non_similitude_families_rejected(self):
        # [[1, 0], [x, 1]] and [[1, x], [0, 1]] have mu = 1, but an integral x
        # with a k-part puts a k-component into d c^* or a b^*.
        one, zero = Quaternion(1, 0, 0, 0), Quaternion(0, 0, 0, 0)
        for coords in itertools.product(range(-2, 3), repeat=4):
            if coords[3] == 0:
                continue
            x = Quaternion(*coords)
            for g in (IsometryMatrix(one, zero, x, one), IsometryMatrix(one, x, zero, one)):
                assert not is_similitude(g)
                with pytest.raises(AssertionError):
                    act(g, (0.1, 0.2, 0.3, 1.0))

    def test_matches_exact_clifford_computation(self):
        # same Moebius formula evaluated exactly inside C_3
        def to_c3(q: Quaternion) -> CliffordElement:
            return CliffordElement(3, {(): Fraction(q.a), (1,): Fraction(q.b),
                                       (2,): Fraction(q.c), (1, 2): Fraction(q.d)})

        rng = random.Random(21)
        for _ in range(10):
            g = random_integral_matrix(rng, 4)
            coords = [Fraction(rng.randint(-8, 8), 4) for _ in range(3)] + [Fraction(rng.randint(1, 12), 4)]
            zc = CliffordElement(3, {(): coords[0], (1,): coords[1], (2,): coords[2], (3,): coords[3]})
            a, b, c, d = (to_c3(q) for q in g.entries())
            den_inv = cl_inverse(c * zc + d)
            exact = (a * zc + b) * den_inv
            assert exact.is_vector
            expected = [float(x) for x in exact.vector_coords()]
            got = act(g, tuple(float(c) for c in coords)).as_tuple()
            assert max(abs(x - y) for x, y in zip(expected, got)) < 1e-10


class TestRegions:
    def test_fundamental_domain_examples(self):
        assert is_in_region((0, 0, 0, 2), "F")
        assert not is_in_region((0, 0, 0, 0.5), "F")
        assert not is_in_region((0.3, -0.1, 0.2, 3), "F")

    def test_cusp_regions(self):
        assert is_in_region((0.2, 0.3, 0.1, 5), "S_T", T=2)
        assert not is_in_region((0.2, 0.3, 0.1, 1.5), "S_T", T=2)
        assert is_in_region((-0.4, -0.4, 0.5, 2.5), "S~_T", T=2)
        assert not is_in_region((-0.6, 0.0, 0.0, 2.5), "S~_T", T=2)

    def test_T_below_one_rejected(self):
        with pytest.raises(ValueError):
            is_in_region((0, 0, 0, 2), "S_T", T=0.5)


class TestReduction:
    def test_single_inversion(self):
        word, point = reduce_to_fundamental_domain((0, 0, 0, 0.5))
        assert word == (("inversion",),)
        assert max(abs(a - b) for a, b in zip(point.as_tuple(), (0, 0, 0, 2))) < 1e-12

    def test_single_translation(self):
        word, point = reduce_to_fundamental_domain((0.7, 0.3, 0.2, 5))
        assert word == (("translate", (-1, 0, 0)),)
        assert max(abs(a - b) for a, b in zip(point.as_tuple(), (-0.3, 0.3, 0.2, 5))) < 1e-12

    def test_interior_point_unchanged(self):
        word, point = reduce_to_fundamental_domain((0.1, 0.2, 0.3, 2))
        assert word == ()
        assert point.as_tuple() == (0.1, 0.2, 0.3, 2)

    def test_inversion_without_underflow(self):
        # |z|^2 = 1e-400 underflows to 0.0; z/|z|^2 does not overflow
        word, point = reduce_to_fundamental_domain((0, 0, 0, 1e-200))
        assert word == (("inversion",),)
        assert point.as_tuple() == (0, 0, 0, 1e200)

    def test_inversion_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            reduce_to_fundamental_domain((0, 0, 0, 1e-320))

    @pytest.mark.parametrize("z", [(0, 0, 0, math.inf), (math.inf, 0, 0, 1), (0, math.nan, 0, 1)])
    def test_non_finite_point_rejected(self, z):
        # one ValueError naming the point, before any step: no "already
        # reduced" answer at y = inf and no OverflowError from math.floor
        with pytest.raises(ValueError, match="non-finite coordinate") as info:
            reduce_to_fundamental_domain(z)
        assert str(tuple(map(float, z))) in str(info.value)

    def test_soundness_on_random_points(self):
        rng = random.Random(2)
        for _ in range(200):
            z = PointH4(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3),
                        rng.uniform(0.05, 50))
            word, reduced = reduce_to_fundamental_domain(z)
            assert is_in_region(reduced, "F", tol=1e-9)
            g = word_to_matrix(word)
            assert is_integral_sv2(g)
            via_matrix = act(g, z) if word else z
            assert max(abs(a - b) for a, b in zip(via_matrix.as_tuple(), reduced.as_tuple())) < 1e-9
            via_word = apply_word(word, z)
            assert max(abs(a - b) for a, b in zip(via_word.as_tuple(), reduced.as_tuple())) < 1e-9


class TestRotationFlips:
    def test_act_of_rotation_is_the_flipped_point(self):
        # diag(u, u') moves (x0, x1, x2, y) by the sign flip of u and keeps y
        rng = random.Random(11)
        flips = {"i": (-1, -1, 1), "j": (-1, 1, -1), "k": (1, -1, -1)}
        for _ in range(300):
            z = PointH4(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.05, 50))
            for axis, (s0, s1, s2) in flips.items():
                assert act(rotation(axis), z) == PointH4(s0 * z.x0, s1 * z.x1, s2 * z.x2, z.y), (axis, z)

    def test_cusp_flips_match_the_rotations(self):
        from h4hecke.geometry import _CUSP_COPIES
        rng = random.Random(12)
        assert [name for name, _ in _CUSP_COPIES] == ["identity", "rot_i", "rot_j", "rot_k"]
        assert _CUSP_COPIES[0][1] == (1, 1, 1)
        for _ in range(100):
            z = PointH4(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(1, 8))
            for name, (s0, s1, s2) in _CUSP_COPIES[1:]:
                assert PointH4(s0 * z.x0, s1 * z.x1, s2 * z.x2, z.y) == act(rotation(name[-1]), z)


# The copies of S_T as the sign flips of test_act_of_rotation_is_the_flipped_point, in report order.
_COPIES = (("identity", (1, 1, 1)), ("rot_i", (-1, -1, 1)), ("rot_j", (-1, 1, -1)), ("rot_k", (1, -1, -1)))


def _reference_hits(z: PointH4, T: float, copies=_COPIES) -> list[str]:
    """The copies holding z: z flipped back by each copy's rotation lies in S_T."""
    return [name for name, (s0, s1, s2) in copies
            if is_in_region(PointH4(s0 * z.x0, s1 * z.x1, s2 * z.x2, z.y), "S_T", T=T)]


def _reference_cusp_report(T: float, sample_count: int, seed: int, copies=_COPIES) -> CuspDecompositionReport:
    """verify_cusp_decomposition as a per-sample loop on PointH4 flips and is_in_region."""
    rng = random.Random(seed)
    matches = {name: 0 for name, _ in copies}
    interior = ties = 0
    for _ in range(sample_count):
        z = PointH4(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                    rng.uniform(T, 4.0 * T))
        hits = _reference_hits(z, T, copies)
        if min(abs(z.x1), abs(z.x2)) <= 1e-9:
            ties += 1
            continue
        interior += 1
        if len(hits) != 1:
            raise AssertionError(f"sample {z} matched {hits!r} instead of exactly one region")
        matches[hits[0]] += 1
    return CuspDecompositionReport(T=T, samples=sample_count, interior_checked=interior,
                                   boundary_ties=ties, matches_by_matrix=matches)


class TestCuspDecomposition:
    def test_specific_interior_points(self):
        from h4hecke.geometry import _cusp_hits
        for z, expected in ((PointH4(0.2, 0.3, 0.4, 7), ["identity"]), (PointH4(0.2, -0.3, 0.4, 7), ["rot_i"]),
                            (PointH4(-0.2, 0.3, -0.4, 7), ["rot_j"]), (PointH4(0.2, -0.3, -0.4, 7), ["rot_k"])):
            assert _reference_hits(z, 2) == expected
            hits = _cusp_hits(np.array(z.as_tuple())[:, None], 2)[:, 0]
            assert [name for (name, _), hit in zip(_COPIES, hits) if hit] == expected

    def test_boundary_tie_reported(self):
        from h4hecke.geometry import _cusp_hits
        z = PointH4(0.2, 0.0, 0.4, 7)
        assert len(_reference_hits(z, 2)) == 2  # boundary x1 = 0 is shared
        assert _cusp_hits(np.array(z.as_tuple())[:, None], 2).sum() == 2

    @pytest.mark.parametrize("T", [0.5, math.nan, 1e308, math.inf])
    def test_rejects_T_without_finite_sample_range(self, T):
        # heights are drawn from [T, 4T]; at T = 1e308 every one would be inf
        with pytest.raises(ValueError, match="4T finite"):
            verify_cusp_decomposition(T, 3)

    def test_sampled_tiling(self):
        report = verify_cusp_decomposition(2.0, 300, seed=4)
        assert report.interior_checked + report.boundary_ties == 300
        assert report.interior_checked == sum(report.matches_by_matrix.values())
        assert all(v > 0 for v in report.matches_by_matrix.values())

    def test_negative_count_refused(self):
        with pytest.raises(ValueError, match="sample count must be at least 0, got -3"):
            verify_cusp_decomposition(2.0, -3)
        empty = verify_cusp_decomposition(2.0, 0)
        assert (empty.samples, empty.interior_checked, empty.boundary_ties) == (0, 0, 0)
        assert empty.matches_by_matrix == {"identity": 0, "rot_i": 0, "rot_j": 0, "rot_k": 0}

    @pytest.mark.parametrize("T", [1.0, 1.5, 2.0, 1e6])
    def test_matches_per_sample_loop(self, monkeypatch, T):
        # 157 samples in blocks of 64: two full blocks and a partial one
        monkeypatch.setattr(geometry, "_CUSP_BLOCK", 64)
        for seed in range(20):
            for count in (1, 63, 157):
                report = verify_cusp_decomposition(T, count, seed=seed)
                expected = _reference_cusp_report(T, count, seed)
                assert report == expected
                assert list(report.matches_by_matrix) == list(expected.matches_by_matrix)

    def test_matches_per_sample_loop_past_one_full_block(self):
        count = geometry._CUSP_BLOCK + 1001
        assert verify_cusp_decomposition(1.0, count, seed=3) == _reference_cusp_report(1.0, count, 3)

    def test_boundary_ties_match_per_sample_loop(self, monkeypatch):
        # draws within 2e-9 of 0.5 put x1 and x2 within 2e-9 of the sign boundaries, so about
        # three samples in four are ties
        class NearHalf(random.Random):
            def random(self):
                return 0.5 + (super().random() - 0.5) * 4e-9

        monkeypatch.setattr(random, "Random", NearHalf)  # for the reference too
        report = verify_cusp_decomposition(2.0, 200, seed=5)
        assert report == _reference_cusp_report(2.0, 200, 5)
        assert 0 < report.boundary_ties < 200 and report.interior_checked > 0

    @pytest.mark.parametrize("copies", [
        (*_COPIES, ("again", (1, 1, 1))),  # the identity twice: every sample with x1, x2 > 0 overlaps
        _COPIES[1:],  # the identity missing: a sample with x1, x2 > 0 is in no copy
    ])
    def test_overlap_or_gap_fires(self, monkeypatch, copies):
        monkeypatch.setattr(geometry, "_CUSP_COPIES", copies)
        for seed in range(5):
            with pytest.raises(AssertionError) as exc:
                verify_cusp_decomposition(2.0, 1000, seed=seed)
            with pytest.raises(AssertionError) as expected:
                _reference_cusp_report(2.0, 1000, seed, copies)
            assert str(exc.value) == str(expected.value)
            assert "instead of exactly one region" in str(exc.value)

    def test_memory_flat_in_sample_count(self):
        block = geometry._CUSP_BLOCK

        def peak(count):
            tracemalloc.start()
            try:
                verify_cusp_decomposition(2.0, count, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_block = peak(block)
        assert peak(16 * block + 5) < 1.25 * one_block
