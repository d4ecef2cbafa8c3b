import copy
import itertools
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import reference
from h4hecke import geometry
from h4hecke.clifford import CliffordElement, inverse as cl_inverse
from h4hecke.geometry import (
    CuspDecompositionReport,
    IsometryMatrix,
    PointH4,
    act,
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
from reference import (
    act_reference, apply_word, cosh_distance, identity, reduce_reference, vector_coords, word_matrix,
)


def random_integral_matrix(rng: random.Random, length: int = 6) -> IsometryMatrix:
    g = identity()
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
        assert pseudo_det(identity()) == 1

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
        assert not is_similitude(g)  # the pseudo-determinant 0 + 1i is not real

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
        for g in (identity(), inversion(), translation((1, -2, 0)),
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

    @pytest.mark.parametrize("g", [inversion(), translation((1, -2, 0)), rotation("k"),
                                   word_to_matrix((("translate", (2, 0, -1)), ("inversion",), ("rot_j",)))])
    def test_fraction_and_float_coords(self, g):
        # a coordinate is integral as an int or as a Fraction with denominator 1, never as a float
        assert is_integral_sv2(_with_fraction_coords(g))
        assert not is_integral_sv2(IsometryMatrix(*(Quaternion(*map(float, q)) for q in g.coords())))
        half = IsometryMatrix(*(Quaternion(*(Fraction(2 * x + 1, 2) for x in q)) for q in g.coords()))
        assert not is_integral_sv2(half)

    def test_builds_no_quaternion(self, monkeypatch):
        g = word_to_matrix((("translate", (1, -2, 3)), ("inversion",), ("rot_i",)))
        k_shift = IsometryMatrix(_ONE, Quaternion(0, 0, 0, 1), _ZERO, _ONE)
        monkeypatch.setattr(geometry, "Quaternion", None)  # any Quaternion built in geometry now fails
        assert is_integral_sv2(g) and not is_integral_sv2(k_shift)


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
            expected = [float(x) for x in vector_coords(exact)]
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
        for region in ("S_T", "S~_T"):
            with pytest.raises(ValueError, match="^cusp regions require T >= 1$"):
                is_in_region((0, 0, 0, 2), region, T=0.5)

    def test_unknown_region_rejected(self):
        with pytest.raises(ValueError, match="^unknown region 'G'$"):
            is_in_region((0, 0, 0, 2), "G")


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
            assert is_in_region(reduced, "F")
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


def _acceptance_points(count: int, seed: int) -> list[PointH4]:
    """Acceptance 13's distribution: x uniform in [-3, 3]^3, y uniform in [0.05, 50]."""
    rng = random.Random(seed)
    return [PointH4(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.05, 50))
            for _ in range(count)]


def _outcome(f, *args):
    """repr of what f returns, or the type and text of what it raises."""
    try:
        return repr(f(*args))
    except Exception as err:  # every error the references raise is compared, whatever its type
        return type(err), str(err)


_ONE, _ZERO = Quaternion(1, 0, 0, 0), Quaternion(0, 0, 0, 0)
_BIG = 10 ** 200


# (g, z) that reach each error of act, and edges past the double range
_ACT_CASES = [
    (IsometryMatrix(Quaternion(0, 1, 0, 0), _ZERO, _ZERO, _ONE), (0.1, 0.2, 0.3, 1.0)),  # mu = i
    (IsometryMatrix(_ONE, _ZERO, Quaternion(0, 0, 0, 1), _ONE), (0.1, 0.2, 0.3, 1.0)),  # k in d c^*
    (IsometryMatrix(_ONE, Quaternion(0, 1, 0, 1), _ZERO, Quaternion(2, 0, 0, 0)), (0.1, 0.2, 0.3, 1.0)),
    (IsometryMatrix(-_ONE, _ZERO, _ZERO, _ONE), (0, 0, 0, 1)),  # mu = -1
    (IsometryMatrix(_ZERO, _ZERO, _ZERO, _ZERO), (0, 0, 0, 1)),  # mu = 0
    (IsometryMatrix(Quaternion(Fraction(-1, 2), 0, 0, 0), _ZERO, _ZERO, _ONE), (0, 0, 0, 1)),  # mu = -1/2
    (IsometryMatrix(Quaternion(_BIG, 0, 0, 0), _ZERO, _ZERO, Quaternion(Fraction(1, _BIG), 0, 0, 0)),
     (0, 0, 0, 1.0)),  # N = 1e-200: D underflows
    (IsometryMatrix(Quaternion(_BIG, 0, 0, 0), _ZERO, _ZERO, Quaternion(_BIG, 0, 0, 0)),
     (0, 0, 0, 0.5)),  # |a|^2 overflows, and g / 2^k maps z to z
    (IsometryMatrix(Quaternion(_BIG ** 2, 0, 0, 0), _ZERO, _ZERO, _ONE), (0, 0, 0, 0.5)),  # past float
    (IsometryMatrix(Quaternion(10 ** 300, 0, 0, 0), _ZERO, _ZERO, _ONE), (0, 0, 0, 1e10)),  # y overflows
    (inversion(), (math.nan, 0, 0, 1)),
    (inversion(), (0, 0, 0, math.inf)),
    (inversion(), (0, 0, 0, math.nan)),
    (inversion(), (0, 0, 0, 5e-324)),
    (IsometryMatrix(Quaternion(Fraction(1, 2), 0, 0, 0), _ZERO, _ZERO, Quaternion(2, 0, 0, 0)), (0.1, 0.2, 0.3, 1)),
]


def _matrices_by_each_path():
    """(path, matrix) for integral matrices built by the constructor, @, word_to_matrix and the generators."""
    word = (("translate", (1, -2, 3)), ("inversion",), ("rot_j",), ("translate", (0, 1, 0)), ("inversion",))
    return [
        ("constructor", IsometryMatrix(Quaternion(1, 2, 0, 0), Quaternion(0, 0, 1, 0), _ZERO, Quaternion(1, -2, 0, 0))),
        ("matmul", translation((1, 0, -1)) @ inversion() @ rotation("k")),
        ("word_to_matrix", word_to_matrix(word)),
        ("empty word", word_to_matrix(())),
        ("translation", translation((2, -1, 5))),
        ("inversion", inversion()),
        *((f"rotation {axis}", rotation(axis)) for axis in "ijk"),
    ]


def _with_fraction_coords(g: IsometryMatrix) -> IsometryMatrix:
    return IsometryMatrix(*(Quaternion(*map(Fraction, q.coords())) for q in g.entries()))


class TestMatrixContract:
    """IsometryMatrix holds coordinate tuples but keeps the frozen dataclass contract of Quaternion entries."""

    @pytest.mark.parametrize("path,g", _matrices_by_each_path())
    def test_eq_and_hash_across_int_and_fraction_coords(self, path, g):
        twin = _with_fraction_coords(g)
        assert all(type(x) is Fraction for q in twin.coords() for x in q)
        assert g == twin and twin == g and not g != twin
        assert hash(g) == hash(twin)
        assert len({g, twin}) == 1
        assert g != _with_fraction_coords(g @ translation((1, 0, 0)))
        assert g != g.coords() and g != g.entries()

    def test_fraction_one_equals_int_one(self):
        one_q, zero_q = Quaternion(Fraction(1), 0, 0, 0), Quaternion(0, 0, 0, 0)
        assert IsometryMatrix(one_q, zero_q, zero_q, one_q) == IsometryMatrix(_ONE, _ZERO, _ZERO, _ONE) == identity()

    @pytest.mark.parametrize("path,g", _matrices_by_each_path())
    def test_entries_are_quaternions(self, path, g):
        quats = (g.a, g.b, g.c, g.d)
        assert all(type(q) is Quaternion for q in quats)
        assert g.entries() == quats
        assert tuple(q.coords() for q in quats) == g.coords()
        assert IsometryMatrix(*quats) == g

    def test_constructor_entries_read_back_equal(self):
        given = (Quaternion(Fraction(1, 2), 0, 3, 0), Quaternion(0, Fraction(-7, 3), 0, 1), _ZERO, _ONE)
        g = IsometryMatrix(*given)
        assert (g.a, g.b, g.c, g.d) == g.entries() == given

    @pytest.mark.parametrize("path,g", _matrices_by_each_path())
    def test_coords_hold_plain_ints(self, path, g):
        coords = g.coords()
        assert type(coords) is tuple and len(coords) == 4
        assert all(type(q) is tuple and len(q) == 4 and all(type(x) is int for x in q) for q in coords)

    @pytest.mark.parametrize("path,g", _matrices_by_each_path())
    def test_immutable(self, path, g):
        before = repr(g)
        for name in ("a", "b", "c", "d", "_coords", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, _ONE)
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert repr(g) == before

    def test_repr_text(self):
        assert repr(inversion()) == ("IsometryMatrix(a=Quaternion(0, 0, 0, 0), b=Quaternion(1, 0, 0, 0), "
                                     "c=Quaternion(-1, 0, 0, 0), d=Quaternion(0, 0, 0, 0))")
        assert repr(word_to_matrix((("translate", (1, -2, 0)),))) == (
            "IsometryMatrix(a=Quaternion(1, 0, 0, 0), b=Quaternion(1, -2, 0, 0), "
            "c=Quaternion(0, 0, 0, 0), d=Quaternion(1, 0, 0, 0))")
        g = IsometryMatrix(_ONE, Quaternion(Fraction(1, 2), 0, 0, 0), _ZERO, Quaternion(Fraction(4, 2), 0, 0, -1))
        assert repr(g) == ("IsometryMatrix(a=Quaternion(1, 0, 0, 0), b=Quaternion(1/2, 0, 0, 0), "
                           "c=Quaternion(0, 0, 0, 0), d=Quaternion(2, 0, 0, -1))")

    @pytest.mark.parametrize("path,g", _matrices_by_each_path())
    def test_pickle_and_copy_round_trip(self, path, g):
        for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert twin == g and repr(twin) == repr(g) and twin.coords() == g.coords()


class TestWordCacheAndActFloats:
    """word_to_matrix's memo and the floats act keeps on a matrix change no result, bit for bit."""

    @pytest.mark.parametrize("seed", [13, 4000, 71])
    def test_round_trip_bit_identical_to_the_generator_products(self, seed):
        def bits(z):
            return [c.hex() for c in z.as_tuple()]
        for z in _acceptance_points(600, seed):
            word, reduced = reduce_to_fundamental_domain(z)
            ref_word, ref_reduced = reduce_reference(z)
            assert word == ref_word and bits(reduced) == bits(ref_reduced)
            g, expected = word_to_matrix(word), word_matrix(word)
            assert g == expected and g.coords() == expected.coords()
            fresh = IsometryMatrix(*g.entries())  # a copy that act has never seen
            images = [act(g, z), act(g, z), act(fresh, z), act(expected, z), act_reference(g, z)]
            assert all(bits(image) == bits(images[-1]) for image in images), (word, z)

    def test_equal_words_share_one_matrix(self):
        word = (("translate", (1, -2, 3)), ("inversion",), ("rot_k",), ("translate", (0, 1, 0)))
        twin = pickle.loads(pickle.dumps(word))
        assert twin == word and twin is not word and twin[0] is not word[0]
        assert word_to_matrix(twin) is word_to_matrix(word)
        assert word_to_matrix((("translate", (1.0, -2, 3)),)) is word_to_matrix((("translate", (1, -2, 3)),))

    @pytest.mark.parametrize("word", [
        [("translate", (1, -2, 3)), ("inversion",), ("rot_j",)],
        (("translate", [1, -2, 3]), ("inversion",), ("rot_j",)),
        [["translate", [1, -2, 3]], ["inversion"], ["rot_j"]],
    ])
    def test_unhashable_words_computed_uncached(self, word):
        as_tuple = (("translate", (1, -2, 3)), ("inversion",), ("rot_j",))
        g = word_to_matrix(word)
        assert g == word_to_matrix(as_tuple) == word_matrix(as_tuple)
        assert g is not word_to_matrix(word)
        assert all(type(x) is int for q in g.coords() for x in q)

    def test_errors_of_a_word_repeat(self):
        for word in ((("rot_x",),), (("translate", (1, None, 0)),), (("translate", [math.nan, 0, 0]),)):
            first = _outcome(word_to_matrix, word)
            assert first == _outcome(word_to_matrix, word) == _outcome(word_matrix, word)
            assert isinstance(first, tuple), word

    @pytest.mark.parametrize("g,message", [
        (IsometryMatrix(Quaternion(-1, 0, 0, 0), _ZERO, _ZERO, _ONE),
         "action requires positive pseudo-determinant, got -1"),
        (IsometryMatrix(_ZERO, _ZERO, _ZERO, _ZERO), "action requires positive pseudo-determinant, got 0"),
        (IsometryMatrix(_ONE, _ZERO, _ZERO, Quaternion(0, 1, 0, 0)), "not a similitude"),
    ])
    def test_refused_matrix_refused_on_every_call(self, g, message):
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                act(g, (0.1, 0.2, 0.3, 1.0))

    def test_overflowing_entries_refused_on_every_call(self):
        g = IsometryMatrix(Quaternion(_BIG ** 2, 0, 0, 0), _ZERO, _ZERO, _ONE)
        for _ in range(3):
            assert _outcome(act, g, (0, 0, 0, 0.5)) == (OverflowError, "int too large to convert to float")

    def test_kept_floats_leave_equality_hash_pickle_and_repr_alone(self):
        g = word_to_matrix((("translate", (2, -1, 0)), ("inversion",), ("rot_i",), ("translate", (0, 1, 1))))
        fresh = IsometryMatrix(*g.entries())
        before = (pickle.dumps(fresh), repr(fresh), hash(fresh))
        act(fresh, (0.3, -0.2, 0.1, 0.7))
        assert (pickle.dumps(fresh), repr(fresh), hash(fresh)) == before
        assert fresh == g and g == fresh
        for twin in (pickle.loads(pickle.dumps(fresh)), copy.copy(fresh), copy.deepcopy(fresh)):
            assert twin == fresh and repr(twin) == repr(fresh)
        with pytest.raises(AttributeError):
            fresh._floats = ()


class TestClosedFormMatrixLayer:
    """word_to_matrix, act and the reduction against their matrix-by-matrix and point-by-point references."""

    def test_reduction_words_points_matrices_and_actions(self):
        for z in _acceptance_points(2000, 13):
            word, reduced = result = reduce_to_fundamental_domain(z)
            assert repr(result) == repr(reduce_reference(z))
            g = word_to_matrix(word)
            assert g == word_matrix(word) and repr(g) == repr(word_matrix(word))
            assert repr(act(g, z)) == repr(act_reference(g, z))

    @pytest.mark.parametrize("word", [
        (),
        (("translate", (1, -2, 0)),),
        (("inversion",),),
        (("rot_i",),),
        (("rot_j",),),
        (("rot_k",),),
        (("translate", (10 ** 30, -(10 ** 30), 3)), ("inversion",), ("translate", (0, 10 ** 30, -1)), ("rot_j",)),
        _random_word(random.Random(50), 50),
    ])
    def test_hand_made_words(self, word):
        g = word_to_matrix(word)
        assert g == word_matrix(word) and repr(g) == repr(word_matrix(word))
        assert all(type(x) is int for q in g.entries() for x in q.coords())

    def test_unknown_token_raises_the_same_error(self):
        assert _outcome(word_to_matrix, (("rot_x",),)) == _outcome(word_matrix, (("rot_x",),))

    @pytest.mark.parametrize("g,z", _ACT_CASES)
    def test_act_errors_and_edges(self, g, z):
        assert _outcome(act, g, z) == _outcome(act_reference, g, z)

    def test_scalar_matrices_past_the_square_range_act_as_the_identity(self):
        # the first evaluation leaves the double range in |a|^2 and |d|^2, the one divided by 2^k does not
        for top in (_BIG, 10 ** 300, Fraction(1, _BIG)):
            for z in ((0, 0, 0, 0.5), (0.25, -0.5, 0.125, 3.0)):
                g = IsometryMatrix(Quaternion(top, 0, 0, 0), _ZERO, _ZERO, Quaternion(top, 0, 0, 0))
                assert act(g, z) == act_reference(g, z) == PointH4(*z)

    def test_act_cases_reach_every_error(self):
        messages = {_outcome(act, g, z)[1].split(":")[0].split(" (")[0] for g, z in _ACT_CASES}
        assert messages >= {"not a similitude", "action left the upper half-space model",
                            "action requires positive pseudo-determinant, got -1/2",
                            "action requires positive pseudo-determinant, got 0",
                            "c z + d is numerically non-invertible", "the action overflows the double range",
                            "int too large to convert to float", "point must have y > 0, got y = nan"}

    @pytest.mark.parametrize("z", [
        (0, 0, 0, 5e-324),  # the inversion overflows
        (0, 0, 0, 1e-320),
        (0, 0, 0, 1e-200),
        (math.inf, 0, 0, 1),
        (0, math.nan, 0, 1),
        (0, 0, 0, math.inf),
        (0, 0, 0, math.nan),  # not y > 0
        (0, 0, 0, -1.0),
        (1e300, -1e300, 0.5, 1e-300),
        (-0.0, -0.0, -0.0, 0.5),
        (0.5, -1e-10, 0.5, 1.0),
        PointH4(1, -2, 3, 1),  # int coordinates
    ])
    def test_reduction_errors_and_edges(self, z):
        assert _outcome(reduce_to_fundamental_domain, z) == _outcome(reduce_reference, z)


def _fuzz_word(rng: random.Random, length: int) -> tuple:
    """Every token kind, with translations up to 9 * 10^30."""
    def shift():
        return rng.randint(-9, 9) * 10 ** rng.choice((0, rng.randint(1, 29), 30))
    kinds = ["inversion", "rot_i", "rot_j", "rot_k", "translate"]
    return tuple(("translate", (shift(), shift(), shift())) if kind == "translate" else (kind,)
                 for kind in (rng.choice(kinds) for _ in range(length)))


def _fuzz_point(rng: random.Random):
    """A point as a tuple of floats, a tuple of ints or a PointH4, with signed zeros, x near +-1/2 and
    y from 5e-324 to 1e300."""
    def x():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.choice((0.0, -0.0))
        if kind == 1:
            return rng.choice((0.5, -0.5)) + rng.choice((1e-10, -1e-10))
        return rng.uniform(-3, 3)
    y = rng.choice((5e-324, 1e300, 10 ** rng.uniform(-323, 300), rng.uniform(0.05, 50)))
    form = rng.randrange(4)
    if form == 0:
        return (x(), x(), x(), y)
    if form == 1:
        return tuple(rng.randint(-3, 3) for _ in range(3)) + (rng.randint(1, 10 ** 6),)
    if form == 2:
        return PointH4(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 10 ** 6))
    return PointH4(x(), x(), x(), y)


def _exact_action(g: IsometryMatrix, z) -> list[float]:
    """(a z + b)(c z + d)^{-1} evaluated in C_3 on Fractions, rounded to floats at the end."""
    def to_c3(q: Quaternion) -> CliffordElement:
        return CliffordElement(3, {(): Fraction(q.a), (1,): Fraction(q.b), (2,): Fraction(q.c),
                                   (1, 2): Fraction(q.d)})
    zc = CliffordElement(3, {(): Fraction(z[0]), (1,): Fraction(z[1]), (2,): Fraction(z[2]), (3,): Fraction(z[3])})
    a, b, c, d = (to_c3(q) for q in g.entries())
    exact = (a * zc + b) * cl_inverse(c * zc + d)
    assert exact.is_vector
    return [float(x) for x in vector_coords(exact)]


def _relative_error(got, expected) -> float:
    return max(abs(x - e) / abs(e) if e else abs(x) for x, e in zip(got, expected))


class TestScalarForms:
    """act, word_to_matrix and the reduction on scalars against the tuple-product references, bit for bit."""

    def test_fuzzed_words_and_points(self):
        rng = random.Random(23)
        reached = set()
        for _ in range(600):
            word = _fuzz_word(rng, rng.choice((rng.randint(0, 3), rng.randint(0, 50))))
            if rng.random() < 0.1:  # entries past the double range: 10^30 per translation between inversions
                word = (("translate", (10 ** 30, 0, 1)), ("inversion",)) * rng.randint(10, 12) + word
            z = _fuzz_point(rng)
            assert _outcome(word_to_matrix, word) == _outcome(word_matrix, word), word
            reduced = _outcome(reduce_to_fundamental_domain, z)
            assert reduced == _outcome(reduce_reference, z), z
            matrices = [word_to_matrix(word)]
            if isinstance(reduced, str):
                matrices.append(word_to_matrix(reduce_to_fundamental_domain(z)[0]))
            for g in matrices:
                moved = _outcome(act, g, z)
                assert moved == _outcome(act_reference, g, z), (word, z)
                reached.add(moved[0].__name__ if isinstance(moved, tuple) else "point")
        assert reached >= {"point", "OverflowError", "ArithmeticError", "ValueError"}

    def test_private_point_is_a_point(self):
        for coords in [(0.1, -0.0, 3.0, 2.5), (1, -2, 3, 1), (0.0, 0.0, 0.0, 5e-324)]:
            made, public = geometry._point(*coords), PointH4(*coords)
            assert type(made) is PointH4
            assert made == public and hash(made) == hash(public) and repr(made) == repr(public)
            for twin in (pickle.loads(pickle.dumps(made)), copy.copy(made), copy.deepcopy(made)):
                assert twin == public and repr(twin) == repr(public)
            for name in ("x0", "x1", "x2", "y", "other"):
                assert _outcome(setattr, made, name, 1.0) == _outcome(setattr, public, name, 1.0)
                assert _outcome(delattr, made, name) == _outcome(delattr, public, name)
            with pytest.raises(AttributeError):
                made.y = 1.0
            assert repr(made) == repr(public)


# identity, a translation, rot_i and the inversion at points whose images the unscaled closed form
# refuses: y^2 overflows past about 1.34e154, and D underflows below |z| = 1e-154 or so
_RESCALED_CASES = [
    (identity(), (0.1, 0.0, 0.0, 2e154)),
    (identity(), (0.0, 0.0, 0.0, 1e308)),
    (translation((1, -2, 3)), (0.25, 0.5, -0.125, 1.4e154)),
    (rotation("i"), (0.3, -0.7, 1.1, 1e160)),
    (inversion(), (0.0, 0.0, 0.0, 1e-200)),
    (inversion(), (3e-250, -1e-250, 2e-250, 4e-250)),
    (inversion(), (0.5, 0.25, -1.5, 1e300)),
]


class TestRescaledAction:
    """act evaluates again at z / 4^j where y^2 or D alone leave the double range."""

    @pytest.mark.parametrize("g,z", _RESCALED_CASES)
    def test_listed_images_against_exact(self, g, z):
        with pytest.raises((ArithmeticError, ValueError)):
            reference._evaluate(g, PointH4(*z))  # the unscaled closed form refuses
        got = act(g, z)
        assert _relative_error(got.as_tuple(), _exact_action(g, z)) < 1e-15
        assert repr(got) == repr(act_reference(g, z))

    def test_identity_keeps_the_point(self):
        for z in [(0.1, 0.0, 0.0, 2e154), (0.0, 0.0, 0.0, 1e308), (-0.0, 0.5, -3.0, 1e200)]:
            assert act(identity(), z).as_tuple() == z

    def test_random_images_against_exact(self):
        rng = random.Random(29)
        accepted = 0
        for _ in range(150):
            g = word_to_matrix(_random_word(rng, rng.randint(0, 4)))
            if rng.random() < 0.5:
                z = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), 10 ** rng.uniform(154.2, 300))
            else:
                s = 10 ** rng.uniform(-300, -154.2)
                z = tuple(s * rng.uniform(-1, 1) for _ in range(3)) + (s * rng.uniform(0.1, 1),)
            try:
                reference._evaluate(g, PointH4(*z))
                continue
            except (ArithmeticError, ValueError):
                pass
            accepted += 1
            assert _relative_error(act(g, z).as_tuple(), _exact_action(g, z)) < 1e-15, (g, z)
        assert accepted >= 50

    @pytest.mark.parametrize("g,z", [
        (inversion(), (0, 0, 0, 1e-320)),  # the image 1e320 is past the double range
        (inversion(), (0, 0, 0, 5e-324)),
        (IsometryMatrix(Quaternion(10 ** 300, 0, 0, 0), _ZERO, _ZERO, _ONE), (0, 0, 0, 1e10)),
        (inversion(), (1e300, 0, 0, 1e-30)),  # the image's y is 1e-630, and z / 4^j makes y 0
    ])
    def test_out_of_range_keeps_the_first_refusal(self, g, z):
        with pytest.raises((ArithmeticError, ValueError)) as unscaled:
            reference._evaluate(g, PointH4(*z))
        with pytest.raises(type(unscaled.value)) as exc:
            act(g, z)
        assert str(exc.value) == str(unscaled.value)


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

    @pytest.mark.parametrize("count", [geometry.MAX_CUSP_SAMPLES + 1, 10 ** 12])
    def test_past_the_sample_ceiling_refused_before_sampling(self, monkeypatch, time_limit, count):
        def unreachable(*args):
            raise AssertionError("sampling before the ceiling check")

        monkeypatch.setattr(geometry, "_cusp_hits", unreachable)
        with time_limit(1), pytest.raises(ValueError, match=f"^sample count {count} is past MAX_CUSP_SAMPLES = "):
            verify_cusp_decomposition(2.0, count)

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

    @pytest.mark.parametrize("count", [0, 1, 4_095, 4_096, 4_097, 2 * 4_096 + 3])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 31 - 1])
    def test_bulk_draw_is_random_bit_for_bit(self, monkeypatch, seed, count):
        # the uniforms the tiling reads, one draw per block, against a twin generator's random() calls
        twin = random.Random(seed)
        generators, drawn = [], []
        uniforms = geometry._uniforms

        class Recorded(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                generators.append(self)

        def recorded_uniforms(rng, k):
            u = uniforms(rng, k)
            drawn.append(u.tolist())
            return u

        monkeypatch.setattr(random, "Random", Recorded)
        monkeypatch.setattr(geometry, "_uniforms", recorded_uniforms)
        verify_cusp_decomposition(2.0, count, seed=seed)
        assert len(drawn) == -(-count // geometry._CUSP_BLOCK)
        assert [u.hex() for block in drawn for u in block] == [twin.random().hex() for _ in range(4 * count)]
        [generator] = generators
        assert generator.getstate() == twin.getstate()

    def test_boundary_ties_match_per_sample_loop(self, monkeypatch):
        # draws within 2e-9 of 0.5 put x1 and x2 within 2e-9 of the sign boundaries, so about
        # three samples in four are ties
        class NearHalf(random.Random):
            def random(self):
                # a multiple of 2^-53 in [0, 1), as every value random() returns is
                return round((0.5 + (super().random() - 0.5) * 4e-9) * 2 ** 53) / 2 ** 53

            def getrandbits(self, k):
                # k/64 of this generator's values, each as the two 32-bit words random() decodes it from,
                # low word first, so the library's bulk draw reads the stream the reference reads
                bits = 0
                for i in range(k // 64):
                    m = int(self.random() * 2 ** 53)
                    bits |= ((m >> 26) << 5 | (m & (2 ** 26 - 1)) << 38) << (64 * i)
                return bits

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
