import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from h4hecke.clifford import (
    CliffordElement,
    format_element,
    inverse,
    involution,
    is_clifford_group_member,
    multiply,
    parse_element,
    vector_utils,
)
from reference import vector_coords


def elem(n, *terms):
    return CliffordElement(n, {tuple(b): Fraction(c) for b, c in terms})


def rational():
    return st.fractions(min_value=-5, max_value=5, max_denominator=6)


def elements(n, max_terms=4):
    blades = [()]
    for h in range(1, n + 1):
        blades += [b + (h,) for b in blades]
    return st.dictionaries(st.sampled_from(blades), rational(), max_size=max_terms).map(
        lambda d: CliffordElement(n, d)
    )


def vectors(n):
    return st.lists(rational(), min_size=n + 1, max_size=n + 1).map(CliffordElement.vector)


class TestProduct:
    def test_generator_product(self):
        e1 = CliffordElement.generator(2, 1)
        e2 = CliffordElement.generator(2, 2)
        assert e1 * e2 == elem(2, ((1, 2), 1))

    def test_blade_squares_to_minus_one(self):
        e12 = elem(2, ((1, 2), 1))
        assert e12 * e12 == CliffordElement.scalar(2, -1)

    def test_difference_of_squares(self):
        one_plus = elem(2, ((), 1), ((1,), 1))
        one_minus = elem(2, ((), 1), ((1,), -1))
        assert one_plus * one_minus == CliffordElement.scalar(2, 2)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            multiply(CliffordElement.scalar(2, 1), CliffordElement.scalar(3, 1))

    def test_anticommutation(self):
        e1 = CliffordElement.generator(3, 1)
        e3 = CliffordElement.generator(3, 3)
        assert e3 * e1 == -(e1 * e3)

    @settings(max_examples=40, deadline=None)
    @given(elements(3), elements(3), elements(3))
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=40, deadline=None)
    @given(elements(3), elements(3), elements(3))
    def test_bilinearity(self, a, b, c):
        assert a * (b + c) == a * b + a * c


class TestInvolutions:
    def test_main_fixes_even_blades(self):
        assert involution(elem(2, ((1, 2), 1)), "main") == elem(2, ((1, 2), 1))

    def test_reverse_flips_bivector(self):
        assert involution(elem(2, ((1, 2), 1)), "reverse") == elem(2, ((1, 2), -1))

    def test_bar_negates_generator(self):
        assert involution(CliffordElement.generator(2, 1), "bar") == -CliffordElement.generator(2, 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            involution(CliffordElement.scalar(2, 1), "transpose")

    @settings(max_examples=40, deadline=None)
    @given(elements(3), elements(3))
    def test_reverse_antihomomorphism(self, a, b):
        assert (a * b).reverse() == b.reverse() * a.reverse()

    @settings(max_examples=40, deadline=None)
    @given(elements(3), elements(3))
    def test_bar_antihomomorphism(self, a, b):
        assert (a * b).bar() == b.bar() * a.bar()

    @settings(max_examples=30, deadline=None)
    @given(vectors(4))
    def test_involutions_preserve_vectors(self, x):
        for kind in ("main", "reverse", "bar"):
            assert involution(x, kind).is_vector


class TestVectors:
    def test_norm_sum_of_squares(self):
        x = CliffordElement.vector([1, 1, 1])
        assert vector_utils(x).norm == 3

    def test_inverse_of_generator(self):
        e1 = CliffordElement.generator(2, 1)
        assert vector_utils(e1).inverse == -e1

    def test_inverse_product_is_one(self):
        x = CliffordElement.vector([1, 1, 0])
        inv = vector_utils(x).inverse
        assert inv == elem(2, ((), Fraction(1, 2)), ((1,), Fraction(-1, 2)))
        assert x * inv == CliffordElement.scalar(2, 1)

    def test_zero_vector_has_no_inverse(self):
        assert vector_utils(CliffordElement.zero(3)).inverse is None

    @settings(max_examples=40, deadline=None)
    @given(vectors(4), vectors(4))
    def test_polarization_identity(self, x, y):
        # x bar(y) + y bar(x) = 2 <x, y> as scalars
        lhs = x * y.bar() + y * x.bar()
        dot = sum(a * b for a, b in zip(vector_coords(x), vector_coords(y)))
        assert lhs == CliffordElement.scalar(4, 2 * dot)

    @settings(max_examples=40, deadline=None)
    @given(vectors(3))
    def test_norm_via_bar(self, x):
        assert x * x.bar() == CliffordElement.scalar(3, x.norm)


class TestGroupMembership:
    def test_zero_not_member(self):
        assert not is_clifford_group_member(CliffordElement.zero(2))

    def test_all_nonzero_quaternions_members(self):
        rng = random.Random(1)
        for _ in range(25):
            a = CliffordElement(2, {b: Fraction(rng.randint(-4, 4)) for b in [(), (1,), (2,), (1, 2)]})
            if not a.is_zero:
                assert is_clifford_group_member(a)

    def test_one_plus_bivector_member(self):
        a = elem(2, ((), 1), ((1, 2), 1))
        assert is_clifford_group_member(a)

    def test_products_of_vectors_are_members(self):
        rng = random.Random(7)
        for _ in range(10):
            vecs = [CliffordElement.vector([rng.randint(-3, 3) for _ in range(4)]) for _ in range(3)]
            a = vecs[0] * vecs[1] * vecs[2]
            if not a.is_zero:
                assert is_clifford_group_member(a)

    def test_conjugation_is_isometry(self):
        # products of vectors conjugate vectors without changing their norm
        rng = random.Random(3)
        for _ in range(10):
            v1 = CliffordElement.vector([rng.randint(-3, 3) for _ in range(4)])
            v2 = CliffordElement.vector([rng.randint(-3, 3) for _ in range(4)])
            a = v1 * v2
            if a.is_zero:
                continue
            ap_inv = inverse(a.main_involution())
            x = CliffordElement.vector([rng.randint(-3, 3) for _ in range(4)])
            conj = a * x * ap_inv
            assert conj.is_vector
            assert vector_utils(conj).norm == vector_utils(x).norm

    def test_scalar_two_is_member(self):
        assert is_clifford_group_member(CliffordElement.scalar(3, 2))


class TestInverse:
    def test_general_inverse_matches_fast_path(self):
        a = elem(3, ((), 1), ((1,), 2), ((2, 3), 1))
        inv = inverse(a)
        assert inv is not None
        assert a * inv == CliffordElement.scalar(3, 1)
        assert inv * a == CliffordElement.scalar(3, 1)

    def test_zero_not_invertible(self):
        assert inverse(CliffordElement.zero(2)) is None


class TestFormat:
    def test_round_trip(self):
        a = elem(2, ((), Fraction(3, 2)), ((1,), 1), ((1, 2), -2))
        assert format_element(a) == "3/2 + 1*e1 - 2*e12"
        assert parse_element(format_element(a), 2) == a

    def test_parse_bare_blade(self):
        assert parse_element("e12", 2) == elem(2, ((1, 2), 1))
        assert parse_element("-e1", 2) == elem(2, ((1,), -1))

    def test_reject_unsorted_indices(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_element("1*e21", 2)

    def test_reject_duplicate_indices(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_element("1*e11", 2)

    def test_reject_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_element("1*e3", 2)

    def test_zero_round_trip(self):
        assert parse_element("0", 4) == CliffordElement.zero(4)
        assert format_element(CliffordElement.zero(4)) == "0"


class TestConstruction:
    def test_rank_cap(self):
        with pytest.raises(ValueError):
            CliffordElement.zero(9)

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            CliffordElement(2, {(): 0.5})

    def test_canonical_sparse_form(self):
        a = CliffordElement(2, {(1,): Fraction(0), (): Fraction(1)})
        assert list(a.coeffs) == [()]

    def test_unsorted_blade_rejected(self):
        with pytest.raises(ValueError):
            CliffordElement(2, {(2, 1): Fraction(1)})
