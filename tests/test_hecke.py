import itertools
import math
import random
import re
from collections.abc import Mapping
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from h4hecke import hecke, sums
from h4hecke.files import write_coefficient_field
from h4hecke.hecke import (
    CoefficientField,
    EigenResidualReport,
    EigenvalueTriple,
    QComplex,
    QuadExt,
    apply_hecke,
    apply_hecke_float,
    eigen_residual,
    epsilon_factor,
    hecke_relation_constant,
    legendre_symbol,
    verify_commutativity,
    verify_hecke_relation,
    _epsilon_case,
    _epsilon_cases,
    _hecke_weights,
)
from h4hecke.quaternions import (
    UNITS,
    conjugation_matrices,
    conjugation_matrix,
    divide_lattice,
    lattice_norm,
    orbit_representatives,
    scale_lattice,
)
from reference import (
    apply_dict, apply_hecke_float_dict, apply_matrix, commutator_dict, fields_equal_by_entries, ones_ball_loop,
    pair_conj_sum, random_field_quad, relation_residual_by_applies, symmetrized_dict,
)


class TestQuadExt:
    def test_inv_sqrt(self):
        root = QuadExt(3, Fraction(0), Fraction(1))
        s = QuadExt(3, Fraction(0), Fraction(1, 3))
        assert s * root == 1
        assert 1 / root == s

    def test_field_operations(self):
        x = QuadExt(5, Fraction(2), Fraction(1))
        y = QuadExt(5, Fraction(-1), Fraction(3))
        assert (x + y) - y == x
        assert x * y == QuadExt(5, Fraction(13), Fraction(5))
        assert (x / y) * y == x

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt.of(1, 5) / QuadExt.of(0, 5)

    def test_rational_scalar_product_equals_the_coerced_product(self):
        # a product by an int or a Fraction skips the coercion to QuadExt: same parts, types and prime
        for x in (QuadExt(5, Fraction(2, 3), Fraction(-1, 7)), QuadExt(7, Fraction(3), Fraction(0)),
                  QuadExt.of(Fraction(-5, 4)), QuadExt.of(0, 3)):
            for c in (0, 1, -3, True, Fraction(1, 4), Fraction(-9, 2), 2 ** 70):
                coerced = x * QuadExt.of(c)
                for got in (x * c, c * x):
                    assert (got.p, got.a, got.b) == (coerced.p, coerced.a, coerced.b) == (x.p, x.a * c, x.b * c)
                    assert type(got.a) is type(got.b) is Fraction

    def test_mixed_primes_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            QuadExt(3, Fraction(0), Fraction(1)) + QuadExt(5, Fraction(0), Fraction(1))

    def test_rational_promotes(self):
        assert QuadExt.of(2) * QuadExt(7, Fraction(0), Fraction(1)) == QuadExt(7, Fraction(0), Fraction(2))

    def test_float_value(self):
        assert float(QuadExt(3, Fraction(1), Fraction(2))) == pytest.approx(1 + 2 * 3 ** 0.5)

    @pytest.mark.parametrize("p,x,y", [(3, 2, 1), (5, 9, 4), (7, 8, 3), (11, 10, 3), (13, 649, 180)])
    def test_float_accurate_under_cancellation(self, p, x, y):
        # x + y sqrt(p) is a unit, so a - b sqrt(p) for (x + y sqrt(p))^n = a + b sqrt(p)
        # is its tiny inverse: float(a) + float(b) sqrt(p) would lose most digits.
        # mpmath keeps 50 digits beyond the ones that cancel.
        a, b = 1, 0
        for n in range(1, 16):
            a, b = a * x + p * b * y, a * y + b * x
            for scale in (Fraction(1), Fraction(-2, 3), Fraction(7, 5)):
                value = QuadExt(p, a * scale, -b * scale)
                with mpmath.workdps(50 + 2 * len(str(a))):
                    exact = (a - b * mpmath.sqrt(p)) * scale.numerator / scale.denominator
                    assert abs(float(value) - exact) <= 4 * 2.0 ** -52 * abs(exact), (n, scale)

    def test_float_pell_example(self):
        # L_30 - F_30 sqrt(5) = 2 psi^30, about 1.07e-6
        with mpmath.workdps(50):
            exact = 1860498 - 832040 * mpmath.sqrt(5)
            assert abs(float(QuadExt(5, Fraction(1860498), Fraction(-832040))) - exact) <= 4 * 2.0 ** -52 * exact
        assert float(QuadExt(5, Fraction(-7, 3), Fraction(0))) == float(Fraction(-7, 3))

    def test_rational_values_hash_alike_over_any_prime(self):
        # equal values hash equal: a rational value compares equal over every prime, so a set holds one
        values = [QuadExt.of(Fraction(3, 4)), QuadExt.of(Fraction(3, 4), 5), QuadExt(7, Fraction(3, 4), Fraction(0))]
        assert len({hash(v) for v in values}) == 1 and len(set(values)) == 1
        assert hash(QuadExt(5, Fraction(1), Fraction(2))) == hash(QuadExt(5, Fraction(1), Fraction(2)))

    def test_str(self):
        assert str(QuadExt(3, 1, -2)) == "1 - 2*sqrt(3)"
        assert str(QuadExt(3, Fraction(1, 2), Fraction(2, 3))) == "1/2 + 2/3*sqrt(3)"
        assert str(QuadExt.of(Fraction(-5, 2), 3)) == "-5/2"

    def test_quad_float_on_unreduced_numerators(self):
        # the sums module rounds (a + b sqrt(p)) / den with _quad_float on numerators that share
        # factors with den, where float(QuadExt) first reduces both Fractions
        rng = random.Random(5)
        rows = []
        for p in (3, 5, 7, 13, 997):
            x, y = 1, 0  # near-cancelling rows: x - y sqrt(p) tiny, from powers of a unit of Q(sqrt p)
            unit = {3: (2, 1), 5: (9, 4), 7: (8, 3), 13: (649, 180), 997: None}[p]
            for _ in range(8 if unit else 0):
                x, y = x * unit[0] + p * y * unit[1], x * unit[1] + y * unit[0]
                for g in (1, 6, 2 ** 40):
                    rows += [(g * x, -g * y, g * 35, p), (-g * x, g * y, g, p)]
            for _ in range(200):
                g, den = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)
                rows.append((g * rng.randint(-10 ** 12, 10 ** 12), g * rng.randint(-10 ** 12, 10 ** 12), g * den, p))
        rows += [(0, 0, 9, 3), (6, 0, 4, None), (-10 ** 400, 0, 3 * 10 ** 399, None), (0, -4, 6, 5)]
        for a, b, den, p in rows:
            assert hecke._quad_float(a, b, den, p) == float(QuadExt(p, Fraction(a, den), Fraction(b, den))), (a, b, den)

    def test_sqrt_part_needs_prime(self):
        with pytest.raises(ValueError):
            QuadExt(None, Fraction(1), Fraction(1))

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from([None, 3, 5, 7]), parts=st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=30), min_size=4, max_size=4),
        zero_b=st.sampled_from([(False, False), (True, False), (False, True), (True, True)]))
    def test_product_matches_four_product_formula(self, p, parts, zero_b):
        # a rational factor takes two Fraction products; the value and the prime stay those of
        # (a + b sqrt p)(c + d sqrt p) = (ac + p bd) + (ad + bc) sqrt p
        a, b, c, d = parts
        b = Fraction(0) if zero_b[0] or p is None else b
        d = Fraction(0) if zero_b[1] or p is None else d
        for x, y in ((QuadExt(p, a, b), QuadExt(p, c, d)), (QuadExt(p, a, b), QuadExt(None, c, Fraction(0)))):
            root_sq = Fraction(p if p is not None else 0)
            expected = (p, x.a * y.a + root_sq * x.b * y.b, x.a * y.b + x.b * y.a)
            for got in (x * y, y * x):
                assert (got.p, got.a, got.b) == expected
                assert type(got.a) is Fraction and type(got.b) is Fraction


class TestQComplex:
    def test_foreign_operands_raise_type_error(self):
        # QuadExt - 1.5 once negated NotImplemented ("bad operand type for unary -"), and 1.5 - QuadExt
        # named + as the operator
        z, x = QComplex.of(1), QuadExt.of(1, 3)
        for op in (lambda: z + 1, lambda: 1 + z, lambda: z - 1, lambda: 1 - z,
                   lambda: z * 1.5, lambda: 1.5 * z, lambda: x - 1.5, lambda: x - "x"):
            with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for [-+*]:"):
                op()
        with pytest.raises(TypeError, match=r"for -: 'float' and 'QuadExt'$"):
            1.5 - x

    def test_difference(self):
        z, w = QComplex.of(1, 2, p=3), QComplex(QuadExt(3, Fraction(1, 2), Fraction(-1)), QuadExt.of(5, 3))
        assert z - w == QComplex(QuadExt(3, Fraction(1, 2), Fraction(1)), QuadExt.of(-3, 3))
        assert (z - w) + w == z and z - z == QComplex.of(0, p=3)

    def test_scalar_multiples(self):
        z = QComplex.of(1, 2, p=3)
        assert z * 2 == 2 * z == QComplex.of(2, 4, p=3)
        assert z * Fraction(1, 2) == QComplex.of(Fraction(1, 2), 1, p=3)
        root = QuadExt(3, Fraction(0), Fraction(1))
        assert root * z == QComplex(root, QuadExt(3, Fraction(0), Fraction(2)))


class TestLegendre:
    def test_one_is_residue(self):
        for p in (3, 5, 7, 11):
            assert legendre_symbol(1, p) == 1

    def test_minus_one_mod_three(self):
        assert legendre_symbol(-1, 3) == -1

    def test_minus_two_mod_three(self):
        assert legendre_symbol(-2, 3) == 1

    def test_zero(self):
        assert legendre_symbol(6, 3) == 0

    def test_euler_criterion_against_squares(self):
        # every a mod p, for every odd prime p <= 97: the residue table against Euler's criterion
        for p in [p for p in range(3, 98, 2) if all(p % q for q in range(3, p, 2))]:
            squares = {(x * x) % p for x in range(1, p)}
            for a in range(-p, 2 * p):
                euler = pow(a, (p - 1) // 2, p)
                assert legendre_symbol(a, p) == (0 if a % p == 0 else 1 if euler == 1 else -1), (a, p)
                assert (legendre_symbol(a, p) == 1) == (a % p in squares)


class TestEpsilonFactor:
    def test_divisible_case(self):
        assert epsilon_factor((3, 0, 0), 3) == Fraction(8, 9)

    def test_norm_divisible_case(self):
        assert epsilon_factor((1, 1, 1), 3) == Fraction(-1, 9)

    def test_nonresidue_case(self):
        assert epsilon_factor((1, 0, 0), 3) == Fraction(-4, 9)

    def test_residue_case(self):
        assert epsilon_factor((1, 1, 0), 3) == Fraction(2, 9)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            epsilon_factor((0, 0, 0), 5)

    def test_bound_away_from_divisible_case(self):
        # |E(beta, p)| <= (p+1)/p^2 whenever p does not divide beta
        for p in (3, 5, 7):
            for b0 in range(-4, 5):
                for b1 in range(-4, 5):
                    for b2 in range(-4, 5):
                        beta = (b0, b1, b2)
                        if beta == (0, 0, 0) or all(c % p == 0 for c in beta):
                            continue
                        assert abs(epsilon_factor(beta, p)) <= Fraction(p + 1, p * p)

    def test_even_or_composite_prime_rejected(self):
        for p in (2, 9):
            with pytest.raises(ValueError):
                epsilon_factor((1, 0, 0), p)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_weight_table_matches_closed_forms(self, p):
        # every weight the operators use, looked up by case, against the
        # closed forms of the H_2 and H_3 actions evaluated per beta
        def lift(fr):
            return QuadExt.of(fr, p)

        weights = _hecke_weights(p, lift)
        floats = _hecke_weights(p, float)
        one_over_p = Fraction(1, p)
        assert weights.inv_p == lift(one_over_p) and floats.inv_p == float(one_over_p)
        for b0 in range(-4, 5):
            for b1 in range(-4, 5):
                for b2 in range(-4, 5):
                    beta = (b0, b1, b2)
                    if beta == (0, 0, 0):
                        continue
                    case = _epsilon_case(beta, p)
                    ind = all(c % p == 0 for c in beta)
                    eps = epsilon_factor(beta, p)
                    mid = ind - Fraction(p + 1, p) * eps - Fraction(p * p + p + 1, p ** 3)
                    assert (case == 0) == ind
                    assert weights.eps[case] == lift(eps) and floats.eps[case] == float(eps)
                    assert weights.mid[case] == lift(mid) and floats.mid[case] == float(mid)


class TestApply:
    def test_h1_delta_example(self):
        A = CoefficientField.delta((1, 0, 0), 1, p=3)
        out = apply_hecke(1, 3, A)
        assert out.at((3, 0, 0)) == QComplex.of(1, p=3)

    def test_h2_delta_epsilon_term(self):
        A = CoefficientField.delta((3, 0, 0), 1, p=3)
        out = apply_hecke(2, 3, A)
        assert out.at((3, 0, 0)) == QComplex(QuadExt.of(Fraction(8, 9), 3), QuadExt.of(0, 3))

    def test_zero_field_maps_to_zero(self):
        for ell in (1, 2, 3):
            assert apply_hecke(ell, 5, CoefficientField.zero(5)).is_zero

    def test_linearity(self):
        rng = random.Random(0)
        p = 5
        A = CoefficientField.random(rng, p=p, support=4, sqrt_parts=True)
        B = CoefficientField.random(rng, p=p, support=4, sqrt_parts=True)
        two = QuadExt.of(2, p)
        for ell in (1, 2, 3):
            lhs = apply_hecke(ell, p, (A + B.scale(two)))
            rhs = apply_hecke(ell, p, A) + apply_hecke(ell, p, B).scale(two)
            assert lhs == rhs

    @pytest.mark.parametrize("ell,growth", [(1, 2), (2, 2), (3, 4)])
    def test_support_radius_growth(self, ell, growth):
        rng = random.Random(3)
        p = 3
        A = CoefficientField.random(rng, p=p, support=5)
        out = apply_hecke(ell, p, A)
        assert out.support_radius <= p ** growth * A.support_radius

    def test_mixed_prime_context_rejected(self):
        A = CoefficientField.delta((1, 0, 0), 1, p=3)
        with pytest.raises(ValueError):
            apply_hecke(1, 5, A)

    @pytest.mark.parametrize("apply", [apply_hecke, lambda ell, p, A: apply_hecke_float(ell, p, A.as_complex_dict())])
    @pytest.mark.parametrize("ell", [0, 4])
    def test_ell_outside_one_to_three_rejected(self, apply, ell):
        with pytest.raises(ValueError, match=f"^ell must be 1, 2, or 3, got {ell}$"):
            apply(ell, 3, CoefficientField.delta((1, 0, 0), 1, p=3))

    def test_plain_rational_field_promoted(self):
        A = CoefficientField.delta((1, 0, 0), 1)
        out = apply_hecke(1, 3, A)
        assert out.p == 3
        assert out.at((3, 0, 0)) == QComplex.of(1, p=3)

    def test_float_twin_matches_exact(self):
        # the exact operators run the term builder on integer numerator rows and the
        # float operators run it on doubles, so this cross-checks the two value types
        rng = random.Random(8)
        for p in (3, 5, 7):
            double_hits = 0
            for _ in range(2):
                A = CoefficientField.random(rng, p=p, support=5, sqrt_parts=True)
                for ell in (1, 2, 3):
                    out = apply_hecke(ell, p, A)
                    exact = {b: complex(v) for b, v in out.entries.items()}
                    approx = apply_hecke_float(ell, p, A.as_complex_dict())
                    keys = set(exact) | set(approx)
                    assert max(abs(exact.get(k, 0j) - approx.get(k, 0j)) for k in keys) < 1e-12
                double_hits += _double_conjugation_hits(p, A, out)
            assert double_hits > 0, f"H_3 never reached its double-conjugation term at p={p}"


def _hecke_terms(ell, p, weights, inv_sqrt_p, beta, conj_mats):
    """The terms of (H_ell A)(beta) = sum of weight * A(target), read off the hecke module docstring.

    `weights` holds the rational weights lifted into the target scalar
    domain and `inv_sqrt_p` is 1/sqrt(p) there; a target off the lattice
    is None.
    """
    psq = p * p
    conjs = [apply_matrix(mat, beta) for mat in conj_mats]
    if ell == 1:
        return ([(1, scale_lattice(beta, p)), (1, divide_lattice(beta, p))]
                + [(inv_sqrt_p, divide_lattice(conj, p)) for conj in conjs])
    if ell == 2:
        return ([(weights.eps[_epsilon_case(beta, p)], beta)] + [(inv_sqrt_p, conj) for conj in conjs]
                + [(inv_sqrt_p, divide_lattice(conj, psq)) for conj in conjs])
    case = _epsilon_case(beta, p)
    ind = (-weights.inv_p, 1 - weights.inv_p)  # 1_p - 1/p, indexed by the indicator
    terms = [(1, scale_lattice(beta, psq)), (weights.mid[case], beta), (1, divide_lattice(beta, psq))]
    for conj in conjs:
        ind_conj = all(c % p == 0 for c in conj)
        terms += [(inv_sqrt_p * ind[ind_conj], conj), (inv_sqrt_p * ind[case == 0], divide_lattice(conj, psq))]
        if ind_conj:
            terms += [(weights.inv_p, divide_lattice(apply_matrix(mat2, conj), psq)) for mat2 in conj_mats]
    return terms


def _hecke_candidates(ell, p, support, star_mats):
    """Every beta at which (H_ell A)(beta) can be nonzero, by inverting each term."""
    psq = p * p
    out = set()
    for gamma in support:
        if ell == 1:
            found = [divide_lattice(gamma, p), scale_lattice(gamma, p)]
            found += [divide_lattice(apply_matrix(mat, gamma), p) for mat in star_mats]
        elif ell == 2:
            stars = [apply_matrix(mat, gamma) for mat in star_mats]
            found = [gamma] + stars + [divide_lattice(star, psq) for star in stars]
        else:
            stars = [apply_matrix(mat, gamma) for mat in star_mats]
            found = [divide_lattice(gamma, psq), gamma, scale_lattice(gamma, psq)] + stars
            found += [divide_lattice(star, psq) for star in stars]
            found += [divide_lattice(apply_matrix(mat2, star), psq) for star in stars for mat2 in star_mats]
        out.update(beta for beta in found if beta is not None)
    return out


def _gather_apply(ell, p, entries, zero, weights, inv_sqrt_p, representatives=None):
    """The independent reference for hecke._terms: the gather form over the candidates.

    Every candidate beta is evaluated from its own list of terms, each a
    lookup that may miss the support; hecke._terms instead scatters each
    term from the support point it reads.
    """
    reps = orbit_representatives(p).representatives if representatives is None else representatives
    conj_mats = tuple(conjugation_matrix(a) for a in reps)
    star_mats = tuple(tuple(zip(*mat)) for mat in conj_mats)
    out = {}
    for beta in _hecke_candidates(ell, p, entries, star_mats):
        value = zero
        for weight, target in _hecke_terms(ell, p, weights, inv_sqrt_p, beta, conj_mats):
            if target in entries:
                value = value + weight * entries[target]
        if value:
            out[beta] = value
    return out


def _quadext_apply(ell, p, A, representatives=None):
    """H_ell A by the gather reference on QuadExt/QComplex scalars and true zeros.

    The reference for the integer path: every weight through QuadExt.of,
    p^(-1/2) as sqrt(p)/p and Fraction arithmetic throughout, so no
    division can truncate.
    """
    A = A.with_prime(p)
    weights = _hecke_weights(p, lambda fr: QuadExt.of(fr, p))
    return CoefficientField(p, _gather_apply(ell, p, A.entries, QComplex.of(0, p=p), weights,
                                             QuadExt(p, Fraction(0), Fraction(1, p)), representatives))


def _float_apply(ell, p, entries):
    """H_ell on complex doubles by the gather reference."""
    return _gather_apply(ell, p, entries, 0j, _hecke_weights(p, float), 1.0 / p ** 0.5)


def _snapshot(field):
    return {b: (v.re.p, v.im.p, repr(v.re), repr(v.im)) for b, v in field.entries.items()}


@st.composite
def _fields(draw):
    """A prime and a field over Q(sqrt p), or over plain Q, with mixed denominators."""
    p = draw(st.sampled_from([3, 5, 7]))
    plain = draw(st.booleans())
    dens = st.sampled_from([1, 2, 3, 4, 6, p, p * p])

    def scalar():
        a = Fraction(draw(st.integers(-9, 9)), draw(dens))
        b = Fraction(0) if plain else Fraction(draw(st.integers(-9, 9)), draw(dens))
        return QuadExt(None if plain else p, a, b)

    betas = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 3).filter(any), min_size=1, max_size=6,
                          unique=True))
    A = CoefficientField(None if plain else p, {beta: QComplex(scalar(), scalar()) for beta in betas})
    return p, (A.symmetrized() if draw(st.booleans()) else A)


class TestIntegerPath:
    @settings(max_examples=40, deadline=None)
    @given(_fields(), st.booleans(), st.randoms(use_true_random=False))
    def test_matches_quadext_evaluation(self, drawn, alternative_table, rng):
        # a non-exact // anywhere in the integer domain would truncate and
        # show here, since the denominators include 2, 3, 4, 6 as well as p, p^2
        p, A = drawn
        reps = None
        if alternative_table:
            reps = [rng.choice(UNITS) * r for r in orbit_representatives(p).representatives]
            rng.shuffle(reps)
            reps = tuple(reps)
        for ell in (1, 2, 3):
            got = apply_hecke(ell, p, A, representatives=reps)
            expected = _quadext_apply(ell, p, A, reps)
            assert got.p == expected.p == p
            assert got == expected
            assert _snapshot(got) == _snapshot(expected)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_every_basis_column_matches_gather_reference(self, p):
        # the operators are Q(sqrt p)(i)-linear, so equal columns H_ell delta_beta
        # for every |b_i| <= 3 prove the scatter pass equal to the gather form on
        # every field supported there, for the canonical and an alternative table
        box = [beta for beta in itertools.product(range(-3, 4), repeat=3) if any(beta)]
        assert len(box) == 342
        for table in (None, _alternative_reps(p, p)):
            for beta in box:
                A = CoefficientField.delta(beta, 1, p=p)
                for ell in (1, 2, 3):
                    got = apply_hecke(ell, p, A, representatives=table)
                    expected = _quadext_apply(ell, p, A, table)
                    assert got == expected and _snapshot(got) == _snapshot(expected), (table, beta, ell)


    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_outputs_hold_the_field_invariants(self, p):
        # the constructor promotes only entries whose parts are not already over p,
        # so an operator output must arrive with every part over p and no zero entry
        box = [beta for beta in itertools.product(range(-3, 4), repeat=3) if any(beta)]
        assert len(box) == 342
        for beta in box:
            A = CoefficientField.delta(beta, 1, p=p)
            for ell in (1, 2, 3):
                out = apply_hecke(ell, p, A)
                assert out.p == p and out.entries, (beta, ell)
                assert all(v.re.p == p and v.im.p == p and v for v in out.entries.values()), (beta, ell)
                assert all(type(key) is tuple and all(type(c) is int for c in key) for key in out.entries)
                rebuilt = CoefficientField(p, dict(out.entries))
                assert rebuilt == out and _snapshot(rebuilt) == _snapshot(out), (beta, ell)


class TestRandomFields:
    @pytest.mark.parametrize("kw", [{"support": 343, "coord_bound": 3}, {"support": 27, "coord_bound": 1},
                                    {"support": 3, "entry_bound": 0}])
    def test_impossible_draw_raises(self, kw, time_limit):
        # 342 nonzero points in |b_i| <= 3, 26 in |b_i| <= 1; entries in [0, 0] are all zero
        with time_limit(5), pytest.raises(ValueError, match="cannot draw"):
            CoefficientField.random(random.Random(0), **kw)

    def test_sqrt_parts_need_a_prime(self):
        with pytest.raises(ValueError, match="^sqrt parts require a prime context$"):
            CoefficientField.random(random.Random(0), sqrt_parts=True)

    def test_full_box_is_drawn(self):
        assert len(CoefficientField.random(random.Random(0), support=26, coord_bound=1).entries) == 26


def _arrays(field):
    """A field array for array: prime, den, dtypes, and keys, numerators and norms in their order."""
    return (field.p, field.den, field.keys.dtype, field.nums.dtype, field.keys.tolist(), field.nums.tolist(),
            field.norms.tolist(), field.key_peak, field.num_peak)


# the shapes that hecke verify-relation and hecke commute, the hecke_exact and conj_sums benchmark
# set-ups and the demos draw; then a prime without sqrt parts, values past 2^63, coordinates past 2^62,
# the whole box |b_i| <= 1 at entry bound 1, and no support
_DRAWS = [
    *[dict(p=p, support=8, coord_bound=3, entry_bound=10, sqrt_parts=True) for p in (3, 5, 7, 997)],
    dict(p=997, support=342, coord_bound=3, entry_bound=10, sqrt_parts=True),
    *[dict(p=None, support=k, coord_bound=b, entry_bound=10) for k, b in ((22, 3), (12, 3), (18, 4), (24, 4))],
    dict(p=None, support=5, coord_bound=2, entry_bound=4), dict(p=None, support=6, coord_bound=4),
    dict(p=7, support=20), dict(p=5, support=9, entry_bound=2 ** 70, sqrt_parts=True),
    dict(p=None, support=7, coord_bound=10 ** 20), dict(p=None, support=26, coord_bound=1, entry_bound=1),
    dict(p=3, support=0), dict(p=None, support=0),
]


class TestBuilders:
    @pytest.mark.parametrize("kw", _DRAWS)
    def test_random_draws_what_the_qcomplex_drawer_draws(self, kw):
        for seed in (1, 7, 401):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(4):
                assert _arrays(CoefficientField.random(rng, **kw)) == _arrays(random_field_quad(ref_rng, **kw))
            assert rng.getstate() == ref_rng.getstate()  # the same ints, drawn in the same order

    @pytest.mark.parametrize("radius", [0, 1, 2, 9, 81, 250])
    @pytest.mark.parametrize("p", [None, 7])
    def test_ones_ball_is_the_lattice_ball_loop(self, radius, p):
        assert _arrays(CoefficientField.ones_ball(radius, p)) == _arrays(ones_ball_loop(radius, p))

    def test_zero_is_the_field_of_no_entries(self):
        for p in (None, 3):
            zero = CoefficientField.zero(p)
            assert _arrays(zero) == _arrays(CoefficientField(p, {})) and zero.keys is hecke._NO_KEYS

    @pytest.mark.parametrize("build", [lambda: CoefficientField.zero(9), lambda: CoefficientField.ones_ball(9, 4),
                                       lambda: CoefficientField.random(random.Random(0), p=2),
                                       lambda: CoefficientField.random(random.Random(0), p=15, sqrt_parts=True)])
    def test_a_prime_that_is_not_odd_is_refused(self, build):
        with pytest.raises(ValueError, match="odd prime"):
            build()

    def test_no_rows_share_the_empty_arrays(self):
        for dtype in (np.int64, object):
            got = CoefficientField._from_rows(7, 5 * 7 ** 4, np.empty((0, 3), dtype), np.empty((0, 4), dtype))
            assert got.keys is hecke._NO_KEYS and got.nums is hecke._NO_NUMS and got.norms is hecke._NO_NORMS
            assert not got.keys.flags.writeable and got.den == 1 and got.p == 7 and got.is_zero

    def test_as_complex_dict_is_complex_of_each_entry(self):
        # by repr, keys and order included: numerators and denominators past 2^63, parts that nearly
        # cancel, coordinates past 2^63, and fields over plain Q
        huge = 2 ** 64 + 3
        unit = QuadExt(7, Fraction(8), Fraction(3))
        for _ in range(5):  # (8 + 3 sqrt 7)^32, whose parts pass 2^120
            unit = unit * unit
        fields = [CoefficientField.random(random.Random(seed), p=p, support=30, sqrt_parts=p is not None)
                  for seed, p in ((1, None), (2, 3), (3, 997))]
        fields.append(CoefficientField(7, {(1, 0, 0): QComplex(QuadExt(7, unit.a, -unit.b), QuadExt(7, -unit.a / 3, unit.b / 3)),
                                           (2 ** 64, 1, 0): QComplex.of(Fraction(huge, 7), -huge, p=7),
                                           (0, -3, 1): QComplex(QuadExt(7, Fraction(1, huge), Fraction(-huge, 5)),
                                                                QuadExt.of(0, 7))}))
        fields.append(CoefficientField(None, {(1, 1, 1): QComplex.of(Fraction(-(10 ** 40), 3), Fraction(1, huge))}))
        for A in fields:
            assert repr(A.as_complex_dict()) == repr({b: complex(v) for b, v in A.entries.items()})
        assert fields[3].nums.dtype == fields[3].keys.dtype == object and fields[3].den > 2 ** 63


class TestFloatPath:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_float_gather_reference(self, p):
        # the scatter pass weights each term where the gather form weights sums,
        # so the two round differently but agree to a few ulps, key for key
        rng = random.Random(100 + p)
        for support, bound in ((6, 2), (12, 3), (20, 4)):
            entries = CoefficientField.random(rng, support=support, coord_bound=bound).symmetrized().as_complex_dict()
            for ell in (1, 2, 3):
                got = apply_hecke_float(ell, p, entries)
                expected = _float_apply(ell, p, entries)
                assert got.keys() == expected.keys()
                for beta, value in expected.items():
                    assert abs(got[beta] - value) <= 1e-14 * abs(value), (beta, ell)


def _assert_same_as_dict_path(got, expected):
    """got has expected's keys in expected's order, and == values.

    The array path adds the dict path's terms in the same order, but each bincount
    sum starts from +0.0, so a repr may differ in the sign of a zero part alone.
    """
    assert list(got) == list(expected)
    for beta, value in expected.items():
        x = got[beta]
        assert x == value, (beta, x, value)
        assert repr(x) == repr(value) or (x.real == value.real and x.imag == value.imag
                                          and 0.0 in (x.real, x.imag)), (beta, x, value)


def _conj_sums_fields(rng, count):
    """Sign-symmetric fields shaped like the benchmark's conj_sums fields (48-96 entries)."""
    return [CoefficientField.random(rng, p=None, support=12 + k % 13, coord_bound=3 + k % 2,
                                    entry_bound=10).symmetrized() for k in range(count)]


class TestFloatArrayPath:
    # apply_hecke_float against the dict path it replaced (reference.apply_hecke_float_dict)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_basis_columns_equal_dict_path(self, p):
        box = [beta for beta in itertools.product(range(-3, 4), repeat=3) if beta != (0, 0, 0)]
        assert len(box) == 342
        for beta in box:
            for ell in (1, 2, 3):
                _assert_same_as_dict_path(apply_hecke_float(ell, p, {beta: 1.0 + 0j}),
                                          apply_hecke_float_dict(ell, p, {beta: 1.0 + 0j}))

    @pytest.mark.parametrize("p,q", [(3, 5), (5, 7), (7, 3)])
    def test_conj_sums_fields_equal_dict_path_when_chained(self, p, q):
        for A in _conj_sums_fields(random.Random(p * q), 6):
            entries = A.as_complex_dict()
            for ell in (1, 2, 3):
                got, expected = apply_hecke_float(ell, p, entries), apply_hecke_float_dict(ell, p, entries)
                _assert_same_as_dict_path(got, expected)
                for m in (1, 2, 3):
                    # a returned mapping is read without conversion
                    _assert_same_as_dict_path(apply_hecke_float(m, q, got), apply_hecke_float_dict(m, q, expected))

    def test_empty_field(self):
        for ell in (1, 2, 3):
            out = apply_hecke_float(ell, 5, {})
            assert len(out) == 0 and out == {} and apply_hecke_float_dict(ell, 5, {}) == {}

    @pytest.mark.parametrize("top", [2 ** 25, 2 ** 40, 2 ** 53, 2 ** 58, 10 ** 30])
    def test_coordinates_past_the_int64_packing(self, top):
        # from 2^25 on, keys span too wide to pack three into one int64; at 2^53 the keys and the
        # T_2 images fit int64 but H_3's second scatter at p = 5, 7 runs on Python ints; at 2^58
        # the keys fit int64 but the images of one operator do not; 10^30 leaves int64 itself
        entries = {(top, 3, 0): 1 + 2j, (9 * top, 0, 9): -1.0 + 0j, (1, 0, 0): 0.5j, (3, 6, 9): 2.0 + 0j,
                   (0, top, -top): 0.25 - 1j}
        for p in (3, 5, 7):
            for ell in (1, 2, 3):
                got, expected = apply_hecke_float(ell, p, entries), apply_hecke_float_dict(ell, p, entries)
                _assert_same_as_dict_path(got, expected)
                assert any(max(map(abs, beta)) >= top for beta in got)
                _assert_same_as_dict_path(apply_hecke_float(2, 11, got), apply_hecke_float_dict(2, 11, expected))

    def test_commutator_on_python_int_keys_equals_dict_path(self):
        # a coordinate of 10^30 keeps every key on Python ints, so the difference sorts them by np.lexsort
        A = (CoefficientField.random(random.Random(29), support=5, coord_bound=2, entry_bound=4)
             + CoefficientField(None, {(10 ** 30, 3, 0): QComplex.of(1, 2)})).symmetrized()
        for ell, m in itertools.product((1, 2), repeat=2):
            got, expected = verify_commutativity(3, 5, ell, m, A), commutator_dict(3, 5, ell, m, A)
            assert abs(got - expected) <= 1e-15 * expected, (ell, m)

    def test_wide_key_span_commutator_equals_dict_path(self):
        # a coordinate of 10^6 makes every key span pass 2^21, so no three keys pack into one int64
        # and each merge sorts the columns (np.lexsort); outputs and key order stay the dict path's
        rng = random.Random(23)
        base = CoefficientField.random(rng, support=4, coord_bound=2, entry_bound=4)
        A = (base + CoefficientField(None, {(10 ** 6, 2, 1): QComplex.of(3, -1), (1, 10 ** 6, 0): QComplex.of(0, 2)})
             ).symmetrized()
        entries = A.as_complex_dict()
        for p, q in ((3, 5), (5, 7)):
            for ell, m in itertools.product((1, 2, 3), repeat=2):
                inner = apply_hecke_float(m, q, entries)
                keys = np.array(list(inner))
                assert int(keys.max()) - int(keys.min()) + 1 > 2 ** 21
                expected_inner = apply_hecke_float_dict(m, q, entries)
                _assert_same_as_dict_path(inner, expected_inner)
                _assert_same_as_dict_path(apply_hecke_float(ell, p, inner), apply_hecke_float_dict(ell, p, expected_inner))
                got, expected = verify_commutativity(p, q, ell, m, A), commutator_dict(p, q, ell, m, A)
                assert abs(got - expected) <= 1e-15 * expected, (p, q, ell, m)

    @pytest.mark.parametrize("top", [2 ** 20, 2 ** 21, 2 ** 40, 2 ** 62])
    def test_merge_equals_dict_loop_in_key_order(self, top):
        # int64 keys of any span, and the same keys on Python ints, then keys past 2^63, as one part
        # and as three with an empty one between: the keys come out as sorted(set(keys)); complex
        # sums equal a dict loop from +0j bit for bit, zero signs included, which np.add.reduceat's
        # pairwise sums would not; int64 and Python-int rows sum exactly
        rng = random.Random(top)
        picks = [(rng.choice((-top, 0, 5, top - 1)), rng.randint(-3, 3), rng.choice((0, top - 1))) for _ in range(300)]
        wide = [(b0 * 2 ** 64 + 1, b1, -b2 * 10 ** 30) for b0, b1, b2 in picks]
        values = (np.array([complex(rng.choice((-0.0, rng.uniform(-1, 1) * 10.0 ** rng.randint(0, 16))),
                                    rng.choice((-0.0, rng.uniform(-1, 1)))) for _ in picks]),
                  np.array([[rng.randint(-2 ** 50, 2 ** 50) for _ in range(2)] for _ in picks], dtype=np.int64),
                  np.array([[rng.randint(-10 ** 30, 10 ** 30) for _ in range(2)] for _ in picks], dtype=object))
        for rows, keys in ((picks, np.array(picks, dtype=np.int64)), (picks, np.array(picks, dtype=object)),
                           (wide, np.array(wide, dtype=object))):
            for vals in values:
                loop = {}
                for k, v in zip(rows, vals.tolist()):
                    loop[k] = loop.get(k, 0j) + v if vals.ndim == 1 else [a + b for a, b in zip(loop.get(k, (0, 0)), v)]
                expected = [loop[k] for k in sorted(set(rows))]
                for parts in (((keys, vals),), ((keys[:100], vals[:100]), (keys[:0], vals[:0]), (keys[100:], vals[100:]))):
                    got_keys, sums = hecke._merge(*parts)
                    assert list(map(tuple, got_keys.tolist())) == sorted(set(rows)) and sums.dtype == vals.dtype
                    if vals.ndim == 1:
                        assert [(x.real.hex(), x.imag.hex()) for x in sums.tolist()] == [
                            (x.real.hex(), x.imag.hex()) for x in expected]
                    else:
                        assert sums.tolist() == expected
                got_keys, sums = hecke._merge((keys[:0], vals[:0]))
                assert got_keys.shape == (0, 3) and sums.shape == vals[:0].shape

    @pytest.mark.parametrize("top", [5, 2 ** 20, 2 ** 40, 2 ** 62 - 1])
    def test_runs_keep_rows_of_a_key_in_input_order(self, top):
        # both sorts of _runs: packed with the row below the key (negative keys, and keys that do
        # not straddle 0), and np.lexsort past span^3 n and on Python ints (keys moved past 2^63)
        rng = random.Random(top)
        for shift in (0, -top // 2, top // 3, 2 ** 64 + 7):
            picks = [(rng.choice((-top, 0, top)) // 2 + shift, rng.randint(-2, 2), rng.choice((1, top // 2)))
                     for _ in range(200)]
            order, new = hecke._runs(np.array(picks, dtype=np.int64 if shift < 2 ** 62 else object))
            runs = np.split(order, new.nonzero()[0][1:])
            assert sorted(order.tolist()) == list(range(len(picks)))
            assert all(sorted(run.tolist()) == run.tolist() for run in runs)
            rows_of = {}
            for i, k in enumerate(picks):
                rows_of.setdefault(k, []).append(i)
            assert sorted(run.tolist() for run in runs) == sorted(rows_of.values())

    @pytest.mark.parametrize("d", [1, 3, 49, 2 ** 31 + 11, 2 ** 62 + 1, 2 ** 63 - 1, 2 ** 63, 10 ** 30])
    def test_divided_and_mod_match_python(self, d):
        rng = random.Random(d % 1000)
        edge = 2 ** 62 - 1
        rows = [(edge, -edge, 0), (-edge, d % edge, -(d % edge)), (0, 0, 0)] + [
            tuple(rng.randint(-edge, edge) for _ in range(3)) for _ in range(50)] + [
            tuple(d * rng.randint(-3, 3) % edge for _ in range(3)) for _ in range(10)]
        for keys in (np.array(rows, dtype=np.int64), np.array(rows, dtype=object)):
            quo, hit = hecke._divided(keys, d)
            assert quo.tolist() == [[c // d for c in row] for row in rows]
            assert hit.tolist() == [all(c % d == 0 for c in row) for row in rows]
            assert hecke._divisible(keys, d).tolist() == hit.tolist()
            if d < 2 ** 63:
                assert hecke._mod(keys, d).tolist() == [[c % d for c in row] for row in rows]

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 97, 997])
    def test_vectorized_epsilon_case(self, p):
        def by_euler(beta):  # the four cases with (-N(beta) | p) by Euler's criterion, not the residue table
            if all(c % p == 0 for c in beta):
                return 0
            n = lattice_norm(beta)
            return 1 if n % p == 0 else 2 if pow(-n, (p - 1) // 2, p) == 1 else 3

        def checked(keys, dtype):
            cases = _epsilon_cases(np.array(keys, dtype=dtype), p)
            assert cases.tolist() == [_epsilon_case(beta, p) for beta in keys] == list(map(by_euler, keys))
            assert set(cases.tolist()) == {0, 1, 2, 3}

        if p < 20:  # every residue class of every coordinate, and past it on both sides
            checked([beta for beta in itertools.product(range(-p - 2, p + 3), repeat=3) if beta != (0, 0, 0)], np.int64)
        # 2,000 random keys of either sign, a quarter each multiples of p and of norm divisible by p, which
        # random coordinates hit about once in p^3 and p draws; the same keys moved by multiples of p past
        # 2^62 on Python ints
        rng = random.Random(p)
        root = {c * c % p: c for c in range(p)}
        keys = []
        while len(keys) < 2000:
            b0, b1, b2 = (rng.randint(-10 ** 6, 10 ** 6) for _ in range(3))
            if len(keys) % 4 == 0:
                b0, b1, b2 = b0 * p, b1 * p, b2 * p
            elif len(keys) % 4 == 1:
                if -(b0 * b0 + b1 * b1) % p not in root:
                    continue
                b2 = root[-(b0 * b0 + b1 * b1) % p] + p * b2
            if any((b0, b1, b2)):
                keys.append((b0, b1, b2))
        checked(keys, np.int64)
        shift = p * 2 ** 64
        checked([(b0 + shift * rng.choice((-1, 1)), b1 - shift, b2 + 3 * shift) for b0, b1, b2 in keys], object)
        huge = [(10 ** 30 * p, 0, p), (10 ** 30 + 1, 2, 0)]
        assert (_epsilon_cases(np.array(huge, dtype=object), p).tolist() == [_epsilon_case(b, p) for b in huge]
                == list(map(by_euler, huge)))
        assert hecke._case_table(p) is hecke._case_table(p) and not hecke._case_table(p).flags.writeable

    def test_returned_mapping(self):
        entries = CoefficientField.random(random.Random(3), support=6).symmetrized().as_complex_dict()
        out = apply_hecke_float(2, 3, entries)
        expected = apply_hecke_float_dict(2, 3, entries)
        assert isinstance(out, Mapping) and not isinstance(out, dict)
        assert len(out) == len(expected) > 0
        assert list(out) == list(expected) and list(out.items()) == list(expected.items())
        beta = next(iter(expected))
        assert out.get(beta) == expected[beta] and out.get((0, 0, 0)) is None and out.get((0, 0, 0), 7) == 7
        assert (0, 0, 0) not in out and beta in out
        assert out == expected and expected == out and out != {}
        with pytest.raises(TypeError):
            out[beta] = 0j
        with pytest.raises(TypeError):
            del out[beta]
        assert not hasattr(out, "update") and not hasattr(out, "pop")


def _alternative_reps(p, seed):
    """The canonical representatives times seeded non-identity units, shuffled."""
    rng = random.Random(seed)
    reps = [rng.choice(UNITS[1:]) * r for r in orbit_representatives(p).representatives]
    rng.shuffle(reps)
    return tuple(reps)


def _scattered(pairs, k, entries):
    """T_k A as the operators read it: the values of `entries` added along the array pairs of a _Pairs of
    its points, in pair order."""
    values, acc = list(entries.values()), {}
    betas, rows = pairs.pairs(k)
    for beta, row in zip(map(tuple, betas.tolist()), rows.tolist()):
        acc[beta] = acc[beta] + values[row] if beta in acc else values[row]
    return acc


def _row_sums(k, p, ints, mats):
    """T_k A of int values through _conj_sum_rows, as a dict beta -> sum."""
    keys, rows = hecke._support_array(list(ints)), hecke._int_array(list(ints.values()), 1)
    betas, sums_ = hecke._conj_sum_rows(k, p, keys, rows, mats, (hecke._peak(keys), hecke._peak(rows)))
    return {tuple(b): r for b, (r,) in zip(betas.tolist(), sums_.tolist())}


class TestConjSum:
    # the scatters the library runs against the pair loop reference.pair_conj_sum: the array pairs of
    # a _Pairs (T_2 from the star product, T_1 and T_0 derived from a higher T_k's pairs) and
    # _conj_sum_rows (T_3, T_4)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_pair_reference(self, p):
        # equal dicts in equal order, in every order of requests: the float sums then add in the
        # same order, bit for bit
        rng = random.Random(200 + p)
        for table in (conjugation_matrices(p), tuple(map(conjugation_matrix, _alternative_reps(p, p)))):
            for support, bound in ((1, 1), (8, 2), (30, 4), (60, 2 * p * p)):
                points = {tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(support)}
                points.discard((0, 0, 0))
                ints = {beta: rng.randint(-9, 9) for beta in points}
                floats = {beta: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for beta in points}
                expected = {(k, kind): list(pair_conj_sum(k, p, entries, table).items())
                            for k in range(3) for kind, entries in (("int", ints), ("float", floats))}
                keys = hecke._support_array(list(ints))
                for order in itertools.permutations(range(3)):
                    for made in (hecke._Pairs(p, keys, table), hecke._Pairs(p, keys, table, hecke._peak(keys))):
                        for k in order:
                            for kind, entries in (("int", ints), ("float", floats)):
                                got = list(_scattered(made, k, entries).items())
                                assert got == expected[k, kind], (k, order, support, bound)
                for k in (3, 4):
                    assert _row_sums(k, p, ints, table) == pair_conj_sum(k, p, ints, table), (k, support, bound)

    def test_zero_support(self):
        mats = conjugation_matrices(3)
        for k in range(3):
            betas, rows = hecke._Pairs(3, hecke._support_array([]), mats).pairs(k)
            assert betas.shape == (0, 3) and rows.shape == (0,)
        for k in (3, 4):
            assert _row_sums(k, 3, {}, mats) == {}

    @pytest.mark.parametrize("p", [3, 7])
    def test_object_path_past_int64_matches_pair_reference(self, p):
        mats = conjugation_matrices(p)
        reach = hecke._star_block(mats)[1]
        assert reach <= 3 * p
        for k in range(5):
            edge = 2 ** 62 // (reach * p ** max(k - 2, 0))  # _star_images keeps images below 2^62 on int64
            inside = np.array([(edge - 1, 0, 1)], dtype=np.int64)
            assert hecke._star_images(k, p, inside, mats, edge - 1)[0].dtype == np.int64
            for top in (edge + 1, 10 ** 30):
                past = hecke._support_array([(-top, 0, 1)])
                assert hecke._star_images(k, p, past, mats, top)[0].dtype == object
                entries = {(top, 3, 0): 5, (-top, p * p, 2 * p): -2, (p * top, 1, -1): 7, (1, 2, 3): 1}
                expected = pair_conj_sum(k, p, entries, mats)
                if k < 3:
                    got = _scattered(hecke._Pairs(p, hecke._support_array(list(entries)), mats), k, entries)
                    assert list(got.items()) == list(expected.items()), (k, top)
                else:
                    got = _row_sums(k, p, entries, mats)
                    assert got == expected, (k, top)
                assert all(type(c) is int for beta in got for c in beta)

    @pytest.mark.parametrize("top", ["edge", 10 ** 30])
    def test_huge_coordinates_exact_through_the_operators(self, top):
        # the object path through H_1..H_3, both tables, against the QuadExt gather reference
        p = 7
        if top == "edge":  # the least coordinate the T_0, T_1, T_2 scatters take past int64
            top = 2 ** 62 // hecke._star_block(conjugation_matrices(p))[1] + 1
        A = CoefficientField(p, {(top, 3, 0): QComplex(QuadExt(p, Fraction(1, 3), Fraction(2)), QuadExt.of(1, p)),
                                 (1, 2, 3): QComplex.of(5, p=p)})
        for table in (None, _alternative_reps(p, 3)):
            for ell in (1, 2, 3):
                got = apply_hecke(ell, p, A, representatives=table)
                expected = _quadext_apply(ell, p, A, table)
                assert got == expected and _snapshot(got) == _snapshot(expected), (table, ell)
        assert verify_hecke_relation(p, A).is_zero

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_rows_scatter_matches_pair_reference(self, p):
        # _conj_sum_rows sums the same terms as the pair reference, on int64 and on Python ints:
        # coordinates past the images' int64 guard, and values past the sums' guard
        mats = conjugation_matrices(p)
        rng = random.Random(300 + p)
        widest = 2 ** 62 // hecke._star_block(mats)[1] + 1
        past_sums = 2 ** 63 // len(mats) + 1
        for top, value in ((4, 9), (2 * p * p, 9), (widest, 9), (10 ** 30, 9), (4, past_sums), (4, 2 ** 63 - 1)):
            points = {tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(40)} | {(top, 0, p), (p, top, 0)}
            points.discard((0, 0, 0))
            ints = {beta: rng.randint(-value, value) for beta in points}
            keys = hecke._support_array(list(ints))
            rows = np.array([[v, -v] for v in ints.values()], dtype=object if keys.dtype == object else np.int64)
            for k in range(4):
                betas, sums_ = hecke._conj_sum_rows(k, p, keys, rows, mats, (hecke._peak(keys), hecke._peak(rows)))
                got = {tuple(b): tuple(r) for b, r in zip(betas.tolist(), sums_.tolist())}
                expected = pair_conj_sum(k, p, ints, mats)
                assert len(got) == len(betas) and got == {b: (v, -v) for b, v in expected.items()}, (top, value, k)
                assert all(type(c) is int for row in got.values() for c in row)

    def test_rows_scatter_on_an_empty_support(self):
        betas, rows = hecke._conj_sum_rows(1, 3, np.zeros((0, 3), np.int64), np.zeros((0, 4), np.int64),
                                           conjugation_matrices(3), (0, 0))
        assert betas.shape == (0, 3) and rows.shape == (0, 4)

    def test_representatives_path_reads_its_own_block(self):
        # an alternative table builds its own star block: its _Pairs pairs follow that table
        p = 5
        reps = _alternative_reps(p, 11)
        alternative = tuple(map(conjugation_matrix, reps))
        assert alternative != conjugation_matrices(p)
        entries = {(1, 2, 0): 1, (0, 1, 1): 2, (3, -1, 4): -3}
        pairs = hecke._Pairs(p, hecke._support_array(list(entries)), alternative)
        for k in range(3):
            assert _scattered(pairs, k, entries) == pair_conj_sum(k, p, entries, alternative)
        A = CoefficientField(None, {beta: QComplex.of(v) for beta, v in entries.items()})
        for ell in (1, 2, 3):
            assert apply_hecke(ell, p, A, representatives=reps) == _quadext_apply(ell, p, A, reps)


class TestNumeratorCache:
    def test_repeated_reads_agree(self):
        rng = random.Random(5)
        for p in (3, 5, 7):
            A = CoefficientField.random(rng, p=p, support=12, sqrt_parts=True).symmetrized()
            first = [sums.sum_R(A, p, ell, 1, A.support_radius * p ** 2) for ell in (0, 1, 2)]
            applied = [apply_hecke(ell, p, A) for ell in (1, 2, 3)]
            again = [sums.sum_R(A, p, ell, 1, A.support_radius * p ** 2) for ell in (0, 1, 2)]
            assert [repr(x) for x in first] == [repr(x) for x in again]
            assert applied == [apply_hecke(ell, p, A) for ell in (1, 2, 3)]
            fresh = CoefficientField(p, dict(A.entries))
            assert applied == [apply_hecke(ell, p, fresh) for ell in (1, 2, 3)]

    def test_scaled_read_leaves_the_cache_unchanged(self):
        p = 5
        A = CoefficientField(p, {(1, 0, 0): QComplex(QuadExt(p, Fraction(1, 2), Fraction(1, 3)), QuadExt.of(0)),
                                 (0, 2, 1): QComplex.of(Fraction(-3, 4), 2, p=p)})
        keys, nums = A.keys, A.nums
        rows = [[6, 4, 0, 0], [-9, 0, 24, 0]]
        assert A.den == 12 and keys.tolist() == [[1, 0, 0], [0, 2, 1]] and nums.tolist() == rows
        assert A.num_peak == 24 and A.key_peak == 2 and A.norms.tolist() == [1, 5]
        assert not keys.flags.writeable and not nums.flags.writeable and not A.norms.flags.writeable
        big = hecke._rows(A, p)  # the exact operators' input rows over 12 p^3
        assert big.dtype == np.int64 and big.tolist() == [[c * p ** 3 for c in row] for row in rows]
        assert A.keys is keys and A.nums is nums and A.den == 12 and nums.tolist() == rows

    def test_with_prime_keeps_the_field(self):
        A = CoefficientField.delta((1, 2, 3), 2, p=7)
        assert A.with_prime(7) is A
        assert CoefficientField.delta((1, 2, 3), 2).with_prime(7) == A


def _row_bound(p, peak):
    """B = peak p^4 ((p+3)^2 + 5p + 17): the bound on every entry of a row that the hecke integer-domain note proves."""
    return peak * p ** 4 * ((p + 3) ** 2 + 5 * p + 17)


def _int64_edge(p):
    """The largest numerator peak M whose rows the exact operators keep on int64: B p^3 = M p^7 G(p) < 2^63."""
    return (2 ** 63 - 1) // (p ** 7 * ((p + 3) ** 2 + 5 * p + 17))


def _quadext_scatter(ell, p, A):
    """H_ell A by the dict scatter on QuadExt/QComplex scalars: Fraction arithmetic throughout, like
    _quadext_apply, for primes where the gather form's (p+1)^2 products per point take too long."""
    A = A.with_prime(p)
    weights = _hecke_weights(p, lambda fr: QuadExt.of(fr, p))
    return CoefficientField(p, apply_dict(ell, p, A.entries, weights, QuadExt(p, Fraction(0), Fraction(1, p))))


class TestLanes:
    """The four numerators of a value as one row (ra, rb, ia, ib), its lanes, through the exact
    operators' own term builder (the hecke integer-domain note)."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([3, 5, 7, 997]), st.integers(1, 2 ** 80), st.data())
    def test_inv_sqrt_round_trip_at_the_bound(self, p, peak, data):
        # every lane up to +-B, the rational lanes multiples of p as the divisibility invariant keeps them,
        # on the dtype that the operators pick for numerators up to peak; H_2's first group is
        # p^(-1/2) of each row, once per star image
        bound = _row_bound(p, peak)

        def lane(step):
            top = bound // step
            return step * data.draw(st.one_of(st.sampled_from([-top, top, 0, 1, -1]), st.integers(-top, top)))

        ra, rb, ia, ib = lane(p), lane(1), lane(p), lane(1)
        dtype = hecke._rows(CoefficientField.delta((1, 0, 0), peak, p=p), p).dtype
        assert dtype == (np.int64 if peak <= _int64_edge(p) else object)
        row = np.array([[ra, rb, ia, ib]], dtype=dtype)
        _, scaled = hecke._terms(2, hecke._Pairs(p, np.array([[1, 0, 0]])), row)[0]
        root = QuadExt(p, Fraction(0), Fraction(1, p))  # 1/sqrt(p)
        re, im = QuadExt(p, Fraction(ra), Fraction(rb)) * root, QuadExt(p, Fraction(ia), Fraction(ib)) * root
        assert scaled.dtype == dtype and scaled[0].tolist() == [re.a, re.b, im.a, im.b]

    def test_weights_divide_exactly_lane_by_lane(self):
        # v n // p^3 on a row is n l // p^3 on each lane when p^3 divides every lane, at any sign: E and mid
        # on one key of each _epsilon_case, with lanes at +-B for the largest peak on int64, where the
        # products reach B p^3, and one past it, on Python ints.  Numerators up to 10, as `hecke
        # verify-relation` draws them, stay on int64 up to p = 97 and go onto Python ints from p = 101
        for p in (3, 7, 97, 101):
            assert hecke._rows(CoefficientField.delta((1, 0, 0), 10, p=p), p).dtype == (np.int64 if p < 100 else object)
            cube = p ** 3
            keys = [next(b for b in itertools.product(range(p + 1), repeat=3) if any(b) and _epsilon_case(b, p) == case)
                    for case in range(4)]
            pairs = hecke._Pairs(p, np.array(keys))
            weights = hecke._int_weights(p)
            for peak, dtype in ((_int64_edge(p), np.int64), (_int64_edge(p) + 1, object)):
                assert hecke._rows(CoefficientField.delta((1, 0, 0), peak, p=p), p).dtype == dtype
                top = _row_bound(p, peak) // cube * cube
                lanes = [[top, -top, -cube, 0], [-top, top, cube, 0], [top, top, -top, -top], [0, -cube, top, cube]]
                rows = np.array(lanes, dtype=dtype)
                for ell, table in ((2, weights.eps), (3, weights.mid)):
                    group_keys, weighed = hecke._terms(ell, pairs, rows)[2]
                    assert group_keys.tolist() == [list(b) for b in keys]
                    expected = [[x * table[case] // cube for x in row] for case, row in enumerate(lanes)]
                    assert weighed.tolist() == expected

    @pytest.mark.parametrize("p,radius", [(3, 12), (997, 2)])
    def test_worst_case_growth_field(self, p, radius):
        # every part at +-peak and the same value on a sign-symmetric ball: the terms of a sum share
        # their signs and the most of them collide.  At p = 997 only H_1 is compared with the gather
        # form; H_2 and H_3 are compared with the same scatter on QuadExt scalars
        peak = 2 ** 64 + 1
        value = QComplex(QuadExt(p, Fraction(peak), Fraction(peak)), QuadExt(p, Fraction(-peak), Fraction(-peak)))
        A = CoefficientField(p, {beta: value for beta in CoefficientField.ones_ball(radius).entries})
        assert A.symmetrized() == A
        for ell in (1, 2, 3):
            got = apply_hecke(ell, p, A)
            expected = _quadext_apply(ell, p, A) if p < 100 or ell == 1 else _quadext_scatter(ell, p, A)
            assert got == expected and _snapshot(got) == _snapshot(expected), ell
        assert verify_hecke_relation(p, A).is_zero

    def test_numerators_past_2_to_the_64(self):
        # test_cli.py's huge_numerators field: numerators up to 10^60 over a denominator of 3 10^30
        p, huge = 5, 10 ** 30
        A = CoefficientField(p, {
            (1, 1, 0): QComplex(QuadExt(p, Fraction(huge), Fraction(-huge - 7)),
                                QuadExt.of(Fraction(huge ** 2 + 1, 3), p)),
            (2, 0, 0): QComplex(QuadExt.of(-(10 ** 40), p), QuadExt(p, Fraction(0), Fraction(1, huge))),
        })
        assert A.nums.dtype == object
        for ell in (1, 2, 3):
            got = apply_hecke(ell, p, A)
            expected = _quadext_apply(ell, p, A)
            assert got == expected and _snapshot(got) == _snapshot(expected), ell
        assert verify_hecke_relation(p, A).is_zero

    @pytest.mark.parametrize("p", [3, 5])
    def test_rows_leave_int64_where_the_bound_reaches_2_to_the_63(self, p):
        # the worst-case field of test_worst_case_growth_field at the largest peak that the proven bound
        # keeps on int64, and at one more, on Python ints: exact outputs and a zero relation on both sides
        edge = _int64_edge(p)
        growth = p ** 7 * ((p + 3) ** 2 + 5 * p + 17)
        assert edge * growth < 2 ** 63 <= (edge + 1) * growth
        for peak, dtype in ((edge, np.int64), (edge + 1, object)):
            value = QComplex(QuadExt(p, Fraction(peak), Fraction(peak)), QuadExt(p, Fraction(-peak), Fraction(-peak)))
            A = CoefficientField(p, {beta: value for beta in CoefficientField.ones_ball(3).entries})
            assert A.num_peak == peak and A.nums.dtype == np.int64 and hecke._rows(A, p).dtype == dtype
            for ell in (1, 2, 3):
                got = apply_hecke(ell, p, A)
                expected = _quadext_scatter(ell, p, A)
                assert got == expected and _snapshot(got) == _snapshot(expected), (peak, ell)
                assert got.keys.dtype == got.nums.dtype == np.int64  # outputs that fit int64 come back on it
            assert verify_hecke_relation(p, A).is_zero


def _double_conjugation_hits(p, A, h3):
    """Support hits of the H_3 term A(conj_j(conj_i(beta))/p^2) with p | conj_i(beta), over beta in h3."""
    mats = conjugation_matrices(p)
    hits = 0
    for beta in h3.entries:
        for mat in mats:
            conj = apply_matrix(mat, beta)
            if all(c % p == 0 for c in conj):
                hits += sum(divide_lattice(apply_matrix(mat2, conj), p * p) in A.entries for mat2 in mats)
    return hits


class TestRepresentativeIndependence:
    def test_outputs_invariant_on_symmetric_fields(self):
        # swap every representative for a random unit multiple and recompute;
        # exact equality on the sign-symmetric subspace
        from h4hecke.quaternions import orbit_representatives
        rng = random.Random(17)
        p = 3
        A = CoefficientField.random(rng, p=p, support=5, sqrt_parts=True).symmetrized()
        assert A.symmetrized() == A
        baseline = [apply_hecke(ell, p, A) for ell in (1, 2, 3)]
        canonical = orbit_representatives(p).representatives
        for _ in range(8):
            reps = [rng.choice(UNITS) * r for r in canonical]
            rng.shuffle(reps)
            alt = [apply_hecke(ell, p, A, representatives=tuple(reps)) for ell in (1, 2, 3)]
            for b, a in zip(baseline, alt):
                assert b == a

    def test_symmetry_is_required(self):
        # without the sign symmetry the conjugation sums depend on the table
        from h4hecke.quaternions import orbit_representatives
        p = 3
        A = CoefficientField.delta((1, 2, 0), 1, p=p)
        assert A.symmetrized() != A
        canonical = orbit_representatives(p).representatives
        twisted = tuple(UNITS[2] * r for r in canonical)  # left-multiply by i
        base = apply_hecke(1, p, A)
        alt = apply_hecke(1, p, A, representatives=twisted)
        assert base != alt

    def test_symmetrized_is_idempotent_projection(self):
        rng = random.Random(23)
        A = CoefficientField.random(rng, p=5, support=6, sqrt_parts=True)
        S = A.symmetrized()
        assert S.symmetrized() == S
        already = CoefficientField.delta((1, 0, 0), 1).symmetrized()
        assert already.symmetrized() == already


class TestRelation:
    def test_delta_relation_and_constant(self):
        assert hecke_relation_constant(3) == Fraction(40, 27)
        residual = verify_hecke_relation(3, CoefficientField.delta((1, 0, 0), 1, p=3))
        assert residual.is_zero

    def test_zero_field(self):
        assert verify_hecke_relation(5, CoefficientField.zero(5)).is_zero

    def test_random_fields_all_primes(self):
        rng = random.Random(123)
        for p in (3, 5, 7):
            for _ in range(3):
                A = CoefficientField.random(rng, p=p, support=5, sqrt_parts=True)
                assert verify_hecke_relation(p, A).is_zero

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_relation_on_every_delta_in_box(self, p):
        # the operators are Q(sqrt p)(i)-linear, so the identity on every
        # delta_beta with |b_i| <= 2 proves it for every field supported there
        box = [beta for beta in itertools.product(range(-2, 3), repeat=3) if any(beta)]
        assert len(box) == 124
        # no key of the box is divisible by p^2, so only these deltas reach H_3's A(beta/p^2) term
        far = [(p * p, 0, 0), (p * p, p * p, 0), (0, 0, p ** 4)]
        for beta in box + far:
            assert verify_hecke_relation(p, CoefficientField.delta(beta, 1, p=p)).is_zero
        for beta in far:
            A = CoefficientField.delta(beta, 1, p=p)
            expected = _quadext_scatter(3, p, A)
            assert apply_hecke(3, p, A) == expected and expected.entries, beta

    def test_nonzero_residual_is_exact(self, monkeypatch):
        # a relation constant off by 5/p^3 leaves exactly 5/p^3 A, on a
        # field whose denominators are not powers of p
        constant = hecke.hecke_relation_constant
        monkeypatch.setattr(hecke, "hecke_relation_constant", lambda p: constant(p) - Fraction(5, p ** 3))
        rng = random.Random(41)
        for p in (3, 5, 7):
            A = CoefficientField.random(rng, p=p, support=5, sqrt_parts=True).symmetrized()
            A = A + A.scale(QuadExt.of(Fraction(1, 3), p))
            expected = A.scale(QuadExt.of(Fraction(5, p ** 3), p))
            residual = verify_hecke_relation(p, A)
            assert residual == expected and _snapshot(residual) == _snapshot(expected)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_four_public_applies(self, p):
        # the shared support and the terms added straight into the residual against four apply_hecke
        # calls and the field's + and scale: over Q(sqrt p), over plain Q, with D > 1, past 2^63
        rng = random.Random(60 + p)
        huge = 10 ** 25
        fields = [
            CoefficientField.random(rng, p=p, support=8, sqrt_parts=True),
            CoefficientField.random(rng, p=None, support=8).symmetrized(),
            CoefficientField(p, {(1, 2, 0): QComplex(QuadExt(p, Fraction(1, 6), Fraction(-2, 3)), QuadExt.of(5, p)),
                                 (3, 0, -1): QComplex.of(Fraction(-7, 4), Fraction(1, p * p), p=p)}),
            CoefficientField(p, {(2, -1, 1): QComplex(QuadExt(p, Fraction(huge), Fraction(-huge - 1, 3)),
                                                      QuadExt.of(Fraction(huge ** 2, 7), p)),
                                 (p, 0, p): QComplex.of(-(10 ** 20), p=p)}),
        ]
        assert fields[1].p is None and fields[2].den > 1 and fields[3].nums.dtype == object
        for A in fields:
            residual = verify_hecke_relation(p, A)
            expected = relation_residual_by_applies(p, A)
            assert residual.is_zero and residual == expected and _snapshot(residual) == _snapshot(expected)

    def test_nonzero_residual_matches_four_public_applies(self, monkeypatch):
        # both read the patched constant, so both leave 5/p^3 A, with D > 1
        constant = hecke.hecke_relation_constant
        monkeypatch.setattr(hecke, "hecke_relation_constant", lambda p: constant(p) - Fraction(5, p ** 3))
        rng = random.Random(43)
        for p in (3, 5, 7):
            A = CoefficientField.random(rng, p=p, support=6, sqrt_parts=True)
            A = A + A.scale(QuadExt.of(Fraction(1, 6), p))
            residual = verify_hecke_relation(p, A)
            expected = relation_residual_by_applies(p, A)
            assert not residual.is_zero and residual.den > 1
            assert residual == expected and _snapshot(residual) == _snapshot(expected)

    @pytest.mark.parametrize("part", ["eps", "mid"])
    def test_relation_runs_the_operators_own_code(self, monkeypatch, part):
        # one weight numerator of H_2 (eps) or H_3 (mid) off by one moves that operator and the
        # relation, by exactly the term it weighs: a private copy of the operator in the relation
        # would leave the residual zero
        p = 5
        A = CoefficientField.random(random.Random(9), p=p, support=8, sqrt_parts=True)
        case = _epsilon_case(next(iter(A.entries)), p)
        before = {ell: apply_hecke(ell, p, A) for ell in (1, 2, 3)}
        weights = hecke._int_weights(p)
        bumped = list(getattr(weights, part))
        bumped[case] += 1
        changed = weights._replace(**{part: tuple(bumped)})
        monkeypatch.setattr(hecke, "_int_weights", lambda q: changed if q == p else weights)
        moved = 2 if part == "eps" else 3
        on_case = CoefficientField(p, {b: v for b, v in A.entries.items() if _epsilon_case(b, p) == case})
        assert apply_hecke(moved, p, A) == before[moved] + on_case.scale(Fraction(1, p ** 3))
        assert all(apply_hecke(ell, p, A) == before[ell] for ell in (1, 2, 3) if ell != moved)
        weight = -(1 + Fraction(1, p)) if part == "eps" else Fraction(-1)
        residual = verify_hecke_relation(p, A)
        expected = on_case.scale(weight / p ** 3)
        assert not residual.is_zero and residual == expected and _snapshot(residual) == _snapshot(expected)

    def test_operators_and_relation_read_one_case_table(self, monkeypatch):
        # one entry of the per-prime case table moved to another case moves H_2 and H_3 by exactly the
        # terms on the keys that entry covers, and the relation with them: a private case map in an
        # operator or in the relation would leave that output or the residual unmoved
        p = 3
        A = CoefficientField.random(random.Random(9), p=p, support=8, sqrt_parts=True)
        A = A + CoefficientField(p, {(p, 0, -p): QComplex.of(2, -1, p=p), (0, 2 * p, p): QComplex.of(-5, p=p)})
        before = {ell: apply_hecke(ell, p, A) for ell in (1, 2, 3)}
        weights, original = _hecke_weights(p, Fraction), hecke._case_table

        def moved_entry(row, norm, case):
            table = original(p).copy()
            table[row, norm] = case
            monkeypatch.setattr(hecke, "_case_table", lambda q: table if q == p else original(q))

        # cases 2 and 3 swapped at one N(beta) mod p: E and mid change there, and the relation does not
        # move, since mid carries -(1 + 1/p) E
        beta = next(b for b in A.entries if _epsilon_case(b, p) > 1)
        case, norm = _epsilon_case(beta, p), lattice_norm(beta) % p
        moved_entry(1, norm, 5 - case)
        on_keys = CoefficientField(p, {b: v for b, v in A.entries.items()
                                       if any(c % p for c in b) and lattice_norm(b) % p == norm})
        assert apply_hecke(1, p, A) == before[1]
        for ell, part in ((2, weights.eps), (3, weights.mid)):
            assert part[5 - case] != part[case]
            assert apply_hecke(ell, p, A) == before[ell] + on_keys.scale(part[5 - case] - part[case])
        assert verify_hecke_relation(p, A).is_zero

        # p | beta read as case 1: E and mid change on the keys that p divides, and they leave u, so the
        # residual is those entries B plus p^(-1/2) T_0 B, as the four public applies give it
        moved_entry(0, 0, 1)
        B = CoefficientField(p, {b: v for b, v in A.entries.items() if not any(c % p for c in b)})
        assert len(B.entries) >= 2
        assert apply_hecke(2, p, A) == before[2] + B.scale(weights.eps[1] - weights.eps[0])
        low = {b: v * QuadExt(p, 0, Fraction(1, p)) for b, v in B.entries.items()}
        expected = B + CoefficientField(p, pair_conj_sum(0, p, low, conjugation_matrices(p)))
        residual = verify_hecke_relation(p, A)
        assert not residual.is_zero and residual == expected == relation_residual_by_applies(p, A)
        assert _snapshot(residual) == _snapshot(expected)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 31), st.sampled_from([3, 5]))
    def test_relation_property(self, seed, p):
        rng = random.Random(seed)
        A = CoefficientField.random(rng, p=p, support=4, coord_bound=2, entry_bound=5)
        assert verify_hecke_relation(p, A).is_zero


class TestCommutativity:
    def test_zero_field(self):
        assert verify_commutativity(3, 5, 1, 1, CoefficientField.zero()) == 0.0

    def test_delta_field(self):
        A = CoefficientField.delta((1, 0, 0), 1)
        assert verify_commutativity(3, 5, 1, 1, A) < 1e-9

    def test_symmetric_random_fields(self):
        rng = random.Random(77)
        A = CoefficientField.random(rng, support=5, coord_bound=2, entry_bound=4).symmetrized()
        for (ell, m) in ((1, 2), (2, 1), (2, 2)):
            assert verify_commutativity(3, 7, ell, m, A) < 1e-9

    def test_commutator_needs_sign_symmetry(self):
        # documented finding: without the Klein-group symmetry the
        # cross-prime commutator can be of size one
        A = CoefficientField.random(random.Random(5), support=5, coord_bound=2, entry_bound=4)
        assert verify_commutativity(3, 7, 1, 2, A) > 0.1

    def test_same_prime_rejected(self):
        with pytest.raises(ValueError):
            verify_commutativity(3, 3, 1, 1, CoefficientField.zero())

    def test_matches_dict_commutator(self):
        # the same sums as the dict path, both orders' outer terms in one sum; only np.abs and Python's abs
        # may differ in the last bit
        rng = random.Random(21)
        fields = _conj_sums_fields(rng, 4) + [CoefficientField.random(rng, support=8, coord_bound=3)]
        for A in fields:
            for p, q in ((3, 5), (3, 7), (5, 7), (7, 11)):
                for ell, m in itertools.product((1, 2, 3), repeat=2):
                    got, expected = verify_commutativity(p, q, ell, m, A), commutator_dict(p, q, ell, m, A)
                    assert type(got) is float
                    assert abs(got - expected) <= 1e-15 * expected, (p, q, ell, m)

    def test_past_the_scatter_ceiling_refused_before_any_operator(self, monkeypatch, time_limit):
        def unreachable(*args):
            raise AssertionError("operator work before the ceiling check")

        A = CoefficientField.random(random.Random(0), support=6).symmetrized()
        rows = len(A.entries) * 212 * 224
        assert rows > hecke.MAX_SCATTER_ROWS
        monkeypatch.setattr(hecke, "apply_hecke_float", unreachable)
        with time_limit(1), pytest.raises(ValueError, match=f"= {rows} rows, past {hecke.MAX_SCATTER_ROWS}"):
            verify_commutativity(211, 223, 1, 1, A)

    def test_ceiling_reads_len_times_both_star_counts(self):
        A = CoefficientField.ones_ball(3)  # 26 entries, sign-symmetric
        assert len(A.entries) * 90 * 98 <= hecke.MAX_SCATTER_ROWS < len(A.entries) * 98 * 102
        assert verify_commutativity(89, 97, 1, 2, A) < 1e-9
        with pytest.raises(ValueError, match="past"):
            verify_commutativity(97, 101, 1, 2, A)

    def test_ceiling_counts_the_second_scatter_of_h3(self, monkeypatch, time_limit):
        # [H_3, H_3] once ran 2.4 s at 24 entries, under a ceiling that counted only len(A)(p+1)(q+1)
        def unreachable(*args):
            raise AssertionError("operator work before the ceiling check")

        A = CoefficientField.ones_ball(3)  # 26 entries, none that 89 or 97 divides
        base = len(A.entries) * 90 * 98
        assert base <= hecke.MAX_SCATTER_ROWS < 5 * base
        monkeypatch.setattr(hecke, "apply_hecke_float", unreachable)
        formula = ("len(A)(p+1)(q+1) + (p+1)(q+1)(2 len(A) + p n_p) with n_p = 0 "
                   "+ (p+1)(q+1)(2 len(A) + q n_q) with n_q = 0")
        with time_limit(1), pytest.raises(ValueError, match=re.escape(
                f"scatters up to {formula} = {5 * base} rows, past {hecke.MAX_SCATTER_ROWS}, the largest supported")):
            verify_commutativity(89, 97, 3, 3, A)
        with time_limit(1), pytest.raises(ValueError, match=f"= {3 * base} rows, past"):
            verify_commutativity(89, 97, 3, 1, A)
        with time_limit(1), pytest.raises(ValueError, match=f"= {3 * base} rows, past"):
            verify_commutativity(89, 97, 2, 3, A)

    def test_ceiling_counts_keys_that_the_h3_prime_divides(self):
        # every image of a key that p divides is scattered again: p n_p more per (p+1)(q+1)
        A = CoefficientField.delta((3, 0, 3)) + CoefficientField.delta((1, 2, 0))
        rows, formula = hecke._commutator_rows(3, 5, 3, 1, A)
        assert rows == 2 * 4 * 6 + 4 * 6 * (2 * 2 + 3 * 1)
        assert formula == "len(A)(p+1)(q+1) + (p+1)(q+1)(2 len(A) + p n_p) with n_p = 1"
        assert hecke._commutator_rows(3, 5, 1, 3, A)[0] == 2 * 4 * 6 + 4 * 6 * (2 * 2 + 5 * 0)
        assert hecke._commutator_rows(3, 5, 1, 2, A) == (2 * 4 * 6, "len(A)(p+1)(q+1)")

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_h3_second_scatter_within_its_count(self, monkeypatch, p):
        # the T_0(1_p T_2 A) pass reads at most 2 len(A) + p n_p keys on one application of H_3
        rows = []
        star_images = hecke._star_images

        def counting(k, p_, gammas, mats, peak):
            if k == 0:
                rows.append(len(gammas))
            return star_images(k, p_, gammas, mats, peak)

        monkeypatch.setattr(hecke, "_star_images", counting)
        keys = [b for b in itertools.product(range(-p, p + 1), repeat=3) if any(b)]
        entries = {b: 1.0 for b in keys}
        n_p = sum(1 for b in keys if not (b[0] % p or b[1] % p or b[2] % p))
        hecke.apply_hecke_float(3, p, entries)
        assert 0 < rows[-1] <= 2 * len(keys) + p * n_p

    @pytest.mark.parametrize("p,q,name", [(0, 5, "p"), (3, 0, "q"), (-3, 5, "p")])
    def test_each_prime_checked_by_name(self, p, q, name):
        # these once ended in ZeroDivisionError or "math domain error" from the float weights
        bad = p if name == "p" else q
        with pytest.raises(ValueError, match=f"^{name} must be an odd prime, got {bad}$"):
            verify_commutativity(p, q, 1, 1, CoefficientField.delta((1, 0, 0), 1))


def _eigen_residual_full(A, lam):
    """eigen_residual by the earlier algorithm: apply each float operator on its whole
    candidate set, then keep the points of the safe ball N(beta) <= z0/p^4."""
    p = lam.p
    safe_radius = Fraction(A.support_radius, p ** 4)
    if A.is_zero:
        return EigenResidualReport(safe_radius, 0, (0.0, 0.0, 0.0))
    entries = A.as_complex_dict()
    residuals = []
    checked = 0
    any_points = False
    for ell, lam_ell in zip((1, 2, 3), (lam.lam1, lam.lam2, lam.lam3)):
        h = apply_hecke_float(ell, p, entries)
        points = {b for b in list(h) + list(entries) if lattice_norm(b) <= safe_radius}
        any_points = any_points or bool(points)
        checked = max(checked, len(points))
        residuals.append(max((abs(h.get(b, 0j) - lam_ell * entries.get(b, 0j)) for b in points), default=0.0))
    if not any_points:
        return EigenResidualReport(safe_radius, 0, None, empty_safe_support=True)
    return EigenResidualReport(safe_radius, checked, tuple(residuals))


class TestEigenResidual:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_full_evaluation(self, p):
        # Seeded symmetric fields: small ones have an empty safe ball.  Two far
        # points (p^2, b1, b2) and (2 p^2, b1', b2') push the support radius past
        # 4 p^4, so the safe ball holds lattice points, and beta/p^2 reaches them.
        rng = random.Random(p)
        lam = EigenvalueTriple.from_lam12(p, rng.uniform(-2, 2), rng.uniform(-2, 2))
        fields = []
        for _ in range(3):
            A = CoefficientField.random(rng, p=None, support=12, coord_bound=3).symmetrized()
            far = CoefficientField.random(rng, p=None, support=2, coord_bound=3).entries
            wide = {**A.entries, **{(p * p * (k + 1), b[1], b[2]): v for k, (b, v) in enumerate(far.items())}}
            fields += [A, CoefficientField(None, wide).symmetrized()]
        if p == 3:
            fields.append(CoefficientField.ones_ball(100))
        # a safe radius past 2^60, whose norms no longer fit int64 arithmetic; at p = 3 the
        # coordinates of (c, c, c) are inside the ball's bounding box, and N(c, c, c) is not
        c = 3 * 2 ** 35
        fields.append(CoefficientField(None, {(2 ** 40, 1, 0): QComplex.of(1), (3, 1, 0): QComplex.of(2, -1),
                                              (p, 0, 0): QComplex.of(0, 5), (c, c, c): QComplex.of(1)}).symmetrized())
        empty = 0
        for A in fields:
            rep = eigen_residual(A, lam)
            assert repr(rep) == repr(_eigen_residual_full(A, lam))
            empty += rep.empty_safe_support
        assert 0 < empty < len(fields)

    @pytest.mark.parametrize("p", [3, 5])
    def test_python_int_ball_matches_dict_reference(self, p):
        # a support point of coordinate 2^40 p^2 makes isqrt(z0 / p^4) about 2^40, so the ball's
        # norms leave int64 and _in_ball takes them on Python ints; the reference applies the
        # dict operators and reads the ball off Python-int norms
        A = CoefficientField(None, {(2 ** 40 * p * p, 1, 0): QComplex.of(1), (3, 1, 0): QComplex.of(2, -1),
                                    (p, 0, 0): QComplex.of(0, 5), (1, 1, 1): QComplex.of(1, 1)}).symmetrized()
        lam = EigenvalueTriple.from_lam12(p, 0.75, -0.5)
        max_norm = A.support_radius // p ** 4
        assert 3 * math.isqrt(max_norm) ** 2 >= 2 ** 63
        entries = A.as_complex_dict()
        own = {b: v for b, v in entries.items() if lattice_norm(b) <= max_norm}
        residuals, checked = [], 0
        for ell, lam_ell in zip((1, 2, 3), (lam.lam1, lam.lam2, lam.lam3)):
            h = {b: v for b, v in apply_hecke_float_dict(ell, p, entries).items() if lattice_norm(b) <= max_norm}
            points = set(h) | set(own)
            checked = max(checked, len(points))
            residuals.append(max(abs(h.get(b, 0j) - lam_ell * own.get(b, 0j)) for b in points))
        rep = eigen_residual(A, lam)
        assert (rep.points_checked, rep.residuals) == (checked, tuple(residuals)) and checked > len(own) > 0

    @pytest.mark.parametrize("r", [2 ** 30 + 5, 2 ** 31, 2 ** 40])
    def test_ball_mask_matches_python_norms(self, r):
        # int64 norms while 3 r^2 < 2^63 (r = 2^30 + 5), Python-int norms past it
        bound = r * r + 5
        h = r // 2
        rows = [(r, 0, 0), (r, 2, 1), (r, 3, 0), (-r, 0, 2), (r + 1, 0, 0), (h, h, h), (h + 1, h, h), (1, 2, 3)]
        assert hecke._in_ball(np.array(rows, dtype=np.int64), bound).tolist() == [
            lattice_norm(b) <= bound for b in rows]

    def test_zero_field(self):
        rep = eigen_residual(CoefficientField.zero(3), EigenvalueTriple(3, 0.0, 0.0, 0.0))
        assert rep.residuals == (0.0, 0.0, 0.0)

    def test_empty_safe_support_reported(self):
        A = CoefficientField.delta((1, 0, 0), 1, p=3)
        rep = eigen_residual(A, EigenvalueTriple(3, 0.0, 0.0, 0.0))
        assert rep.empty_safe_support
        assert rep.residuals is None

    def test_wide_field_residual_matches_direct(self):
        A = CoefficientField.ones_ball(3 ** 4 * 2, p=3)
        lam = EigenvalueTriple(3, 0.0, 0.0, 0.0)
        rep = eigen_residual(A, lam)
        assert not rep.empty_safe_support
        h1 = apply_hecke(1, 3, A)
        expected = max(
            abs(complex(h1.at(b))) for b in list(h1.entries) + list(A.entries)
            if lattice_norm(b) <= rep.safe_radius
        )
        assert rep.residuals[0] == pytest.approx(expected)

    def test_truncated_eigenvector_has_small_first_residual(self):
        # synthetic near-eigen data: power-iterate the ball-truncated H_1;
        # inside the safe ball the truncation is invisible, so the first
        # residual collapses while the other two stay of regular size
        from fractions import Fraction as F
        from h4hecke.hecke import QComplex, QuadExt, apply_hecke_float
        from h4hecke.quaternions import lattice_norm as ln
        p, radius = 3, 162
        entries = {b: 1.0 + 0j for b in
                   ((b0, b1, b2) for b0 in range(-12, 13) for b1 in range(-12, 13)
                    for b2 in range(-12, 13))
                   if b != (0, 0, 0) and ln(b) <= radius}
        lam1 = 0.0
        for _ in range(60):
            new = apply_hecke_float(1, p, entries)
            new = {b: v for b, v in new.items() if ln(b) <= radius}
            norm = max(abs(v) for v in new.values())
            entries = {b: v / norm for b, v in new.items()}
            lam1 = norm
        # Rayleigh-style eigenvalue estimate from one more application
        nxt = apply_hecke_float(1, p, entries)
        num = sum((nxt.get(b, 0j) * v.conjugate()).real for b, v in entries.items())
        den = sum(abs(v) ** 2 for v in entries.values())
        lam1 = num / den
        field = CoefficientField(p, {
            b: QComplex(QuadExt(p, F(v.real).limit_denominator(10 ** 12), F(0)),
                        QuadExt(p, F(v.imag).limit_denominator(10 ** 12), F(0)))
            for b, v in entries.items()
        })
        rep = eigen_residual(field, EigenvalueTriple(p, lam1, 0.0, 0.0))
        assert not rep.empty_safe_support
        assert rep.residuals[0] < 1e-3      # near-eigenvector for H_1
        assert rep.residuals[1] > 0.1       # but certainly not for H_2


class TestFieldContainer:
    def test_zero_entry_dropped(self):
        A = CoefficientField(3, {(1, 0, 0): QComplex.of(0, p=3)})
        assert A.is_zero

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            CoefficientField(3, {(0, 0, 0): QComplex.of(1, p=3)})

    def test_total_lookup(self):
        A = CoefficientField.delta((1, 2, 0), 7)
        assert A.at((9, 9, 9)) == QComplex.of(0)
        assert A.at(None) == QComplex.of(0)

    def test_ones_ball_count(self):
        assert len(CoefficientField.ones_ball(9).entries) == 122

    def test_support_radius_is_kept(self):
        rng = random.Random(9)
        for A in [CoefficientField.zero(), CoefficientField.delta((2 ** 40, 0, 1), 1)] + [
                CoefficientField.random(rng, support=k, coord_bound=4) for k in (1, 5, 20)]:
            expected = max((lattice_norm(b) for b in A.entries), default=0)
            assert A.support_radius == expected and A.support_radius == expected

    def test_prime_inferred_from_entries(self):
        # a field declared over plain Q that holds sqrt(3) parts is over Q(sqrt 3)
        A = CoefficientField(None, {(1, 0, 0): QComplex(QuadExt(3, Fraction(1), Fraction(2)), QuadExt.of(0)),
                                    (0, 1, 0): QComplex.of(5)})
        assert A.p == 3
        assert all(v.re.p == v.im.p == 3 for v in A.entries.values())
        assert CoefficientField(None, {(1, 0, 0): QComplex.of(1, p=5)}).p == 5
        assert CoefficientField(None, {(1, 0, 0): QComplex.of(1)}).p is None

    @pytest.mark.parametrize("q", [4, 2, 9])
    def test_entries_over_a_non_odd_prime_rejected(self, q):
        with pytest.raises(ValueError, match="odd prime"):
            CoefficientField(None, {(1, 0, 0): QComplex(QuadExt(q, Fraction(1), Fraction(2)), QuadExt.of(0))})

    def test_entries_over_two_primes_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            CoefficientField(None, {(1, 0, 0): QComplex(QuadExt(3, Fraction(0), Fraction(1)),
                                                        QuadExt(5, Fraction(0), Fraction(1)))})
        with pytest.raises(ValueError, match="mixed"):
            CoefficientField(5, {(1, 0, 0): QComplex(QuadExt(3, Fraction(0), Fraction(1)), QuadExt.of(0))})


    def test_symmetrized_rows_match_the_dict_loop(self):
        # keys and numerators on both sides of int64, denominators that the quarter shares reduce
        rng = random.Random(17)
        huge, wide = 2 ** 64 + 1, 10 ** 30
        fields = [CoefficientField.random(rng, p=p, support=k, coord_bound=3, sqrt_parts=p is not None)
                  for p in (None, 3, 7) for k in (1, 6, 20)]
        fields.append((CoefficientField.random(random.Random(29), support=5, coord_bound=2, entry_bound=4)
                       + CoefficientField(None, {(wide, 3, 0): QComplex.of(1, 2)})))
        fields.append(CoefficientField(5, {
            (1, 1, 0): QComplex(QuadExt(5, Fraction(huge, 3), Fraction(-huge)), QuadExt.of(Fraction(1, 2), 5)),
            (-1, 1, 0): QComplex(QuadExt(5, Fraction(-huge, 3), Fraction(huge)), QuadExt.of(Fraction(1, 2), 5)),
            (2 ** 62, 0, -1): QComplex.of(Fraction(3, 4), -huge, p=5), (0, wide, 1): QComplex.of(2 ** 63 - 1, p=5)}))
        near = 2 ** 62 + 1  # int64 numerators whose sums of shares leave int64
        fields.append(CoefficientField(3, {(1, 1, 1): QComplex.of(near, p=3), (-1, -1, 1): QComplex.of(near, -near, p=3),
                                           (2, 0, 0): QComplex.of(-near, p=3)}))
        fields.append(CoefficientField.zero(3))
        for A in fields:
            got, expected = A.symmetrized(), symmetrized_dict(A)
            assert got == expected and _snapshot(got) == _snapshot(expected) and repr(got) == repr(expected)
            assert list(got.entries) == list(expected.entries) and got.p == expected.p
            parts = [x for v in expected.entries.values() for x in (v.re.a, v.re.b, v.im.a, v.im.b)]
            assert got.den == math.lcm(*(x.denominator for x in parts))  # D stays canonical
            assert got.symmetrized() == got
        assert fields[-4].keys.dtype == fields[-3].keys.dtype == fields[-3].nums.dtype == object
        assert fields[-2].nums.dtype == np.int64 and fields[-2].symmetrized().nums.dtype == object

    def test_float_view_matches_complex_of_each_entry(self):
        # bit for bit by float.hex: opposite-sign parts that nearly cancel (powers of Pell units, with
        # numerators past 2^64), denominators past 1, and fields over plain Q
        def power(p, x, y, n):
            u = QuadExt(p, Fraction(1), Fraction(0))
            for _ in range(n):
                u = u * QuadExt(p, Fraction(x), Fraction(y))
            return u

        fields = []
        for p, x, y in ((3, 2, 1), (5, 9, 4), (7, 8, 3)):
            entries = {}
            for n in (1, 5, 40):
                u = power(p, x, y, n)
                assert u.a > 2 ** 64 or n < 40
                entries[(n, 1, 0)] = QComplex(QuadExt(p, u.a, -u.b), QuadExt(p, -u.a / 3, u.b / 3))
                entries[(0, n, 2)] = QComplex(QuadExt(p, u.a / 7, u.b), QuadExt(p, Fraction(-1, 6), Fraction(0)))
            fields.append(CoefficientField(p, entries))
        fields.append(CoefficientField(None, {(1, 0, 0): QComplex.of(Fraction(2 ** 70 + 1, 3), Fraction(-5, 7)),
                                              (0, 2, 0): QComplex.of(-(10 ** 40), 1), (0, 0, 3): QComplex.of(0, 3)}))
        fields.append(CoefficientField.random(random.Random(4), p=5, support=12, sqrt_parts=True).symmetrized())
        for A in fields:
            view = hecke._float_field(A)
            assert list(view) == list(A.entries) and hecke._float_field(A) is view
            for beta, value in A.entries.items():
                x, ref = view[beta], complex(value)
                assert (x.real.hex(), x.imag.hex()) == (ref.real.hex(), ref.imag.hex()), (beta, value)
        assert fields[0].nums.dtype == object and fields[0].den > 1

    def test_len_and_the_row_paths_decode_nothing(self, monkeypatch, tmp_path):
        A = CoefficientField.random(random.Random(6), p=5, support=8, sqrt_parts=True)

        def refuse(*args):
            raise AssertionError("a QComplex value was decoded")

        monkeypatch.setattr(hecke, "QComplex", refuse)
        for field in (A, apply_hecke(2, 5, A), A.symmetrized(), verify_hecke_relation(5, A)):
            assert len(field.entries) == len(field.keys) and repr(field) and field.support_radius >= 0
            write_coefficient_field(field, tmp_path / "field.json")
            assert len(hecke._float_field(field)) == len(field.keys) and sums.sum_S_d(field, 1, 10 ** 6) is not None
            assert field.entries._index is None, field  # no key tuple has been built either
        monkeypatch.undo()
        assert list(A.entries) and A.entries._index is not None

    def test_promotion_shares_the_arrays(self):
        A = CoefficientField.random(random.Random(8), support=6)
        B = A.with_prime(7)
        assert B.p == 7 and B.keys is A.keys and B.nums is A.nums and B.den == A.den
        assert B == CoefficientField(7, dict(A.entries)) == A
        assert _snapshot(B) == _snapshot(CoefficientField(7, dict(A.entries)))
        assert all(v.re.p == v.im.p == 7 for v in B.entries.values()) and A.p is None
        with pytest.raises(ValueError, match="odd prime"):
            A.with_prime(9)

    def test_equal_rows_at_different_primes(self):
        # QuadExt equality: a nonzero sqrt lane tells the primes apart, and a rational value does not
        value = {(1, 0, 0): (Fraction(1, 2), Fraction(2)), (0, 1, 1): (Fraction(3), Fraction(0))}
        at = {p: CoefficientField(p, {beta: QComplex(QuadExt(p, a, b), QuadExt.of(1, p))
                                      for beta, (a, b) in value.items()}) for p in (3, 5)}
        assert at[3].nums.tolist() == at[5].nums.tolist() and at[3].den == at[5].den == 2
        assert at[3] != at[5]
        rational = {p: CoefficientField(p, {(1, 0, 0): QComplex.of(Fraction(1, 2), 3, p=p)}) for p in (3, 5)}
        assert rational[3] == rational[5] == CoefficientField(None, {(1, 0, 0): QComplex.of(Fraction(1, 2), 3)})

    def test_equality_matches_the_decoded_entries(self):
        # == on the arrays against == on decoded QComplex values, over pairs that differ in one way each:
        # key order, prime (p = None against p), one part, one denominator, one key, int64 against
        # Python-int numerators (past 2^63), and none
        rng = random.Random(23)
        huge = 2 ** 64 + 3

        def variants(A):
            entries = list(A.entries.items())
            rng.shuffle(entries)
            yield CoefficientField(A.p, dict(entries))
            if A.p is None:
                yield A.with_prime(rng.choice((3, 5)))
            else:  # the same rows over another prime: equal only when no sqrt lane is nonzero
                yield CoefficientField._from_rows(next(q for q in (3, 5, 7) if q != A.p), A.den, A.keys, A.nums)
                if not A.nums[:, 1::2].any():
                    yield CoefficientField(None, {b: QComplex(QuadExt.of(v.re.a), QuadExt.of(v.im.a))
                                                  for b, v in entries})
            if entries:
                beta, value = entries[0]
                for changed in (value * 2, value * Fraction(1, 3), value + QComplex.of(huge, p=A.p),
                                QComplex(value.re, value.im + QuadExt(A.p, Fraction(0), Fraction(A.p is not None)))):
                    yield CoefficientField(A.p, {**dict(entries), beta: changed})
                yield CoefficientField(A.p, dict(entries[1:]))
                yield CoefficientField(A.p, {(beta[0] + 9, *beta[1:]) if b == beta else b: v for b, v in entries})

        seen = {True: 0, False: 0}
        for trial in range(60):
            p = rng.choice((None, 3, 5, 7))
            A = CoefficientField.random(rng, p=p, support=rng.randint(0, 9), coord_bound=3,
                                        sqrt_parts=p is not None and rng.random() < 0.5)
            if trial % 3 == 0:
                A = A.scale(Fraction(huge, rng.choice((1, 2, 6))))
            if trial % 4 == 1:
                A = A.symmetrized()
            for B in variants(A):
                expected = fields_equal_by_entries(A, B)
                assert (A == B) == (B == A) == expected, (A, B)
                seen[expected] += 1
        assert min(seen.values()) > 50, seen

    def test_zero_residual_is_the_zero_field(self):
        # the relation that holds returns its zero field without building arrays, equal to the public one
        for p in (3, 7):
            zero = CoefficientField(p, {})
            cancelled = hecke._nonzero_field(p, 5 * p ** 4, np.array([[1, 0, 0]]), np.zeros((1, 4), np.int64))
            for got in (verify_hecke_relation(p, CoefficientField.random(random.Random(p), p=p, sqrt_parts=True)),
                        cancelled):
                assert got == zero and repr(got) == repr(zero) and got.p == p and got.den == zero.den == 1
                for name in ("keys", "nums", "norms"):
                    mine, public = getattr(got, name), getattr(zero, name)
                    assert mine.shape == public.shape and mine.dtype == public.dtype and not mine.flags.writeable
                assert got.key_peak == got.num_peak == got.support_radius == 0 and got.is_zero
                assert len(got.entries) == 0 and list(got.entries) == [] and got.at((1, 0, 0)) == QComplex.of(0)
                assert not hecke._float_field(got) and apply_hecke(1, p, got) == zero


class TestEigenvalueTriple:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_from_lam12_is_relation_consistent(self, p):
        rng = random.Random(p)
        for _ in range(50):
            lam = EigenvalueTriple.from_lam12(p, rng.uniform(-3, 3), rng.uniform(-3, 3))
            # lam3 is the residual of the triple with lam3 = 0, so the relation holds to rounding
            assert lam.lam3 == lam.lam1 ** 2 - (1 + 1 / p) * lam.lam2 - float(hecke_relation_constant(p))
            assert abs(lam.relation_residual()) < 1e-12
