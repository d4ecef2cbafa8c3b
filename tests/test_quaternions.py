import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from h4hecke import quaternions
from h4hecke.clifford import CliffordElement
from h4hecke.hecke import CoefficientField, apply_hecke_float, epsilon_factor, legendre_symbol, verify_commutativity
from h4hecke.sums import PrimeWindow
from h4hecke.quaternions import (
    UNIT_FLIPS,
    LemmaSweepError,
    Quaternion,
    UNITS,
    canonical_orbit_representative,
    conjugate_action,
    conjugation_matrix,
    enumerate_norm,
    lattice_norm,
    orbit_representatives,
    star_conjugation_matrices,
    valuation,
    verify_conjugation_lemmas,
)
from reference import apply_matrix, lattice_to_quaternion, quaternion_to_lattice, sweep_per_alpha


def jacobi_r4(n: int) -> int:
    """Number of 4-square representations: 8 * sum of divisors not divisible by 4."""
    return 8 * sum(d for d in range(1, n + 1) if n % d == 0 and d % 4 != 0)


small_quats = st.builds(
    Quaternion,
    st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 8), (3, 32), (5, 48)])
    def test_counts(self, n, count):
        assert len(enumerate_norm(n)) == count

    @pytest.mark.parametrize("n", [2, 4, 6, 7, 9, 10, 13])
    def test_counts_match_divisor_formula(self, n):
        assert len(enumerate_norm(n)) == jacobi_r4(n)

    def test_norms_and_order(self):
        # the loops emit lexicographic order with no sort: a, b and c ascend, and -d comes before +d
        for n in range(1, 201):
            qs = enumerate_norm(n)
            assert all(q.norm() == n for q in qs)
            assert [q.coords() for q in qs] == sorted(q.coords() for q in qs), n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_norm(0)

    @pytest.mark.parametrize("n", [quaternions.MAX_NORM + 1, 10 ** 30 + 57])
    def test_past_max_norm_rejected_at_once(self, n, time_limit):
        # the cubic loop once ran for minutes at 10^6 and did not end at 10^30
        with time_limit(1), pytest.raises(ValueError, match=f"norm {n} is past {quaternions.MAX_NORM}"):
            enumerate_norm(n)

    def test_max_norm_covers_every_orbit_table(self):
        # orbit_representatives(p) enumerates norm p for every p up to MAX_PRIME
        assert quaternions.MAX_NORM >= quaternions.MAX_PRIME
        assert len(orbit_representatives(997).all_elements) == 8 * 998


class TestOrbits:
    @pytest.mark.parametrize("p,reps", [(3, 4), (5, 6), (7, 8)])
    def test_representative_counts(self, p, reps):
        assert len(orbit_representatives(p).representatives) == reps

    def test_orbits_partition_enumeration(self):
        for p in (3, 5):
            table = orbit_representatives(p)
            orbit_union = {(u * r).coords() for r in table.representatives for u in UNITS}
            assert orbit_union == {q.coords() for q in table.all_elements}
            assert len(orbit_union) == 8 * (p + 1)

    def test_canonicalization_idempotent_and_orbit_invariant(self):
        for q in enumerate_norm(5):
            rep = canonical_orbit_representative(q)
            assert canonical_orbit_representative(rep) == rep
            for u in UNITS:
                assert canonical_orbit_representative(u * q) == rep

    @pytest.mark.parametrize("bad", [2, 9, 15, 1])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(ValueError):
            orbit_representatives(bad)


class TestConjugation:
    def test_example_on_real_axis(self):
        assert conjugate_action(Quaternion(1, 1, 1, 0), (1, 0, 0)) == (-1, -2, -2)

    def test_example_on_i_axis(self):
        out = conjugate_action(Quaternion(1, 1, 1, 0), (0, 1, 0))
        assert out == (2, 1, -2)
        assert lattice_norm(out) == 9

    def test_linearity_in_beta(self):
        alpha = Quaternion(1, 1, 1, 0)
        a = conjugate_action(alpha, (3, -6, 9))
        b = conjugate_action(alpha, (1, -2, 3))
        assert a == tuple(3 * c for c in b)

    @settings(max_examples=50, deadline=None)
    @given(small_quats, st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
    def test_lands_in_v3_with_norm_identity(self, alpha, beta):
        out = conjugate_action(alpha, beta)
        assert lattice_norm(out) == alpha.norm() ** 2 * lattice_norm(beta)

    @settings(max_examples=50, deadline=None)
    @given(small_quats, st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
    def test_star_conjugation_in_v3(self, alpha, delta):
        out = alpha.star() * lattice_to_quaternion(delta) * alpha
        assert out.d == 0
        assert out.norm() == alpha.norm() ** 2 * lattice_norm(delta)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_star_matrix_is_transpose(self, p):
        # delta -> alpha^* delta alpha has matrix C(alpha)^T for every norm-p alpha
        for alpha in orbit_representatives(p).all_elements:
            mat = conjugation_matrix(alpha)
            for delta in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, 5)):
                expected = quaternion_to_lattice(alpha.star() * lattice_to_quaternion(delta) * alpha)
                assert apply_matrix(tuple(zip(*mat)), delta) == expected, (alpha, delta)
        reps = orbit_representatives(p).representatives
        assert star_conjugation_matrices(p) == tuple(tuple(zip(*conjugation_matrix(a))) for a in reps)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_conjugate_alpha_has_transposed_matrix(self, p):
        # C(bar(alpha)) = C(alpha)^T, and bar permutes the norm-p alpha: the sweep counts (iv) by this
        elements = orbit_representatives(p).all_elements
        for alpha in elements:
            assert conjugation_matrix(alpha.conjugate()) == tuple(zip(*conjugation_matrix(alpha))), alpha
        assert sorted((a.conjugate() for a in elements), key=Quaternion.coords) == list(elements)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_matrix_columns_are_the_action_on_the_basis(self, p):
        # one product per column against conjugate_action's two products on each basis vector
        for alpha in orbit_representatives(p).all_elements:
            mat = conjugation_matrix(alpha)
            assert mat == tuple(zip(*(conjugate_action(alpha, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))))
            assert all(type(x) is int for row in mat for x in row)

    def test_matrix_k_part_check(self):
        # float coordinates leave a rounding k-part, which both paths refuse with the same text
        alpha = Quaternion(-0.7312715117751976, 0.6948674738744653, 0.5275492379532281, -0.4898619485211566)
        with pytest.raises(ArithmeticError, match="nonzero k-component") as exc:
            conjugation_matrix(alpha)
        with pytest.raises(ArithmeticError) as ref:
            conjugate_action(alpha, (0, 1, 0))  # the first column with a k-part
        assert str(exc.value) == str(ref.value)

    def test_matrix_matches_action(self):
        alpha = Quaternion(2, -1, 0, 1)
        mat = conjugation_matrix(alpha)
        beta = (3, 1, -2)
        assert apply_matrix(mat, beta) == conjugate_action(alpha, beta)

    @settings(max_examples=40, deadline=None)
    @given(small_quats, small_quats)
    def test_norm_multiplicative(self, a, b):
        assert (a * b).norm() == a.norm() * b.norm()


def _to_clifford(q: Quaternion) -> CliffordElement:
    return CliffordElement(2, {
        (): Fraction(q.a), (1,): Fraction(q.b), (2,): Fraction(q.c), (1, 2): Fraction(q.d),
    })


class TestUnitFlips:
    def test_table(self):
        assert [(name, u.coords(), flip) for name, (u, flip) in UNIT_FLIPS.items()] == [
            ("i", (0, 1, 0, 0), (-1, -1, 1)), ("j", (0, 0, 1, 0), (-1, 1, -1)), ("k", (0, 0, 0, 1), (1, -1, -1))]

    def test_flips_are_the_diagonals_of_the_unit_conjugations(self):
        for u, flip in UNIT_FLIPS.values():
            assert conjugation_matrix(u) == tuple(tuple(flip[r] if r == c else 0 for c in range(3)) for r in range(3))
            for beta in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, 5)):
                image = quaternion_to_lattice(u.main() * lattice_to_quaternion(beta) * u.conjugate())
                assert image == tuple(s * b for s, b in zip(flip, beta))


class TestCliffordAgreement:
    @settings(max_examples=30, deadline=None)
    @given(small_quats, small_quats)
    def test_product_agrees(self, a, b):
        assert _to_clifford(a * b) == _to_clifford(a) * _to_clifford(b)

    @settings(max_examples=30, deadline=None)
    @given(small_quats)
    def test_involutions_agree(self, q):
        assert _to_clifford(q.main()) == _to_clifford(q).main_involution()
        assert _to_clifford(q.star()) == _to_clifford(q).reverse()
        assert _to_clifford(q.conjugate()) == _to_clifford(q).bar()

    @settings(max_examples=30, deadline=None)
    @given(small_quats)
    def test_norms_agree(self, q):
        assert q.norm() == _to_clifford(q).norm


class TestValuation:
    def test_examples(self):
        assert valuation((3, 0, 0), 3) == 1
        assert valuation((1, 0, 0), 3) == 0
        assert valuation((25, 50, 75), 5) == 2

    def test_zero_is_infinite(self):
        assert valuation((0, 0, 0), 7) == math.inf

    def test_quaternion_argument(self):
        assert valuation(Quaternion(9, 18, 0, 27), 3) == 2


class TestLemmaSweeps:
    def test_small_sweep_clean(self):
        report = verify_conjugation_lemmas(3, 4, q_primes=(5,))
        assert report.violations == 0
        assert report.max_vp_jump <= 2
        assert report.max_exceptional_set <= 2
        assert report.squared_divisibility_max_small <= 16
        assert report.pairs_checked == report.beta_count * report.alpha_count

    def test_vp_bounds_for_specific_beta(self):
        # v_3(beta) = 1 forces 1 <= v_3(conjugate) <= 3 for every norm-3 alpha
        beta = (3, 0, 0)
        for alpha in enumerate_norm(3):
            v = valuation(conjugate_action(alpha, beta), 3)
            assert 1 <= v <= 3

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            verify_conjugation_lemmas(3, 3, q_primes=(3,))

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            verify_conjugation_lemmas(9, 3)

    def test_rejects_empty_box(self):
        for bound in (0, -2):
            with pytest.raises(ValueError, match="coordinate bound must be at least 1"):
                verify_conjugation_lemmas(3, bound)

    @pytest.mark.parametrize("p,bound", [(997, 64), (997, 18), (23, 64), (29, 60)])
    def test_past_max_sweep_work_rejected_at_once(self, p, bound, time_limit):
        work = (p + 1) * (2 * bound + 1) ** 3
        assert work > quaternions.MAX_SWEEP_WORK
        with time_limit(1), pytest.raises(ValueError, match=f"= {work} at p = {p} and bound {bound} is past"):
            verify_conjugation_lemmas(p, bound)

    def test_max_sweep_work_admits_the_used_sizes(self):
        # p = 3 at the largest bound, p = 997 at bound 3 (the two-word sweep) and at bound 17, and the
        # p = 3, 5, 7 sweeps at bound 12 of the benchmark, the demos and the README
        for p, bound in ((3, 64), (19, 64), (997, 3), (997, 17), (3, 12), (5, 12), (7, 12)):
            assert (p + 1) * (2 * bound + 1) ** 3 <= quaternions.MAX_SWEEP_WORK
        assert 998 * 37 ** 3 > quaternions.MAX_SWEEP_WORK  # p = 997 stops at bound 17

    def test_bad_prime_named_before_the_work_ceiling(self):
        with pytest.raises(ValueError, match="p = 1009 is past 1000"):
            verify_conjugation_lemmas(1009, 64)
        with pytest.raises(ValueError, match="must be an odd prime, got 999"):
            verify_conjugation_lemmas(999, 64)


def _brute_force_report(p: int, bound: int, qs: tuple[int, ...]) -> dict:
    """The report fields from Quaternion products and ``valuation`` alone, without numpy."""
    table = orbit_representatives(p)
    reps = set(table.representatives)
    rng = range(-bound, bound + 1)
    betas = [b for b in itertools.product(rng, rng, rng) if any(b)]
    pairs = max_jump = max_unequal = max_exceptional = max_small = 0
    for beta in betas:
        vp = valuation(beta, p)
        unequal = exceptional = divisible = 0
        for alpha in table.all_elements:
            conj = conjugate_action(alpha, beta)
            v = valuation(conj, p)
            assert vp <= v <= vp + 2
            assert all(valuation(conj, q) == valuation(beta, q) for q in qs)
            pairs += 1
            max_jump = max(max_jump, v - vp)
            if alpha in reps:
                unequal += v != vp
                exceptional += v >= vp + 1
            star = quaternion_to_lattice(alpha.star() * lattice_to_quaternion(beta) * alpha)
            divisible += valuation(star, p) >= 2
        max_unequal = max(max_unequal, unequal)
        max_exceptional = max(max_exceptional, exceptional)
        if vp == 0:
            max_small = max(max_small, divisible)
    return {"beta_count": len(betas), "pairs_checked": pairs, "max_vp_jump": max_jump,
            "max_unequal_reps": max_unequal, "max_exceptional_set": max_exceptional,
            "squared_divisibility_max_small": max_small}


_TABLE_BOUND = 3 ** 7
_DEFAULT_PRIMES = (3, 5, 7, 11)


@functools.lru_cache(maxsize=None)
def _packed_table(first: int, word_bits: int = quaternions._WORD_BITS) -> quaternions._DivisibilityTable:
    """The packed table of 3, 5, 7, 11 up to _TABLE_BOUND, ``first`` in front as a sweep's p."""
    primes = (first, *(q for q in _DEFAULT_PRIMES if q != first))
    saved = quaternions._WORD_BITS
    quaternions._WORD_BITS = word_bits
    try:
        return quaternions._DivisibilityTable(primes, _TABLE_BOUND)
    finally:
        quaternions._WORD_BITS = saved


@st.composite
def _coordinate_triples(draw, primes):
    """Integer triples with |c_i| <= _TABLE_BOUND, rich in zeros and high powers of the primes."""
    def coordinate():
        q = draw(st.sampled_from(primes))
        e = draw(st.integers(0, 7))
        unit = draw(st.integers(0, _TABLE_BOUND // q ** e))
        return draw(st.sampled_from((1, -1))) * unit * q ** e
    return tuple(coordinate() for _ in range(3))


class TestSweepKernel:
    @pytest.mark.parametrize("p,qs", [(3, (5,)), (5, (3,)), (7, (3, 5, 11)), (3, (5, 7, 11))])
    def test_report_matches_brute_force(self, p, qs):
        report = verify_conjugation_lemmas(p, 3, q_primes=qs)
        expected = _brute_force_report(p, 3, qs)
        assert {k: getattr(report, k) for k in expected} == expected
        assert report.alpha_count == 8 * (p + 1)

    def test_default_q_primes_at_p7(self):
        # the default q primes at p = 7 are 3, 5, 11
        report = verify_conjugation_lemmas(7, 3)
        assert report.q_primes == (3, 5, 11)
        assert report == verify_conjugation_lemmas(7, 3, q_primes=(3, 5, 11))

    @pytest.mark.parametrize("q", [3, 5, 7])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_least_coordinate_valuation_matches_valuation(self, q, data):
        # for every packed prime the AND of the three rows decodes to valuation() of the triple
        for word_bits in (quaternions._WORD_BITS, 8):
            table = _packed_table(q, word_bits)
            triple = data.draw(_coordinate_triples(tuple(table.fields)))
            words = table.lookup(np.abs(np.array(triple, dtype=np.int64))[:, None])
            for prime, (_, _, width) in table.fields.items():
                expected = valuation(triple, prime)
                field = int(table.field(words, prime)[0])
                if expected == math.inf:
                    assert field == (1 << width) - 1  # v(0) = infinity: every bit of the field
                else:
                    assert field == (1 << expected) - 1
                    assert table.valuation_at(words, prime, 0) == expected

    @pytest.mark.parametrize("p,bound,qs", [
        (7, 12, (3, 5, 11)),
        (3, 64, (5, 7, 11)),
        (997, 3, tuple(quaternions.odd_primes_in(3, 200))),  # 84 bits: two words
    ])
    def test_table_matches_valuation(self, p, bound, qs):
        # the table a sweep builds equals one filled from valuation() row by row
        mats = np.array([conjugation_matrix(a) for a in orbit_representatives(p).all_elements])
        m = 3 * bound * int(np.abs(mats).max())
        table = quaternions._DivisibilityTable((p, *qs), m)
        expected = [np.zeros(m + 1, dtype=w.dtype) for w in table.words]
        for word in expected:
            word[0] = np.iinfo(word.dtype).max
        for q, (word, offset, _) in table.fields.items():
            v = np.fromiter((valuation((n,), q) for n in range(1, m + 1)), dtype=np.int64, count=m)
            expected[word][1:] |= (((1 << v) - 1) << offset).astype(expected[word].dtype)
        for got, want in zip(table.words, expected):
            np.testing.assert_array_equal(got, want)
        if p == 997:
            assert len(table.words) == 2
            assert sum(width for _, _, width in table.fields.values()) == 84

    def test_narrowest_int(self):
        assert [quaternions._narrowest_int(m) for m in (1, 127, 128, 32767, 32768, 2 ** 31)] == [
            np.int8, np.int8, np.int16, np.int16, np.int32, np.int64]

    def test_valuation_table_ends(self):
        table = _packed_table(3)
        assert table.fields == {3: (0, 0, 7), 5: (0, 7, 4), 7: (0, 11, 3), 11: (0, 14, 3)}
        (word,) = table.words
        assert word.dtype == np.uint32  # 17 bits and 2 spare
        assert word[0] == np.iinfo(np.uint32).max
        assert word[_TABLE_BOUND] == 2 ** 7 - 1  # 3^7: seven bits of 3, none of 5, 7, 11
        with pytest.raises(IndexError):
            table.lookup(np.array([[0], [1], [_TABLE_BOUND + 1]]))

    def test_words_fill_in_order(self):
        # 8-bit words keep 6 bits for fields: 3 needs 7 and fills a 16-bit word alone, 5 opens
        # the next word, and 7 and 11 share the last
        table = _packed_table(3, 8)
        assert table.fields == {3: (0, 0, 7), 5: (1, 0, 4), 7: (2, 0, 3), 11: (2, 3, 3)}
        assert [w.dtype for w in table.words] == [np.uint16, np.uint8, np.uint8]

    @pytest.mark.parametrize("word_bits", [8, 6])
    def test_sweep_over_several_words(self, monkeypatch, word_bits):
        qs = (5, 7, 11)
        expected = verify_conjugation_lemmas(3, 5, q_primes=qs)
        monkeypatch.setattr(quaternions, "_WORD_BITS", word_bits)
        assert len(quaternions._DivisibilityTable((3, *qs), 3 * 5 * 3).words) >= 2
        assert verify_conjugation_lemmas(3, 5, q_primes=qs) == expected
        brute = _brute_force_report(3, 2, qs)
        report = verify_conjugation_lemmas(3, 2, q_primes=qs)
        assert {k: getattr(report, k) for k in brute} == brute

    def test_vq_failure_in_a_later_word(self, monkeypatch):
        # a scalar 11 breaks v_11, which sits in the last of several words
        monkeypatch.setattr(quaternions, "conjugation_matrix", lambda alpha: ((11, 0, 0), (0, 11, 0), (0, 0, 11)))
        with pytest.raises(LemmaSweepError) as one_word:
            verify_conjugation_lemmas(3, 2, q_primes=(5, 7, 11))
        monkeypatch.setattr(quaternions, "_WORD_BITS", 6)
        with pytest.raises(LemmaSweepError) as many_words:
            verify_conjugation_lemmas(3, 2, q_primes=(5, 7, 11))
        first = orbit_representatives(3).all_elements[0]
        assert str(one_word.value) == str(many_words.value)
        assert "v_11 not preserved under conjugation" in str(many_words.value)
        assert many_words.value.witness == ((-2, -2, -2), first, 0, 1)


class TestSweepChecksFire:
    """Each check raises its LemmaSweepError when fed matrices that break it."""

    P, BOUND = 3, 2
    CORNER = (-2, -2, -2)  # the first beta of the box

    def _sweep_with(self, monkeypatch, matrix_of):
        monkeypatch.setattr(quaternions, "conjugation_matrix", matrix_of)
        with pytest.raises(LemmaSweepError) as exc:
            verify_conjugation_lemmas(self.P, self.BOUND, q_primes=(5,))
        # the witness prints as plain ints, not as numpy scalars
        assert "witness ((-2, -2, -2), " in str(exc.value)
        return exc.value

    @staticmethod
    def _scalar(c: int):
        return lambda alpha: ((c, 0, 0), (0, c, 0), (0, 0, c))

    def test_upper_vp_bound(self, monkeypatch):
        err = self._sweep_with(monkeypatch, self._scalar(self.P ** 3))
        first = orbit_representatives(self.P).all_elements[0]
        assert "two-sided v_p bound failed" in str(err)
        assert err.witness == (self.CORNER, first, 0, 3)

    def test_upper_vp_bound_past_int16(self, monkeypatch):
        # entries of 3^10 need a 32-bit sweep; a wrapped int16 product would hide the jump
        err = self._sweep_with(monkeypatch, self._scalar(self.P ** 10))
        first = orbit_representatives(self.P).all_elements[0]
        assert "two-sided v_p bound failed" in str(err)
        assert err.witness == (self.CORNER, first, 0, 10)

    def test_vq_invariance(self, monkeypatch):
        err = self._sweep_with(monkeypatch, self._scalar(5))
        first = orbit_representatives(self.P).all_elements[0]
        assert "v_5 not preserved under conjugation" in str(err)
        assert err.witness == (self.CORNER, first, 0, 1)

    def test_orbits_changing_vp(self, monkeypatch):
        err = self._sweep_with(monkeypatch, self._scalar(self.P ** 2))
        assert "more than two orbits changed v_p" in str(err)
        assert err.witness == (self.CORNER, self.P + 1)

    def test_squared_divisibility(self, monkeypatch):
        # True matrices for the representatives keep (i)-(iii) clean; every
        # other alpha maps delta to p^2 delta, so each delta gets 7(p+1) > 16.
        table = orbit_representatives(self.P)
        scaled = self._scalar(self.P ** 2)
        err = self._sweep_with(monkeypatch, lambda a: conjugation_matrix(a) if a in table.representatives
                               else scaled(a))
        delta = lattice_to_quaternion(self.CORNER)
        from_reps = sum(valuation(alpha.star() * delta * alpha, self.P) >= 2
                        for alpha in table.representatives)
        assert "more than 16 conjugates divisible by p^2 without p^2 | delta" in str(err)
        assert err.witness == (self.CORNER, 7 * (self.P + 1) + from_reps)
        assert valuation(self.CORNER, self.P) < 2


def _outcome(sweep, *args):
    """The report of a sweep, or the type, text and witness of what it raised."""
    try:
        return sweep(*args)
    except (LemmaSweepError, ValueError) as err:
        return type(err), str(err), getattr(err, "witness", None)


def _scaled(mat, c):
    return tuple(tuple(c * x for x in row) for row in mat)


class TestSweepClasses:
    """The sweep over row-sign classes against the per-alpha loop it replaces."""

    @pytest.mark.parametrize("qs", [None, (), (5,)])
    @pytest.mark.parametrize("bound", [1, 2, 3, 5, 12])
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_matches_per_alpha_loop(self, p, bound, qs):
        expected = _outcome(sweep_per_alpha, p, bound, qs)
        assert _outcome(verify_conjugation_lemmas, p, bound, qs) == expected
        if p == 5 and qs == (5,):
            assert expected[0] is ValueError

    @staticmethod
    def _fake(p, fake_of):
        """conjugation_matrix with fake_of(index, alpha, true matrix) in place of the true matrix."""
        index = {alpha: i for i, alpha in enumerate(orbit_representatives(p).all_elements)}
        return lambda alpha: fake_of(index[alpha], alpha, conjugation_matrix(alpha))

    # each breaks the orbit symmetry that makes the classes p+1 orbits, so a wrong merge or weight shows
    FAKES = {
        "p^2 on alternate elements": lambda p, i, a, m: _scaled(m, p * p) if i % 2 else m,
        "p on every third element": lambda p, i, a, m: _scaled(m, p) if i % 3 == 0 else m,
        "p^3 on the last element": lambda p, i, a, m: _scaled(m, p ** 3) if i == 8 * (p + 1) - 1 else m,
        "5 on every fifth element": lambda p, i, a, m: _scaled(m, 5) if i % 5 == 4 else m,
        "rows negated on alternate elements": lambda p, i, a, m: _scaled(m, -1) if i % 2 else m,
        "rows permuted on alternate elements": lambda p, i, a, m: (m[1], m[2], m[0]) if i % 2 else m,
        "p^2 on the representatives": lambda p, i, a, m: (
            _scaled(m, p * p) if a in orbit_representatives(p).representatives else m),
        "p^2 I off the representatives": lambda p, i, a, m: (
            m if a in orbit_representatives(p).representatives else ((p * p, 0, 0), (0, p * p, 0), (0, 0, p * p))),
        "p^2 on a row of one element per orbit": lambda p, i, a, m: (
            (m[0], _scaled(m, p * p)[1], m[2]) if i % 8 == 3 else m),
        "the same matrix for every element": lambda p, i, a, m: (
            conjugation_matrix(orbit_representatives(p).all_elements[1])),
    }

    @pytest.mark.parametrize("fake", list(FAKES))
    @pytest.mark.parametrize("p,bound,qs", [(3, 2, (5,)), (3, 3, None), (5, 3, ()), (7, 2, (3, 5))])
    def test_matches_per_alpha_loop_on_fake_matrices(self, monkeypatch, p, bound, qs, fake):
        fake_of = self._fake(p, functools.partial(self.FAKES[fake], p))
        monkeypatch.setattr(quaternions, "conjugation_matrix", fake_of)
        expected = _outcome(sweep_per_alpha, p, bound, qs)
        assert _outcome(verify_conjugation_lemmas, p, bound, qs) == expected

    def test_fakes_reach_every_outcome(self, monkeypatch):
        # the fakes above fail each check at least once, and pass at least once
        seen = set()
        for fake in self.FAKES.values():
            for p, bound, qs in [(3, 2, (5,)), (3, 3, None), (5, 3, ()), (7, 2, (3, 5))]:
                monkeypatch.setattr(quaternions, "conjugation_matrix",
                                    self._fake(p, functools.partial(fake, p)))
                out = _outcome(verify_conjugation_lemmas, p, bound, qs)
                seen.add(out[1].split(":")[0] if isinstance(out, tuple) else "report")
                monkeypatch.undo()
        assert seen == {"report", "two-sided v_p bound failed", "v_5 not preserved under conjugation",
                        "more than two orbits changed v_p",
                        "more than 16 conjugates divisible by p^2 without p^2 | delta"}

    @pytest.mark.parametrize("first, last, message", [
        (5, 3 ** 3, "v_5 not preserved under conjugation"),  # (ii) fails in the first class, (i) in the last
        (3 ** 3, 5, "two-sided v_p bound failed"),  # (i) fails in the first class, (ii) in the last
    ])
    def test_first_failing_class_names_the_witness(self, monkeypatch, first, last, message):
        p, bound, qs = 3, 2, (5,)
        n = 8 * (p + 1)
        fake_of = self._fake(p, lambda i, a, m: _scaled(m, first) if i == 0 else _scaled(m, last) if i == n - 1 else m)
        monkeypatch.setattr(quaternions, "conjugation_matrix", fake_of)
        classes = quaternions._sweep_classes(orbit_representatives(p))
        alphas = orbit_representatives(p).all_elements
        assert (classes[0][0], classes[-1][0]) == (alphas[0], alphas[n - 1])
        expected = _outcome(sweep_per_alpha, p, bound, qs)
        assert expected[0] is LemmaSweepError and expected[1].startswith(message)
        assert expected[2][1] == alphas[0]
        assert _outcome(verify_conjugation_lemmas, p, bound, qs) == expected

    # the fakes whose classes stay closed under the UNIT_FLIPS, so their sweeps still take the octant
    CLOSED_FAKES = {"rows negated on alternate elements", "p^2 on the representatives",
                    "p^2 I off the representatives"}

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 997])
    def test_true_classes_closed_under_flips(self, p):
        # C(alpha u) = C(alpha) D(u) and right multiplication by a unit permutes the unit orbits
        assert quaternions._closed_under_flips(quaternions._sweep_classes(orbit_representatives(p)))

    @pytest.mark.parametrize("fake", list(FAKES))
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_fakes_break_the_closure(self, monkeypatch, p, fake):
        monkeypatch.setattr(quaternions, "conjugation_matrix", self._fake(p, functools.partial(self.FAKES[fake], p)))
        closed = quaternions._closed_under_flips(quaternions._sweep_classes(orbit_representatives(p)))
        assert closed == (fake in self.CLOSED_FAKES)

    @pytest.mark.parametrize("fake, grids", [
        (None, [0]),  # true matrices: the octant alone
        ("rows negated on alternate elements", [0]),  # closed and passing
        ("p^2 I off the representatives", [0, -3]),  # closed, fails in the octant: the box names the witness
        ("p on every third element", [-3]),  # not closed: the box alone
    ])
    def test_grids_swept(self, monkeypatch, fake, grids):
        p, bound = 3, 3
        if fake is not None:
            monkeypatch.setattr(quaternions, "conjugation_matrix",
                                self._fake(p, functools.partial(self.FAKES[fake], p)))
        seen = []
        grid = quaternions._beta_grid
        monkeypatch.setattr(quaternions, "_beta_grid", lambda lo, *args: seen.append(lo) or grid(lo, *args))
        _outcome(verify_conjugation_lemmas, p, bound, None)
        assert seen == grids

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 997])
    def test_p_plus_one_classes_of_eight(self, p):
        # C(u alpha) = C(u) C(alpha) with C(u) a sign diagonal, so each class is one unit orbit
        table = orbit_representatives(p)
        classes = quaternions._sweep_classes(table)
        assert len(classes) == p + 1
        assert [(size, reps) for _, _, size, reps in classes] == [(8, 1)] * (p + 1)
        firsts = [alpha for alpha, _, _, _ in classes]
        assert firsts == sorted(firsts, key=table.all_elements.index)
        assert {canonical_orbit_representative(alpha) for alpha in firsts} == set(table.representatives)
        assert all(mat == conjugation_matrix(alpha) for alpha, mat, _, _ in classes)

    def test_rows_differing_in_sign_share_a_class(self, monkeypatch):
        # the row-sign form multiplies each row by the sign of its first nonzero entry, zero rows kept
        signed = [((0, -2, 1), (0, 0, -3), (0, 0, 0)), ((0, 2, -1), (0, 0, 3), (0, 0, 0)),
                  ((0, -2, 1), (0, 0, 3), (0, 0, 0)), ((0, 2, 1), (0, 0, 3), (0, 0, 0))]
        table = orbit_representatives(3)
        index = {alpha: i for i, alpha in enumerate(table.all_elements)}
        monkeypatch.setattr(quaternions, "conjugation_matrix", lambda alpha: signed[index[alpha] % 4])
        classes = quaternions._sweep_classes(table)
        assert [(alpha, mat, size) for alpha, mat, size, _ in classes] == [
            (table.all_elements[0], signed[0], 24), (table.all_elements[3], signed[3], 8)]


class TestSweepPlan:
    """The classes and the divisibility table are built once per key, and the key holds what they read."""

    P, BOUND, QS = 3, 2, (5, 7, 11)
    FIRST = orbit_representatives(P).all_elements[0]

    def _table(self, word_bits):
        """The cached divisibility table of the sweep at P, BOUND and QS, and whether it was a hit."""
        mats = np.array([conjugation_matrix(a) for a in orbit_representatives(self.P).all_elements])
        hits = quaternions._divisibility_table.cache_info().hits
        table = quaternions._divisibility_table((self.P, *self.QS), 3 * self.BOUND * int(np.abs(mats).max()),
                                                word_bits)
        return table, quaternions._divisibility_table.cache_info().hits == hits + 1

    @pytest.mark.parametrize("c, message, witness", [
        (3 ** 3, "two-sided v_p bound failed", (FIRST, 0, 3)),
        (3 ** 10, "two-sided v_p bound failed", (FIRST, 0, 10)),
        (5, "v_5 not preserved under conjugation", (FIRST, 0, 1)),
        (3 ** 2, "more than two orbits changed v_p", (P + 1,)),
    ])
    def test_substituted_map_gets_its_own_plan(self, monkeypatch, c, message, witness):
        # the true sweep warms the plan at P; the fake map must neither reuse it nor leave its own behind
        expected = verify_conjugation_lemmas(self.P, self.BOUND, q_primes=(5,))
        monkeypatch.setattr(quaternions, "conjugation_matrix", TestSweepChecksFire._scalar(c))
        with pytest.raises(LemmaSweepError) as exc:
            verify_conjugation_lemmas(self.P, self.BOUND, q_primes=(5,))
        assert message in str(exc.value)
        assert exc.value.witness == (TestSweepChecksFire.CORNER, *witness)
        monkeypatch.setattr(quaternions, "conjugation_matrix", conjugation_matrix)
        assert verify_conjugation_lemmas(self.P, self.BOUND, q_primes=(5,)) == expected

    def test_changed_word_width_gets_its_own_table(self, monkeypatch):
        expected = verify_conjugation_lemmas(self.P, self.BOUND, q_primes=self.QS)
        monkeypatch.setattr(quaternions, "_WORD_BITS", 6)
        assert verify_conjugation_lemmas(self.P, self.BOUND, q_primes=self.QS) == expected
        table, hit = self._table(6)
        assert hit  # the table the sweep just used
        assert len(table.words) >= 2
        monkeypatch.undo()
        assert verify_conjugation_lemmas(self.P, self.BOUND, q_primes=self.QS) == expected
        table, hit = self._table(quaternions._WORD_BITS)
        assert hit and len(table.words) == 1

    def test_warm_sweep_builds_nothing(self):
        verify_conjugation_lemmas(self.P, self.BOUND, q_primes=self.QS)
        misses = quaternions._sweep_plan.cache_info().misses, quaternions._divisibility_table.cache_info().misses
        verify_conjugation_lemmas(self.P, self.BOUND, q_primes=self.QS)
        assert (quaternions._sweep_plan.cache_info().misses,
                quaternions._divisibility_table.cache_info().misses) == misses

    def test_cached_arrays_are_read_only(self):
        verify_conjugation_lemmas(self.P, self.BOUND, q_primes=self.QS)
        classes, closed, mats = quaternions._sweep_plan(self.P, conjugation_matrix)
        assert closed and len(classes) == self.P + 1 and mats.dtype == np.int64
        table, hit = self._table(quaternions._WORD_BITS)
        assert hit
        for array in (mats, *table.words):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0


class TestOddPrimeGuard:
    # every entry point that needs an odd prime refuses 2, 1, 9 and -3 with the same message
    @pytest.mark.parametrize("n", [2, 1, 9, -3])
    @pytest.mark.parametrize("call", [
        lambda n: legendre_symbol(1, n),
        lambda n: epsilon_factor((1, 0, 0), n),
        lambda n: CoefficientField(n, {}),
        lambda n: orbit_representatives(n),
        lambda n: verify_conjugation_lemmas(n, 1),
        lambda n: verify_conjugation_lemmas(3, 1, q_primes=(5, n)),
        lambda n: PrimeWindow(P=10.0, primes=(n,)),
        lambda n: apply_hecke_float(1, n, {(1, 0, 0): 1.0}),
        lambda n: verify_commutativity(n, 5, 1, 1, CoefficientField.zero()),
        lambda n: verify_commutativity(3, n, 1, 1, CoefficientField.zero()),
    ])
    def test_rejected_everywhere(self, call, n):
        with pytest.raises(ValueError, match=f"must be an odd prime, got {n}"):
            call(n)

    # a prime past MAX_PRIME is refused before is_prime trial-divides up to its square root
    @pytest.mark.parametrize("n", [1009, 10 ** 30 + 57])
    @pytest.mark.parametrize("call", [
        lambda n: legendre_symbol(1, n),
        lambda n: epsilon_factor((1, 0, 0), n),
        lambda n: CoefficientField(n, {}),
        lambda n: orbit_representatives(n),
        lambda n: verify_conjugation_lemmas(3, 1, q_primes=(5, n)),
        lambda n: PrimeWindow(P=2.0 * n, primes=(n,)),
        lambda n: apply_hecke_float(1, n, {(1, 0, 0): 1.0}),
        lambda n: verify_commutativity(3, n, 1, 1, CoefficientField.zero()),
    ])
    def test_past_max_prime_rejected_at_once(self, call, n, time_limit):
        with time_limit(1), pytest.raises(ValueError, match=f"= {n} is past 1000, the largest supported prime"):
            call(n)

    def test_odd_primes_pass(self):
        assert [quaternions.require_odd_prime(n) for n in (3, 5, 7, 97)] == [3, 5, 7, 97]
        assert list(quaternions.odd_primes_in(2, 20)) == [3, 5, 7, 11, 13, 17, 19]
