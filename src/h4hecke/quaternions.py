"""Integral (Lipschitz) quaternion arithmetic and norm-p orbit tables.

Quaternions a + bi + cj + dk are identified with the Clifford algebra
C_2 via i = e1, j = e2, k = e12, and V3 = Z + Zi + Zj denotes the
lattice of quaternions without k-component, written as plain integer
triples (b0, b1, b2) throughout.

The module enumerates the 8(p+1) integral quaternions of norm p, fixes
the lexicographically minimal representative of each left unit-orbit,
computes the conjugation action beta -> alpha' beta bar(alpha) on V3,
and brute-force sweeps the two divisibility lemmas that the coefficient
operators rely on (the two-sided v_p bound for conjugates, invariance
of v_q at other primes, the at-most-two-exceptional-orbits bound, and
the >16-conjugates squared-divisibility criterion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

LatticeVector = tuple[int, int, int]

# The largest prime p whose orbit table is built, and the largest bound P of a prime window.
# One table costs about 0.2 s at p = 1009, 1.8 s at p = 10007 and 4.1 s at p = 20011, and a
# full L6.4a window of the 73 primes in [500, 1000] takes about 8 s (2-vCPU host).
MAX_PRIME = 1000
# The largest norm that enumerate_norm takes; orbit_representatives enumerates norm p, so it is
# at least MAX_PRIME.  The cubic loop takes about 0.05 s at n = 1009, 0.4 s at 5003 and 1.1 s at
# 10007 (2-vCPU host).
MAX_NORM = 10_000
# The largest coordinate bound of a lemma sweep.  A passing sweep walks the octant of
# (bound + 1)^3 - 1 betas and a failing one the whole box of (2 bound + 1)^3 - 1, to name its
# witness (see verify_conjugation_lemmas).  Peak RSS grows by about 58 bytes per beta walked over
# the 32 MB of the imported package: at bound 64 a passing sweep peaks at 47 MB and a failing one
# at 151 MB (p = 3; 53 and 196 MB at p = 13 and 19, whose products need int16).
MAX_SWEEP_BOUND = 64
# The largest work (p+1)(2 bound + 1)^3 of a lemma sweep: one pass over the box for each of the
# p+1 classes, the walk of a failing sweep; a passing one walks the octant, about an eighth of it.
# At p = 997 a passing sweep takes about 0.09 s at bound 10 (work 9.2e6), 0.14 s at bound 17
# (4.3e7, the largest admitted; 0.19 s with the 45 odd primes up to 200 as q) and 0.52 s at
# bound 32 (2.7e8), and a walk of the box 0.15 s, 0.7 s (1.2 s) and 7 s, so about 55 s at
# bound 64; at bound 64, p = 3 (8.6e6) takes 0.03 s and its box 0.26 s, p = 19 (4.3e7) 0.10 s
# and its box 0.9 s (2-vCPU host, after the orbit table is built).
MAX_SWEEP_WORK = 50_000_000


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def require_odd_prime(n: int, name: str = "p") -> int:
    """n itself when it is an odd prime up to MAX_PRIME; a ValueError naming it otherwise.

    The ceiling is checked first, so a huge n is refused before is_prime
    trial-divides up to its square root.
    """
    if not n <= MAX_PRIME:
        raise ValueError(f"{name} = {n} is past {MAX_PRIME}, the largest supported prime")
    if n == 2 or not is_prime(n):
        raise ValueError(f"{name} must be an odd prime, got {n}")
    return n


def odd_primes_in(lo: float, hi: float) -> Iterator[int]:
    """Odd primes p with lo <= p <= hi, ascending, found one at a time."""
    start = max(3, math.ceil(lo))
    return (p for p in range(start, math.floor(hi) + 1) if p % 2 and is_prime(p))


def hamilton_product(p: Sequence, q: Sequence) -> tuple:
    """The quaternion product on coordinate 4-tuples (1, i, j, k).

    The one copy of the formula: ``Quaternion`` products, ``conjugate_action``,
    ``conjugation_matrix`` and the products ``@`` of ``geometry``'s exact 2x2
    matrices call it, on int, Fraction or float coordinates alike.  The
    per-point paths of ``geometry`` (``act``, its pseudo-determinant and
    ``word_to_matrix``) write the products out on scalars, term by term in
    this order (``act`` skips the products by its point's zero k-part, which
    cannot change a sum there), and the tests check them bit for bit against
    evaluations through this function.  On the reduction words of 2,000 points drawn as
    in acceptance 13 (mean length 1.8; 2-vCPU Xeon host, best and median of
    30 runs), ``word_to_matrix`` builds a word's matrix in 1.4-1.5 us and
    returns a memoized one in 0.25, and ``act`` takes 4.1-4.3 us on its
    first call on a matrix and 2.8-2.9 on later calls, which reuse the
    entries' floats; through this function on coordinate tuples they took
    2.8-2.9 and 7.2-7.6, with four ``Quaternion`` entries per matrix 7.1-8.7
    and 8.4-10.7, and on ``Quaternion`` objects throughout 11-20 and 36-62.
    """
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Quaternion with exact (int or Fraction) coordinates on 1, i, j, k."""

    a: Union[int, Fraction]
    b: Union[int, Fraction]
    c: Union[int, Fraction]
    d: Union[int, Fraction]

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(*hamilton_product(self.coords(), other.coords()))
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.a * other, self.b * other, self.c * other, self.d * other)
        return NotImplemented

    def norm(self):
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def conjugate(self) -> "Quaternion":
        """bar: negate i, j, k."""
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def main(self) -> "Quaternion":
        """Main involution (prime): negate i and j, fix k = ij."""
        return Quaternion(self.a, -self.b, -self.c, self.d)

    def star(self) -> "Quaternion":
        """Reversal: fix i and j, negate k."""
        return Quaternion(self.a, self.b, self.c, -self.d)

    def coords(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return f"Quaternion({self.a}, {self.b}, {self.c}, {self.d})"


UNITS: tuple[Quaternion, ...] = tuple(
    Quaternion(*(s if idx == pos else 0 for idx in range(4)))
    for pos in range(4) for s in (1, -1)
)


def lattice_norm(beta: Sequence[int]) -> int:
    return beta[0] * beta[0] + beta[1] * beta[1] + beta[2] * beta[2]


def enumerate_norm(n: int) -> list[Quaternion]:
    """All integral quaternions of norm n <= MAX_NORM, in lexicographic coordinate order: the loops
    emit that order, since a, b and c ascend and -d comes before +d.

    The ceiling is checked first, so a huge n is refused before the cubic loop.
    """
    if not n <= MAX_NORM:
        raise ValueError(f"norm {n} is past {MAX_NORM}, the largest supported norm")
    if n < 1:
        raise ValueError("norm must be a positive integer")
    m = math.isqrt(n)
    out = []
    for a in range(-m, m + 1):
        ra = n - a * a
        for b in range(-m, m + 1):
            rb = ra - b * b
            if rb < 0:
                continue
            for c in range(-m, m + 1):
                rc = rb - c * c
                if rc < 0:
                    continue
                d = math.isqrt(rc)
                if d * d == rc:
                    if d == 0:
                        out.append(Quaternion(a, b, c, 0))
                    else:
                        out.append(Quaternion(a, b, c, -d))
                        out.append(Quaternion(a, b, c, d))
    return out


def canonical_orbit_representative(alpha: Quaternion) -> Quaternion:
    """Lexicographically smallest element of the left unit-orbit of alpha."""
    return min((u * alpha for u in UNITS), key=Quaternion.coords)


@dataclass(frozen=True)
class NormPOrbitTable:
    """The 8(p+1) norm-p quaternions and one representative per unit orbit."""

    p: int
    all_elements: tuple[Quaternion, ...]
    representatives: tuple[Quaternion, ...]


@lru_cache(maxsize=None)
def orbit_representatives(p: int) -> NormPOrbitTable:
    """Deterministic orbit table for an odd prime p <= MAX_PRIME: exactly p+1 representatives."""
    require_odd_prime(p)
    elements = enumerate_norm(p)
    if len(elements) != 8 * (p + 1):
        raise AssertionError(f"expected {8 * (p + 1)} norm-{p} quaternions, found {len(elements)}")
    reps = sorted({canonical_orbit_representative(q) for q in elements}, key=Quaternion.coords)
    if len(reps) != p + 1:
        raise AssertionError(f"expected {p + 1} orbits for p={p}, found {len(reps)}")
    return NormPOrbitTable(p=p, all_elements=tuple(elements), representatives=tuple(reps))


def conjugate_action(alpha: Quaternion, beta: Sequence[int]) -> LatticeVector:
    """beta -> alpha' * beta * bar(alpha), which stays inside V3.

    Raises ArithmeticError if the product acquires a k-component (it
    cannot; a nonzero k-component signals an internal inconsistency).
    """
    a, b, c, d = alpha.coords()
    q = hamilton_product(hamilton_product((a, -b, -c, d), (int(beta[0]), int(beta[1]), int(beta[2]), 0)),
                         (a, -b, -c, -d))
    if q[3] != 0:
        raise ArithmeticError(f"quaternion {Quaternion(*q)} has nonzero k-component, not in V3")
    return (int(q[0]), int(q[1]), int(q[2]))


def conjugation_matrix(alpha: Quaternion) -> tuple[tuple[int, int, int], ...]:
    """3x3 integer matrix of beta -> alpha' beta bar(alpha) on V3 (rows act on column vectors).

    Column m is alpha' e_m bar(alpha) for e_m = 1, i, j, as in conjugate_action; alpha' e_m is a
    signed permutation of alpha's coordinates, so each column costs one product.
    """
    a, b, c, d = alpha.coords()
    bar = (a, -b, -c, -d)
    # alpha' = a - b i - c j + d k, times 1, i and j
    c0, c1, c2 = (hamilton_product(q, bar) for q in ((a, -b, -c, d), (b, a, d, c), (c, -d, a, -b)))
    for q in (c0, c1, c2):
        if q[3] != 0:
            raise ArithmeticError(f"quaternion {Quaternion(*q)} has nonzero k-component, not in V3")
    return (c0[0], c1[0], c2[0]), (c0[1], c1[1], c2[1]), (c0[2], c1[2], c2[2])


# name -> (u, flip) for the units u = i, j, k, in that order: conjugation by u multiplies
# beta_r by flip[r], the diagonal of conjugation_matrix(u).  The one table of these flips, read by
# the sign symmetry of coefficient fields (hecke), by geometry and by the octant reduction of the
# lemma sweep (verify_conjugation_lemmas).
UNIT_FLIPS = {name: (u, tuple(conjugation_matrix(u)[r][r] for r in range(3))) for name, u in zip("ijk", UNITS[2::2])}


@lru_cache(maxsize=None)
def conjugation_matrices(p: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Conjugation matrices for the p+1 orbit representatives at an odd prime p."""
    return tuple(conjugation_matrix(a) for a in orbit_representatives(p).representatives)


@lru_cache(maxsize=None)
def star_conjugation_matrices(p: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Matrices of delta -> alpha^* delta alpha for the p+1 orbit representatives.

    Each is the transpose of the conjugation matrix C(alpha): the two maps
    compose to p^2 on V3 (alpha^* alpha' = bar(alpha) alpha = p), and
    conjugation scales norms by p^2, so C^T C = p^2 I and the matrix is
    p^2 C^{-1} = C^T.  The transposes are taken of the cached conjugation_matrices(p).
    """
    return tuple(tuple(zip(*c)) for c in conjugation_matrices(p))


def divide_lattice(beta: Sequence[int], m: int) -> Optional[LatticeVector]:
    """beta/m when m divides every coordinate, else None (off-lattice)."""
    if beta[0] % m == 0 and beta[1] % m == 0 and beta[2] % m == 0:
        return (beta[0] // m, beta[1] // m, beta[2] // m)
    return None


def scale_lattice(beta: Sequence[int], m: int) -> LatticeVector:
    return (beta[0] * m, beta[1] * m, beta[2] * m)


def valuation(gamma, q: int):
    """Largest e with q^e dividing every coordinate; infinity for gamma = 0."""
    coords = gamma.coords() if isinstance(gamma, Quaternion) else gamma
    g = math.gcd(*(int(c) for c in coords))
    if g == 0:
        return math.inf
    e = 0
    while g % q == 0:
        g //= q
        e += 1
    return e


# -- exhaustive lemma sweeps ----------------------------------------------

class LemmaSweepError(AssertionError):
    """A brute-force sweep found a counterexample; carries the witness."""

    def __init__(self, message: str, witness):
        super().__init__(f"{message}: witness {witness}")
        self.witness = witness


@dataclass(frozen=True)
class ConjugationSweepReport:
    p: int
    bound: int
    q_primes: tuple[int, ...]
    beta_count: int
    alpha_count: int
    pairs_checked: int
    max_vp_jump: int
    max_unequal_reps: int
    max_exceptional_set: int
    squared_divisibility_max_small: int
    violations: int = 0


# The widest word of the packed divisibility table, in bits.  Each word keeps 2 of them
# spare, so a field shifted left by 2 stays inside its dtype.
_WORD_BITS = 64


class _DivisibilityTable:
    """Which powers of each prime divide n, for 0 <= n <= m, packed into words of bits.

    Prime q owns E_q = floor(log_q m) bits of one word, from its offset o_q up: bit
    o_q + e - 1 of row n says q^e | n.  The primes fill the words in the order given, and
    one that would leave a word fewer than 2 spare bits of _WORD_BITS opens the next (the
    widest field at an allowed p and bound is E_3 = 11, so one always fits).  Each word is
    held in the narrowest unsigned dtype that keeps its 2 spare bits.  Row n > 0 holds the
    thermometer code 2^v - 1 of v = valuation(n, q) in q's bits, and row 0 has every bit
    set: v(0) = infinity is the identity of min as all-ones is of AND.  So the AND of a
    vector's coordinate rows holds, in each field, the code of its least coordinate
    valuation, and the popcount of the field is that valuation.  The table is built by one
    strided slice per prime power: bit o_q + e - 1 is set on the rows q^e, 2 q^e, ...,
    and its words are read-only once built.
    """

    def __init__(self, primes: Sequence[int], m: int):
        self.fields: dict[int, tuple[int, int, int]] = {}  # q -> (word, offset, E_q)
        used = [0]
        for q in primes:
            width = 0
            while q ** (width + 1) <= m:
                width += 1
            if used[-1] and used[-1] + width > _WORD_BITS - 2:
                used.append(0)
            self.fields[q] = (len(used) - 1, used[-1], width)
            used[-1] += width
        uints = (np.uint8, np.uint16, np.uint32, np.uint64)
        self.words = [np.zeros(m + 1, dtype=next(t for t in uints if np.iinfo(t).bits >= bits + 2))
                      for bits in used]
        for table in self.words:
            table[0] = np.iinfo(table.dtype).max
        for q, (word, offset, width) in self.fields.items():
            for e in range(1, width + 1):
                self.words[word][q ** e::q ** e] |= 1 << (offset + e - 1)
        for table in self.words:
            table.flags.writeable = False

    def lookup(self, rows: Sequence[np.ndarray]) -> list[np.ndarray]:
        """The packed words of the vectors whose |coordinates| are rows[0], rows[1], rows[2].

        Each row is taken on its own: a take converts its indices to intp first, so one take
        of a (3, n) array would hold 3n of them at once.  A coordinate past m raises IndexError.
        """
        out = []
        for table in self.words:
            w = table.take(rows[0])
            w &= table.take(rows[1])
            w &= table.take(rows[2])
            out.append(w)
        return out

    def field(self, words: Sequence[np.ndarray], q: int) -> np.ndarray:
        """q's thermometer field 2^v - 1 of each vector in the packed words."""
        word, offset, width = self.fields[q]
        return (words[word] >> offset) & ((1 << width) - 1)

    def valuation_at(self, words: Sequence[np.ndarray], q: int, idx: int) -> int:
        """v_q of vector idx of the packed words, the popcount of its field."""
        return int(self.field(words, q)[idx]).bit_count()


@lru_cache(maxsize=8)
def _divisibility_table(primes: tuple[int, ...], m: int, word_bits: int) -> _DivisibilityTable:
    """The _DivisibilityTable of primes up to m, built once per key.

    word_bits is the _WORD_BITS in force at the call, which the table reads: it keys the
    cache, so a changed word width gets its own table.
    """
    return _DivisibilityTable(primes, m)


def _narrowest_int(m: int) -> type:
    """The narrowest signed numpy integer type that holds m."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= m)


@lru_cache(maxsize=8)
def _beta_grid(lo: int, bound: int, dtype: type) -> np.ndarray:
    """The nonzero integer vectors with lo <= coords <= bound, as the columns of a read-only 3 x n array."""
    rng = np.arange(lo, bound + 1, dtype=dtype)
    grid = np.stack(np.meshgrid(rng, rng, rng, indexing="ij")).reshape(3, -1)
    grid = np.ascontiguousarray(grid[:, np.any(grid != 0, axis=0)])
    grid.flags.writeable = False
    return grid


def _row_sign_form(mat: Sequence[Sequence[int]]) -> tuple:
    """Each row of mat times the sign of its first nonzero entry, r[0] or r[1] or r[2]."""
    return tuple((-r[0], -r[1], -r[2]) if (r[0] or r[1] or r[2]) < 0 else tuple(r) for r in mat)


def _sweep_classes(table: NormPOrbitTable) -> list[tuple]:
    """The norm-p alpha grouped by the row-sign form of conjugation_matrix(alpha), in order of first
    appearance: (first member, its matrix, class size, representatives in the class) for each."""
    representatives = set(table.representatives)
    classes: dict[tuple, list] = {}
    for alpha in table.all_elements:
        mat = conjugation_matrix(alpha)
        cls = classes.setdefault(_row_sign_form(mat), [alpha, mat, 0, 0])
        cls[2] += 1
        cls[3] += alpha in representatives
    return [tuple(cls) for cls in classes.values()]


def _closed_under_flips(classes: Sequence[tuple]) -> bool:
    """Whether, for each flip of UNIT_FLIPS, every class matrix times the flip diagonal on the right
    has the row-sign form of a class with the same (size, representatives) weights."""
    weights = {_row_sign_form(mat): (size, reps) for _, mat, size, reps in classes}
    return all(weights.get(_row_sign_form([[x * f for x, f in zip(row, flip)] for row in mat])) == (size, reps)
               for _, mat, size, reps in classes for _, flip in UNIT_FLIPS.values())


@lru_cache(maxsize=8)
def _sweep_plan(p: int, matrix_of) -> tuple[tuple[tuple, ...], bool, np.ndarray]:
    """The row-sign classes of the norm-p alpha, whether they are closed under the flips, and
    their matrices as a read-only int64 array of shape (classes, 3, 3), built once per key.

    matrix_of is the conjugation_matrix in force at the call, which _sweep_classes reads: it
    keys the cache, so a substituted map gets its own plan.
    """
    classes = tuple(_sweep_classes(orbit_representatives(p)))
    mats = np.array([mat for _, mat, _, _ in classes], dtype=np.int64)
    mats.flags.writeable = False
    return classes, _closed_under_flips(classes), mats


def verify_conjugation_lemmas(
    p: int,
    coordinate_bound: int,
    q_primes: Optional[Iterable[int]] = None,
) -> ConjugationSweepReport:
    """Exhaustive check of the conjugation valuation lemmas over a coordinate box.

    Covers every nonzero beta with |coords| <= coordinate_bound against
    every norm-p alpha, asserting:

      (i)   v_p(beta) <= v_p(alpha' beta bar(alpha)) <= v_p(beta) + 2;
      (ii)  v_q is preserved for each supplied odd prime q != p;
      (iii) at most two representative orbits change v_p, and the
            exceptional set I(beta) = {i : v_p jumps} has size <= 2;
      (iv)  any delta with more than 16 norm-p alpha satisfying
            p^2 | alpha^* delta alpha is itself divisible by p^2.

    Every valuation read below depends on C(alpha) beta only through its
    absolute coordinates, so alpha whose matrices agree up to the sign of
    each row give the same answers.  The 8(p+1) alpha are grouped by the
    row-sign normal form of C(alpha) (each row times the sign of its first
    nonzero entry), and each class is swept once with the matrix of its
    first member, in order of first appearance: part (iii) weighs it by
    its number of representatives and part (iv) by its size, and a failure
    of (i) or (ii) names its first member, which is the first failing
    alpha of the table's order.  Since C(u alpha) = C(u) C(alpha) with
    C(u) a sign diagonal for the 8 units u, there are p+1 classes of 8,
    one representative in each.  The classes, their matrices and the
    closure check below are formed once per (p, conjugation map) from that
    map's matrices (``_sweep_plan``), the conjugation_matrix in force at
    the call keying the cache, and reused by every later sweep at p,
    whatever its bound and primes.
    beta_count and pairs_checked count the betas of the box and the
    (beta, alpha) pairs the classes cover, beta_count * 8(p+1), whichever
    betas are swept (below).  The work (p+1)(2 bound + 1)^3 of the box is
    refused past MAX_SWEEP_WORK before anything is built: a failing sweep
    walks the whole box to name its witness.

    Only the octant b0, b1, b2 >= 0, (bound + 1)^3 - 1 betas, is swept
    when that suffices, and it does because every check and every report
    field takes the same value at all eight sign patterns of beta:
      - the global sign, always: C(-beta) = -C(alpha) beta, and every
        valuation reads |C(alpha) beta|;
      - the four Klein signs, the identity and the three flip diagonals
        D(u) of UNIT_FLIPS (u = i, j, k).  alpha -> alpha' is an
        automorphism and bar an anti-automorphism, so
        C(alpha u) = C(alpha) C(u) = C(alpha) D(u), and C(alpha) D(u) beta
        is C(alpha u) beta.  Right multiplication by u permutes the 8(p+1)
        alpha and their row-sign classes, keeping each class's size and
        number of representatives (it maps left unit orbits to left unit
        orbits), so the weighed counts at D(u) beta are those at beta.
    Each flip negates two coordinates and -1 negates all three, so together
    they give all eight sign diagonals.  The sweep does not assume the second fact: it checks it on
    the classes it built, exactly (``_closed_under_flips``).  For each
    class and each flip it forms the row-sign form of the class matrix
    times D(u) on the right, 3(p+1) forms for the true matrices, and asks
    that it be the form of a class with the same weights.  That map of
    forms is an involution, so it then permutes the classes with their
    weights.  If the check fails, which only a conjugation_matrix other
    than the true one can make happen, the whole box is swept.  If the
    octant sweep raises LemmaSweepError, the box is swept to raise it
    again, so the witness is always the first in box order that a sweep
    of the whole box names.

    The betas are the columns of one 3 x n array, so each class costs a
    few passes over three contiguous coordinate rows: its rows |C beta| are
    one matrix product into a 3 x n buffer that every class reuses, and
    their absolute values are taken in place.  A valuation is the
    least coordinate valuation, v_q(c) = min_i v_q(c_i) with
    v_q(0) = infinity.  All of them come from one packed table of the
    prime powers dividing each n, 0 <= n <= m (``_DivisibilityTable``),
    built once per (primes, m, word width _WORD_BITS) and kept read-only
    (``_divisibility_table``): the AND of the rows of |c_0|, |c_1|, |c_2|
    holds 2^v - 1 in each prime's bit field, so one class makes three
    lookups per word (one word for the default primes at every allowed p
    and bound), whatever the number of primes.  On the p-field f,
    v_c > v_b + 2 is f_c > (f_b << 2 | 3), p^2 | c is f_c > 1, and
    v_c != v_b is f_c != f_b; every v_q with q != p is kept exactly when
    the words agree on the q bits.  m = 3 * bound * (largest absolute
    entry of the 8(p+1) matrices, at most p) bounds every |c_i|, and a
    lookup past it raises IndexError.  The betas, the matrices and their
    products are held in the narrowest signed integer dtype that holds m
    (int8 or int16 at the bounds the CLI, demos and benchmark use).  Part
    (iii) counts the representatives' v_p rows of part (i) as they are
    computed, and part (iv) counts v_p(C(alpha) delta) >= 2 on them:
    alpha^* delta alpha = C(bar(alpha)) delta = C(alpha)^T delta, and
    alpha -> bar(alpha) permutes the norm-p alpha, so each delta has as many
    alpha with p^2 | C(alpha)^T delta as with p^2 | C(alpha) delta.

    Only the upper half of (i) and the orbit count of (iii) can fail, so
    only they are checked.  An integer matrix never lowers v_p: if p^k
    divides every coordinate of beta, it divides every coordinate of
    C beta.  So v_p(conj) >= v_p(beta) always holds, and the exceptional
    set I(beta) is exactly the set of representatives whose conjugate
    changes v_p; max_exceptional_set is that count, max_unequal_reps.

    Returns counts on success; raises LemmaSweepError with the offending
    tuple otherwise.
    """
    if coordinate_bound < 1:
        raise ValueError(f"coordinate bound must be at least 1, got {coordinate_bound}")
    if coordinate_bound > MAX_SWEEP_BOUND:
        raise ValueError(f"coordinate bound must be at most {MAX_SWEEP_BOUND}, got {coordinate_bound}")
    require_odd_prime(p)
    work = (p + 1) * (2 * coordinate_bound + 1) ** 3
    if work > MAX_SWEEP_WORK:
        raise ValueError(f"a sweep of (p+1)(2 bound+1)^3 = {work} at p = {p} and bound {coordinate_bound} "
                         f"is past {MAX_SWEEP_WORK}, the largest supported sweep")
    table = orbit_representatives(p)
    if q_primes is None:
        q_primes = [q for q in (3, 5, 7, 11) if q != p]
    q_primes = tuple(require_odd_prime(q, "each q") for q in q_primes)
    if p in q_primes:
        raise ValueError(f"q primes must differ from p: {q_primes}")

    classes, closed, mats = _sweep_plan(p, conjugation_matrix)
    m = 3 * coordinate_bound * int(np.abs(mats).max())
    # Every |entry|, |beta_i| and |(C beta)_i| is at most m, so no product or sum wraps.
    dtype = _narrowest_int(m)
    mats = mats.astype(dtype)
    div = _divisibility_table((p, *q_primes), m, _WORD_BITS)
    # The q bits of each word: v_q is kept for every q != p when these agree.
    q_masks = [0] * len(div.words)
    for q in q_primes:
        word, offset, width = div.fields[q]
        q_masks[word] |= ((1 << width) - 1) << offset

    def sweep(betas: np.ndarray) -> tuple[int, int, int]:
        """max_vp_jump, max_unequal_reps and squared_divisibility_max_small over the columns of betas."""
        n_beta = betas.shape[1]

        def beta_at(idx: int) -> LatticeVector:
            return tuple(int(c) for c in betas[:, idx])

        words_beta = div.lookup(np.abs(betas))
        f_beta = div.field(words_beta, p)
        jump_past_2 = f_beta << 2 | 3  # f_c > this <=> v_p(conj) > v_p(beta) + 2
        jump_past_1 = f_beta << 1 | 1

        max_jump = 0
        # The counters of (iii) and (iv) reach at most p + 1 <= 1,001 and 8(p + 1) <= 8,008, which int16
        # holds; each class forms its increment in one reused int16 buffer, so counting makes no int64 array.
        unequal = np.zeros(n_beta, dtype=np.int16)
        counts = np.zeros(n_beta, dtype=np.int16)
        step = np.empty(n_beta, dtype=np.int16)

        rows = np.empty_like(betas)  # |C beta| of one class at a time, formed in place
        for (alpha, _, size, reps), mat in zip(classes, mats):
            # (i) + (ii); conjugation is linear in beta.
            words = div.lookup(np.abs(np.einsum("ij,jn->in", mat, betas, out=rows), out=rows))
            f_conj = div.field(words, p)
            high = f_conj > jump_past_2
            if high.any():
                idx = int(np.argmax(high))
                raise LemmaSweepError(
                    "two-sided v_p bound failed",
                    (beta_at(idx), alpha, div.valuation_at(words_beta, p, idx), div.valuation_at(words, p, idx)),
                )
            # v_p(conj) >= v_p(beta) always (see the docstring), so the jump is 0, 1 or 2.
            changed = f_conj != f_beta
            if max_jump < 2 and (f_conj > jump_past_1).any():
                max_jump = 2
            elif max_jump < 1 and changed.any():
                max_jump = 1
            if any(((w ^ wb) & mask).any() for w, wb, mask in zip(words, words_beta, q_masks) if mask):
                for q in q_primes:
                    bad = div.field(words, q) != div.field(words_beta, q)
                    if bad.any():
                        idx = int(np.argmax(bad))
                        raise LemmaSweepError(
                            f"v_{q} not preserved under conjugation",
                            (beta_at(idx), alpha, div.valuation_at(words_beta, q, idx),
                             div.valuation_at(words, q, idx)),
                        )
            # (iii) counts over the p+1 representatives, checked after the loop.
            unequal += np.multiply(changed, reps, out=step, dtype=np.int16)
            # (iv), counted over bar(alpha): see the docstring.  v_p >= 2 <=> f > 1.
            counts += np.multiply(f_conj > 1, size, out=step, dtype=np.int16)

        if int(unequal.max()) > 2:
            idx = int(np.argmax(unequal))
            raise LemmaSweepError("more than two orbits changed v_p", (beta_at(idx), int(unequal[idx])))

        # (iv): p^2 divides a nonzero delta exactly when v_p(delta) >= 2.
        bad = (counts > 16) & (f_beta <= 1)
        if bad.any():
            idx = int(np.argmax(bad))
            raise LemmaSweepError(
                "more than 16 conjugates divisible by p^2 without p^2 | delta",
                (beta_at(idx), int(counts[idx])),
            )
        # Diagnostic: among delta with v_p(delta) = 0, the largest count observed.
        small = f_beta == 0
        return max_jump, int(unequal.max()), int(counts[small].max()) if small.any() else 0

    stats = None
    if closed:
        try:
            stats = sweep(_beta_grid(0, coordinate_bound, dtype))
        except LemmaSweepError:
            pass  # the box below raises it again, with the witness in box order
    if stats is None:
        stats = sweep(_beta_grid(-coordinate_bound, coordinate_bound, dtype))
    max_jump, max_unequal, max_small = stats
    n_beta = (2 * coordinate_bound + 1) ** 3 - 1

    return ConjugationSweepReport(
        p=p,
        bound=coordinate_bound,
        q_primes=q_primes,
        beta_count=n_beta,
        alpha_count=len(table.all_elements),
        pairs_checked=n_beta * len(table.all_elements),
        max_vp_jump=max_jump,
        max_unequal_reps=max_unequal,
        max_exceptional_set=max_unequal,
        squared_divisibility_max_small=max_small,
    )
