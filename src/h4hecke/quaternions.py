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
# The largest coordinate bound of a lemma sweep.  Peak RSS grows by about 57 bytes per beta over
# the 30 MB of the imported package: 34 MB at bound 20, 44 MB at bound 30 and 146 MB at bound 64,
# with 129^3 betas (p = 3).
MAX_SWEEP_BOUND = 64


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

    The one copy of the formula: ``Quaternion`` products, the exact 2x2
    matrix layer of ``geometry`` and its float action all call it, on int,
    Fraction or float coordinates alike.  Composing on tuples rather than
    on frozen ``Quaternion`` objects skips a dataclass construction and an
    ABC isinstance check per product.  On the reduction words of 2,000
    points drawn as in acceptance 13 (2-vCPU Xeon host, medians of 6 runs),
    ``word_to_matrix`` took 16 us per word instead of 58, a matrix product
    12 instead of 28, ``pseudo_det`` 2.5 instead of 9.9 and ``act`` 15
    instead of 23.
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

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(*hamilton_product(self.coords(), other.coords()))
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.a * other, self.b * other, self.c * other, self.d * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
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

    @property
    def is_integral(self) -> bool:
        return all(isinstance(v, int) or (isinstance(v, Fraction) and v.denominator == 1)
                   for v in (self.a, self.b, self.c, self.d))

    def coords(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return f"Quaternion({self.a}, {self.b}, {self.c}, {self.d})"


UNITS: tuple[Quaternion, ...] = tuple(
    Quaternion(*(s if idx == pos else 0 for idx in range(4)))
    for pos in range(4) for s in (1, -1)
)


def lattice_to_quaternion(beta: Sequence[int]) -> Quaternion:
    return Quaternion(int(beta[0]), int(beta[1]), int(beta[2]), 0)


def quaternion_to_lattice(q: Quaternion) -> LatticeVector:
    if q.d != 0:
        raise ArithmeticError(f"quaternion {q} has nonzero k-component, not in V3")
    return (int(q.a), int(q.b), int(q.c))


def lattice_norm(beta: Sequence[int]) -> int:
    return beta[0] * beta[0] + beta[1] * beta[1] + beta[2] * beta[2]


def enumerate_norm(n: int) -> list[Quaternion]:
    """All integral quaternions of norm n, in lexicographic coordinate order."""
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
    return sorted(out, key=Quaternion.coords)


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
    q = alpha.main() * lattice_to_quaternion(beta) * alpha.conjugate()
    return quaternion_to_lattice(q)


def conjugation_matrix(alpha: Quaternion) -> tuple[tuple[int, int, int], ...]:
    """3x3 integer matrix of beta -> alpha' beta bar(alpha) on V3 (rows act on column vectors)."""
    return tuple(zip(*(conjugate_action(alpha, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))))


def apply_matrix(mat: Sequence[Sequence[int]], beta: Sequence[int]) -> LatticeVector:
    b0, b1, b2 = beta
    return (
        mat[0][0] * b0 + mat[0][1] * b1 + mat[0][2] * b2,
        mat[1][0] * b0 + mat[1][1] * b1 + mat[1][2] * b2,
        mat[2][0] * b0 + mat[2][1] * b1 + mat[2][2] * b2,
    )


# name -> (u, flip) for the units u = i, j, k, in that order: conjugation by u multiplies
# beta_r by flip[r], the diagonal of conjugation_matrix(u).  The one table of these flips.
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
    p^2 C^{-1} = C^T.
    """
    return tuple(tuple(zip(*conjugation_matrix(a))) for a in orbit_representatives(p).representatives)


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
    valuation, and the popcount of the field is that valuation.
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
            v = np.fromiter((valuation((n,), q) for n in range(1, m + 1)), dtype=np.intp, count=m)
            codes = np.array([((1 << e) - 1) << offset for e in range(width + 1)], dtype=self.words[word].dtype)
            self.words[word][1:] |= codes[v]

    def lookup(self, rows: Sequence[np.ndarray]) -> list[np.ndarray]:
        """The packed words of the vectors whose |coordinates| are rows[0], rows[1], rows[2].

        A coordinate past m raises IndexError.
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


def _narrowest_int(m: int) -> type:
    """The narrowest signed numpy integer type that holds m."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= m)


def _beta_grid(bound: int, dtype: type) -> np.ndarray:
    """The nonzero integer vectors with |coords| <= bound, as the columns of a 3 x n array."""
    rng = np.arange(-bound, bound + 1, dtype=dtype)
    grid = np.stack(np.meshgrid(rng, rng, rng, indexing="ij")).reshape(3, -1)
    return np.ascontiguousarray(grid[:, np.any(grid != 0, axis=0)])


def verify_conjugation_lemmas(
    p: int,
    coordinate_bound: int,
    q_primes: Optional[Iterable[int]] = None,
) -> ConjugationSweepReport:
    """Exhaustive check of the conjugation valuation lemmas over a coordinate box.

    Sweeps every nonzero beta with |coords| <= coordinate_bound against
    every norm-p alpha, asserting:

      (i)   v_p(beta) <= v_p(alpha' beta bar(alpha)) <= v_p(beta) + 2;
      (ii)  v_q is preserved for each supplied odd prime q != p;
      (iii) at most two representative orbits change v_p, and the
            exceptional set I(beta) = {i : v_p jumps} has size <= 2;
      (iv)  any delta with more than 16 norm-p alpha satisfying
            p^2 | alpha^* delta alpha is itself divisible by p^2.

    The betas are the columns of one 3 x n array, so each alpha costs a
    few passes over three contiguous coordinate rows: O(bound^3 * p) in
    all.  A valuation is the least coordinate valuation,
    v_q(c) = min_i v_q(c_i) with v_q(0) = infinity.  All of them come from
    one packed per-call table of the prime powers dividing each n,
    0 <= n <= m (``_DivisibilityTable``): the AND of the rows of |c_0|,
    |c_1|, |c_2| holds 2^v - 1 in each prime's bit field, so one alpha
    makes three lookups per word (one word for the default primes at
    every allowed p and bound), whatever the number of primes.  On the
    p-field f, v_c > v_b + 2 is f_c > (f_b << 2 | 3), p^2 | c is
    f_c > 1, and v_c != v_b is f_c != f_b; every v_q with q != p is kept
    exactly when the words agree on the q bits.  m = 3 * bound * (largest
    absolute entry of the 8(p+1) matrices, at most p) bounds every |c_i|,
    and a lookup past it raises IndexError.  The betas, the matrices and
    their products are held in the narrowest signed integer dtype that
    holds m (int8 or int16 at the bounds the CLI, demos and benchmark
    use).  Part (iii) counts the representatives' v_p rows of part (i) as they
    are computed, and part (iv) counts v_p(C(alpha) delta) >= 2 on them:
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
    table = orbit_representatives(p)
    if q_primes is None:
        q_primes = [q for q in (3, 5, 7, 11) if q != p]
    q_primes = tuple(require_odd_prime(q, "each q") for q in q_primes)
    if p in q_primes:
        raise ValueError(f"q primes must differ from p: {q_primes}")

    representatives = set(table.representatives)
    mats = np.array([conjugation_matrix(alpha) for alpha in table.all_elements], dtype=np.int64)
    m = 3 * coordinate_bound * int(np.abs(mats).max())
    # Every |entry|, |beta_i| and |(C beta)_i| is at most m, so no product or sum wraps.
    dtype = _narrowest_int(m)
    mats = mats.astype(dtype)
    betas = _beta_grid(coordinate_bound, dtype)
    n_beta = betas.shape[1]
    b0, b1, b2 = betas
    div = _DivisibilityTable((p, *q_primes), m)
    # The q bits of each word: v_q is kept for every q != p when these agree.
    q_masks = [0] * len(div.words)
    for q in q_primes:
        word, offset, width = div.fields[q]
        q_masks[word] |= ((1 << width) - 1) << offset

    def beta_at(idx: int) -> LatticeVector:
        return tuple(int(c) for c in betas[:, idx])

    words_beta = div.lookup(np.abs(betas))
    f_beta = div.field(words_beta, p)
    jump_past_2 = f_beta << 2 | 3  # f_c > this <=> v_p(conj) > v_p(beta) + 2
    jump_past_1 = f_beta << 1 | 1

    max_jump = 0
    pairs = 0
    unequal = np.zeros(n_beta, dtype=np.int64)
    counts = np.zeros(n_beta, dtype=np.int64)

    for alpha, mat in zip(table.all_elements, mats):
        # (i) + (ii); conjugation is linear in beta.
        words = div.lookup([np.abs(r[0] * b0 + r[1] * b1 + r[2] * b2) for r in mat])
        f_conj = div.field(words, p)
        pairs += n_beta
        high = f_conj > jump_past_2
        if high.any():
            idx = int(np.argmax(high))
            raise LemmaSweepError(
                "two-sided v_p bound failed",
                (beta_at(idx), alpha, div.valuation_at(words_beta, p, idx), div.valuation_at(words, p, idx)),
            )
        # v_p(conj) >= v_p(beta) always (see the docstring), so the jump is 0, 1 or 2.
        if max_jump < 2 and (f_conj > jump_past_1).any():
            max_jump = 2
        elif max_jump < 1 and (f_conj != f_beta).any():
            max_jump = 1
        if any(((w ^ wb) & mask).any() for w, wb, mask in zip(words, words_beta, q_masks) if mask):
            for q in q_primes:
                bad = div.field(words, q) != div.field(words_beta, q)
                if bad.any():
                    idx = int(np.argmax(bad))
                    raise LemmaSweepError(
                        f"v_{q} not preserved under conjugation",
                        (beta_at(idx), alpha, div.valuation_at(words_beta, q, idx), div.valuation_at(words, q, idx)),
                    )
        # (iii) counts over the p+1 representatives, checked after the loop.
        if alpha in representatives:
            unequal += f_conj != f_beta
        # (iv), counted over bar(alpha): see the docstring.  v_p >= 2 <=> f > 1.
        counts += f_conj > 1

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
    max_small = int(counts[small].max()) if small.any() else 0

    return ConjugationSweepReport(
        p=p,
        bound=coordinate_bound,
        q_primes=q_primes,
        beta_count=n_beta,
        alpha_count=len(table.all_elements),
        pairs_checked=pairs,
        max_vp_jump=max_jump,
        max_unequal_reps=int(unequal.max()),
        max_exceptional_set=int(unequal.max()),
        squared_divisibility_max_small=max_small,
    )
