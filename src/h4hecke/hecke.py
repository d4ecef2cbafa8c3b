"""Coefficient operators at an odd prime p with exact Q(sqrt p) scalars.

A coefficient field is a finitely supported map beta -> A(beta) from the
lattice V3(Z) (integer triples, beta != 0) into complex numbers whose
real and imaginary parts live in Q(sqrt p).  Lookups are total: any
argument outside the support, outside the lattice (beta/p with p not
dividing beta), or equal to zero reads as 0.

Three linear operators H_1, H_2, H_3 act on such fields.  Writing
conj_i(beta) = alpha_i' beta bar(alpha_i) over the fixed norm-p orbit
representatives alpha_1..alpha_{p+1} and

    (T_k A)(beta) = sum_i A(conj_i(beta) / p^k),    k = 0, 1, 2,

for the conjugate sums, with weights and indicators acting pointwise,

  H_1 A = A(p .) + A(./p) + p^{-1/2} T_1 A

  H_2 A = E A + p^{-1/2} (T_0 A + T_2 A)

  H_3 A = A(p^2 .) + mid A + A(./p^2) + p^{-1} T_0(1_p T_2 A)
          + p^{-1/2} [T_0(1_p A) - (1/p) T_0 A + (1_p - 1/p) T_2 A],

where E(beta, p) is the four-case rational factor driven by p | beta,
p | N(beta), and the Legendre symbol (-N(beta) | p), 1_p is the
indicator of p dividing every coordinate, and mid = 1_p - (p+1)/p E
- (p^2+p+1)/p^3.  Written out, p^{-1} T_0(1_p T_2 A) at beta is
p^{-1} sum_i 1_p(conj_i(beta)) sum_j A(conj_j(conj_i(beta))/p^2).

Both value types run the operators through one term builder, _terms, which
adds the same terms in the same groups and order.  H_1 adds p^{-1/2} T_1 A,
then A(p .), then A(./p); H_2 adds p^{-1/2} T_2 A, p^{-1/2} T_0 A, then E A;
and H_3 is arranged as

  H_3 A = A(p^2 .) + A(./p^2) + mid A - p^{-1/2} (1/p) (T_2 A + T_0 A)
          + p^{-1/2} 1_p T_2 A + T_0 u,     u = 1_p (p^{-1/2} A + p^{-1} T_2 A),

where (1_p T_2 A)(p beta) = (T_1 A)(beta), so both 1_p T_2 A terms are T_1
terms moved to p beta.  Each T_1 term goes to p beta and into u on its own:
T_0 is linear, so no term of u is summed before it is scattered.

On eigenvector data the three operators reproduce the normalized
eigenvalue triple, and they satisfy

    H_1^2 - (1 + 1/p) H_2 - H_3 = (1 + 1/p + 1/p^2 + 1/p^3) Id

as an exact operator identity on arbitrary fields (any fixed orbit
table); verify_hecke_relation computes the residual of that identity
without rounding.

T_k is computed by scattering from the support: _star_images holds the
transposition argument that makes this exact, and forms every image S_i
gamma of the support by one integer matrix product with a cached star
block, the S_i side by side.  Whether an array is computed on int64 or
on Python ints in an object array is decided in one place, _exact, from
the caller's bound on every int it forms, for this module and for sums;
an int64 key array keeps every coordinate below 2^62 in absolute value
(_support_array).  _terms returns each term as one (keys, values) group and
reads the (beta, row) pairs of T_2, T_1 and T_0 off one star product of its
input's keys (_Pairs).  Its values are of either type: complex doubles (the
float operators) or (n, 4) integer numerator rows (ra, rb, ia, ib) over D p^3,
D the field's denominator (the exact operators).  Only p^{-1/2} and the
weights depend on the type, and on rows both are exact integer operations
(see the integer-domain note below).  apply_hecke merges the groups once
and keeps the nonzero sums as the output rows, in key order;
verify_hecke_relation runs H_1, H_2 and H_3 on one _Pairs of A, so A's
support is scattered once, and the terms of the whole residual meet in one
merge.  The test suite's generic dict loops of the operators
(tests/reference.py, apply_dict) scatter by an independent loop over the
(point, representative) pairs.  The lattice sums of the sums module
(R^{p,l}_d and the L6.4 double sum) read T_l off _conj_sum_rows, the
same scatter on arrays, with the integer numerators of equal betas
summed.  A field is integer numerator arrays over one denominator
(CoefficientField), and the float operators read complex128 arrays made
once per field (_float_field).  Every merge of equal keys, on int64 or on
Python ints, is _merge, which sorts them once (_runs) and returns them in
key order.  apply_hecke_float returns a read-only mapping backed by its
merged arrays (_ArrayMap, as a field's entries are), so eigen_residual
chains operators without building dicts, and verify_commutativity sends
the outer terms of both orders into one merge (see the note on the float
operators below).

Each per-key fact and weight has one home, made once per prime or per
input.  The quadratic residues mod p are one cached table (_residues), which
legendre_symbol reads, and the four cases of E are one cached (2, p) table
built from it (_case_table), indexed by [p does not divide beta, N(beta) mod p]:
_epsilon_case reads one entry, and _epsilon_cases reads the cases of a key
array by one lookup, which a _Pairs makes once for H_2 and H_3 to share.  The
weights of H_2 and H_3 are _hecke_weights lifted once per prime, to doubles
(_float_tables) or to numerators over p^3 (_int_weights), whose E and mid
columns are cached arrays (_weight_columns).  A field keeps the bound on its
keys (key_peak), from which the bound on every key an operator forms follows,
so no _Pairs of the exact operators scans its keys for their peak.  With these, one
relation on an 8-entry field at p = 3, 5 or 7 takes about 160 us, against
about 210 us when the cases, weight columns and peaks were recomputed on
every call (2-vCPU host, one process).  Every exact value becomes a double
through _quad_float on its integer numerators: float(QuadExt), the float
fields (_float_field) and the float totals of the sums module.

Two finer properties need the Klein-group sign symmetry
A(-b0,-b1,b2) = A(-b0,b1,-b2) = A(b0,-b1,-b2) = A(b0,b1,b2) that
unit-rotation isometries force on genuine Fourier-coefficient data:
only on that symmetric subspace are the conjugation sums independent of
the choice of orbit representatives, and only there do operators at
distinct primes commute (CoefficientField.symmetrized projects onto the
subspace; on unsymmetric fields the commutator can be of size one).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

import numpy as np

from .quaternions import (
    UNIT_FLIPS,
    LatticeVector,
    conjugation_matrices,
    conjugation_matrix,
    require_odd_prime,
)

Rational = Union[int, Fraction]


def _join_primes(p1: Optional[int], p2: Optional[int]) -> Optional[int]:
    if p1 is None:
        return p2
    if p2 is None or p1 == p2:
        return p1
    raise ValueError(f"mixed sqrt-extensions: sqrt({p1}) vs sqrt({p2})")


def _quad_float(a: int, b: int, den: int, p: Optional[int]) -> float:
    """(a + b sqrt(p)) / den as the nearest double to a few ulps, also when a and b sqrt(p) nearly cancel:
    for opposite signs the value is (a^2 - p b^2) / (den (a - b sqrt(p))), the numerator formed exactly
    and the denominator adding like signs.  Each int / int is correctly rounded."""
    if not b:
        return a / den
    root = math.sqrt(p)
    if (a < 0) == (b < 0) or not a:
        return a / den + b / den * root
    return (a * a - p * b * b) / (den * den) / (a / den - b / den * root)


@dataclass(frozen=True, slots=True)
class QuadExt:
    """Exact element a + b*sqrt(p) of Q(sqrt p); p None means plain Q."""

    p: Optional[int]
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if self.p is None and self.b != 0:
            raise ValueError("a sqrt coefficient requires a prime context")

    @classmethod
    def of(cls, value: Rational, p: Optional[int] = None) -> "QuadExt":
        return cls(p, Fraction(value), Fraction(0))

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt.of(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = _join_primes(self.p, other.p)
        return QuadExt(p, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return QuadExt(self.p, -self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # a rational scalar: no coercion, and a zero sqrt part is kept
            return QuadExt(self.p, self.a * other, self.b * other if self.b else self.b)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = _join_primes(self.p, other.p)
        # two Fraction products when either factor is rational
        if other.b == 0:
            return QuadExt(p, self.a * other.a, self.b * other.a)
        if self.b == 0:
            return QuadExt(p, self.a * other.a, self.a * other.b)
        return QuadExt(p, self.a * other.a + p * self.b * other.b, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = _join_primes(self.p, other.p)
        root_sq = Fraction(p) if p is not None else Fraction(0)
        denom = other.a * other.a - root_sq * other.b * other.b
        if denom == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt p)")
        conj_num = self * QuadExt(p, other.a, -other.b)
        return QuadExt(p, conj_num.a / denom, conj_num.b / denom)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.a == other and self.b == 0
        if isinstance(other, QuadExt):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.p == other.p and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.p, self.a, self.b))

    def __float__(self) -> float:
        """The nearest double to a few ulps, also when a and b sqrt(p) nearly cancel (_quad_float)."""
        a, b = self.a, self.b
        den = math.lcm(a.denominator, b.denominator)
        return _quad_float(a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den, self.p)

    def with_prime(self, p: Optional[int]) -> "QuadExt":
        return QuadExt(_join_primes(self.p, p), self.a, self.b)

    def __repr__(self):
        if self.b == 0:
            return f"QuadExt({self.a})"
        return f"QuadExt({self.a} + {self.b}*sqrt({self.p}))"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        sign = "-" if self.b < 0 else "+"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.p})"


_SCALARS = (QuadExt, int, Fraction)


@dataclass(frozen=True, slots=True)
class QComplex:
    """Complex number with QuadExt real and imaginary parts."""

    re: QuadExt
    im: QuadExt

    @classmethod
    def of(cls, re: Rational = 0, im: Rational = 0, p: Optional[int] = None) -> "QComplex":
        return cls(QuadExt.of(re, p), QuadExt.of(im, p))

    def __add__(self, other):
        if not isinstance(other, QComplex):
            return NotImplemented
        return QComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if not isinstance(other, QComplex):
            return NotImplemented
        return QComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return QComplex(self.re * other, self.im * other)

    __rmul__ = __mul__

    def abs_sq(self) -> QuadExt:
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def with_prime(self, p: Optional[int]) -> "QComplex":
        return QComplex(self.re.with_prime(p), self.im.with_prime(p))


@lru_cache(maxsize=128)
def _residues(p: int) -> np.ndarray:
    """Entry r, 0 <= r < p, says whether r is a nonzero square mod the odd prime p: the one table of
    quadratic residues, which legendre_symbol and the case table of E (_case_table) read."""
    residue = np.isin(np.arange(p), np.arange(1, p) ** 2 % p)
    residue.flags.writeable = False  # one cached table serves every caller
    return residue


def legendre_symbol(a: int, p: int) -> int:
    """(a | p) for an odd prime p, read off the table of squares mod p (_residues)."""
    a %= require_odd_prime(p)
    if a == 0:
        return 0
    return 1 if _residues(p)[a] else -1


@lru_cache(maxsize=128)
def _case_table(p: int) -> np.ndarray:
    """Which case of E(beta, p) applies, as a (2, p) table indexed by [p does not divide beta, N(beta) mod p]:
    0 if p | beta, 1 if p | N(beta), 2 if (-N(beta) | p) = 1, else 3.  Row 0 is all 0, since p | beta gives
    p | N(beta); row 1 reads the residue table (_residues) at -N(beta) mod p.  The one home of the four
    cases, which _epsilon_case and _epsilon_cases read."""
    table = np.zeros((2, p), np.intp)
    table[1] = np.where(_residues(p)[-np.arange(p) % p], 2, 3)
    table[1, 0] = 1
    table.flags.writeable = False  # one cached table serves every caller
    return table


def _epsilon_case(beta: LatticeVector, p: int) -> int:
    """Which case of E(beta, p) applies (_case_table)."""
    b0, b1, b2 = beta
    off = int(b0 % p != 0 or b1 % p != 0 or b2 % p != 0)
    return int(_case_table(p)[off, (b0 * b0 + b1 * b1 + b2 * b2) % p])


def _epsilon_values(p: int) -> tuple[Fraction, ...]:
    """E(beta, p) for each _epsilon_case."""
    return tuple(Fraction(num, p * p) for num in (p * p - 1, -1, p - 1, -p - 1))


def epsilon_factor(beta: Iterable[int], p: int) -> Fraction:
    """Four-case rational factor in the H_2 action, with denominator p^2.

    Cases in order: p | beta gives p^2 - 1; p | N(beta) (but not beta)
    gives -1; (-N(beta) | p) = 1 gives p - 1; otherwise -p - 1.
    """
    require_odd_prime(p)
    beta = tuple(beta)
    if beta == (0, 0, 0):
        raise ValueError("epsilon factor is undefined at beta = 0")
    return _epsilon_values(p)[_epsilon_case(beta, p)]


# -- coefficient fields ----------------------------------------------------

# Images of (b0, b1, b2) under conjugation by the units 1, i, j, k.
_SIGN_PATTERNS = ((1, 1, 1), *(flip for _, flip in UNIT_FLIPS.values()))


class _ArrayMap(Mapping):
    """A read-only map beta -> value held as (n, 3) keys and n rows: a field's entries (numerator rows,
    each decoded into a QComplex) and a float field (complex128 rows).  len reads the arrays; the first
    lookup or iteration builds an index from tuple keys to rows, and each lookup decodes its row, so no
    value is kept."""

    __slots__ = ("_keys", "_rows", "_decode", "_index")

    def __init__(self, keys: np.ndarray, rows: np.ndarray, decode: Callable[[np.ndarray], object] = complex):
        keys.flags.writeable = rows.flags.writeable = False
        self._keys, self._rows, self._decode, self._index = keys, rows, decode, None

    def _rows_by_key(self) -> dict:
        if self._index is None:
            self._index = dict(zip(map(tuple, self._keys.tolist()), range(len(self._rows))))
        return self._index

    def __getitem__(self, beta):
        return self._decode(self._rows[self._rows_by_key()[beta]])

    def __contains__(self, beta) -> bool:
        return beta in self._rows_by_key()

    def __iter__(self):
        return iter(self._rows_by_key())

    def __len__(self) -> int:
        return len(self._rows)


def _decoded(p: Optional[int], den: int, row: np.ndarray) -> QComplex:
    """The value of the numerator row (ra, rb, ia, ib) over den."""
    ra, rb, ia, ib = row.tolist()
    return QComplex(QuadExt(p, Fraction(ra, den), Fraction(rb, den)), QuadExt(p, Fraction(ia, den), Fraction(ib, den)))


class CoefficientField:
    """Finitely supported map V3(Z) -> C with exact Q(sqrt p) entries, held as integer arrays.

    Entries at beta = 0 are forbidden, zero values are dropped, and the
    lookup `at` follows the total-extension convention (0 off the
    support and off the lattice).  `p` is inferred from the entries, as the
    declared prime joined with the primes of their parts, and every entry not
    already over it is promoted to it; two primes, or one that is not odd,
    raise ValueError.

    A field is read-only arrays: `keys`, the (n, 3) support, and `nums`, the
    (n, 4) numerators (ra, rb, ia, ib) of each (ra + rb sqrt p) + (ia + ib sqrt p) i
    over `den`, the lcm of the reduced denominators (int64, or Python ints where
    they may not fit); `norms`, N(beta) per key; `key_peak` and `num_peak`,
    max|coordinate| and max|numerator|.  `entries` maps beta -> QComplex in
    support order, decoding each value when it is read.  The constructor takes a
    mapping of QComplex values apart once (delta, scale, + and - use it); the
    builders zero, ones_ball and random, the file parser and every library
    output write their numerator rows straight into _from_rows.
    """

    __slots__ = ("p", "den", "keys", "nums", "norms", "key_peak", "num_peak", "entries", "_floats")

    def __init__(self, p: Optional[int], entries: Mapping[LatticeVector, QComplex]):
        if p is None:
            for value in entries.values():
                p = _join_primes(_join_primes(p, value.re.p), value.im.p)
        p = p if p is None else require_odd_prime(p)
        keys, parts = [], []
        for beta, value in entries.items():
            beta = (int(beta[0]), int(beta[1]), int(beta[2]))
            if beta == (0, 0, 0):
                raise ValueError("coefficient fields store no entry at beta = 0")
            if value.re.p != p or value.im.p != p:
                value = value.with_prime(p)
            if value:
                keys.append(beta)
                parts += (value.re.a, value.re.b, value.im.a, value.im.b)
        self._set(p, *_over_lcm(keys, [x.as_integer_ratio() for x in parts]))

    def _set(self, p: Optional[int], den: int, keys: np.ndarray, nums: np.ndarray) -> None:
        key_peak = _peak(keys)
        wide = _exact(keys, 3 * key_peak ** 2)
        self.norms = (wide * wide).sum(axis=1)
        self.norms.flags.writeable = False
        self.p, self.den, self.keys, self.nums = p, den, keys, nums
        self.key_peak, self.num_peak = key_peak, _peak(nums)
        self.entries = _ArrayMap(keys, nums, partial(_decoded, p, den))
        self._floats = None

    @classmethod
    def _from_rows(cls, p: Optional[int], den: int, keys: np.ndarray, nums: np.ndarray) -> "CoefficientField":
        """The field of nonzero numerator rows over den, for library outputs and the builders: den is
        reduced by one gcd, and nothing is checked.  No rows give the zero field over p on shared empty
        arrays, without the array work (1.6 against 9 us in one process): every relation that holds
        returns one."""
        field = object.__new__(cls)
        if not len(nums):
            field.p, field.den, field.keys, field.nums, field.norms = p, 1, _NO_KEYS, _NO_NUMS, _NO_NORMS
            field.key_peak = field.num_peak = 0
            field.entries, field._floats = _ArrayMap(_NO_KEYS, _NO_NUMS), None
            return field
        g = math.gcd(den, *nums.ravel().tolist())
        field._set(p, den // g, keys, nums // g if g > 1 else nums)
        return field

    @classmethod
    def zero(cls, p: Optional[int] = None) -> "CoefficientField":
        return cls._from_rows(p if p is None else require_odd_prime(p), 1, _NO_KEYS, _NO_NUMS)

    @classmethod
    def delta(cls, beta: LatticeVector, value: Rational = 1, p: Optional[int] = None) -> "CoefficientField":
        return cls(p, {tuple(beta): QComplex.of(value, p=p)})

    @classmethod
    def ones_ball(cls, radius: int, p: Optional[int] = None) -> "CoefficientField":
        """A(beta) = 1 on every nonzero beta with N(beta) <= radius, keys in key order."""
        m = math.isqrt(radius)
        box = np.indices((2 * m + 1,) * 3, dtype=np.int64).reshape(3, -1).T - m  # b0, b1, b2 in key order
        norms = (box * box).sum(axis=1)
        keys = box[(norms > 0) & (norms <= radius)]
        nums = np.repeat(np.array([[1, 0, 0, 0]], np.int64), len(keys), axis=0)
        return cls._from_rows(p if p is None else require_odd_prime(p), 1, keys, nums)

    @classmethod
    def random(
        cls,
        rng: random.Random,
        *,
        p: Optional[int] = None,
        support: int = 8,
        coord_bound: int = 3,
        entry_bound: int = 10,
        sqrt_parts: bool = False,
    ) -> "CoefficientField":
        """Random sparse field with integer (or integer + integer*sqrt(p)) entries: per point, its three
        coordinates (drawn again at 0 or a point kept), then its value's parts (dropped when all are 0)."""
        if sqrt_parts and p is None:
            raise ValueError("sqrt parts require a prime context")
        if support > (2 * coord_bound + 1) ** 3 - 1 or (support > 0 and entry_bound < 1):
            raise ValueError(f"cannot draw {support} nonzero entries at distinct points with "
                             f"|b_i| <= {coord_bound} and entry_bound {entry_bound}")
        p, draw = (p if p is None else require_odd_prime(p)), partial(rng.randint, -entry_bound, entry_bound)
        rows: dict[LatticeVector, list] = {}
        while len(rows) < support:
            beta = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(3))
            if beta == (0, 0, 0) or beta in rows:
                continue
            row = [draw(), draw(), draw(), draw()] if sqrt_parts else [draw(), 0, draw(), 0]  # ra, rb, ia, ib
            if any(row):
                rows[beta] = row
        return cls._from_rows(p, 1, _support_array(list(rows)), _int_array(list(chain.from_iterable(rows.values())), 4))

    # -- lookup and linear structure ------------------------------------

    def symmetrized(self) -> "CoefficientField":
        """Average over the four coordinate sign patterns (+++), (--+), (-+-), (+--).

        Unit-rotation isometries force this Klein-group symmetry on
        genuine Fourier-coefficient data; the conjugation sums in the
        operators are independent of the orbit-representative choice
        (and the operators at different primes commute) exactly on this
        symmetric subspace.  Idempotent projection, exact arithmetic: each
        key times the four patterns with its row, the rows of equal keys
        summed (_merge) over 4 den, keys in key order, and the sums that
        cancel dropped.
        """
        keys = (self.keys[:, None, :] * np.array(_SIGN_PATTERNS, dtype=self.keys.dtype)).reshape(-1, 3)
        nums = _exact(self.nums, 4 * self.num_peak)
        keys, sums = _merge((keys, np.repeat(nums, 4, axis=0)))
        return _nonzero_field(self.p, 4 * self.den, keys, sums)

    def at(self, beta: Optional[Iterable[int]]) -> QComplex:
        """Total lookup: zero off the support, off the lattice, and at 0."""
        if beta is None:
            return QComplex.of(0, p=self.p)
        beta = tuple(beta)
        return self.entries.get(beta, QComplex.of(0, p=self.p))

    @property
    def support_radius(self) -> int:
        return int(self.norms.max()) if len(self.norms) else 0

    @property
    def is_zero(self) -> bool:
        return not len(self.nums)

    def with_prime(self, p: int) -> "CoefficientField":
        if self.p == p:
            return self
        if self.p is not None:
            raise ValueError(f"field over Q(sqrt {self.p}) cannot be promoted to Q(sqrt {p})")
        return CoefficientField._from_rows(require_odd_prime(p), self.den, self.keys, self.nums)  # same arrays

    def scale(self, factor) -> "CoefficientField":
        return CoefficientField(self.p, {b: v * factor for b, v in self.entries.items()})

    def __add__(self, other: "CoefficientField") -> "CoefficientField":
        p = _join_primes(self.p, other.p)
        out = dict(self.entries)
        for beta, value in other.entries.items():
            acc = out.get(beta)
            out[beta] = value if acc is None else acc + value
        return CoefficientField(p, {b: v for b, v in out.items() if v})

    def __eq__(self, other) -> bool:
        """Equal values at the same keys, in any order, compared on the arrays: den is canonical, so
        equal fields have equal den and equal rows key by key.  Fields over different primes are
        equal only when no value has a sqrt part, as QuadExt compares."""
        if not isinstance(other, CoefficientField):
            return NotImplemented
        if self.den != other.den or len(self.keys) != len(other.keys):
            return False
        mine, theirs = np.lexsort(self.keys.T), np.lexsort(other.keys.T)  # one order for equal key sets
        if not (np.array_equal(self.keys[mine], other.keys[theirs])
                and np.array_equal(self.nums[mine], other.nums[theirs])):
            return False
        return self.p == other.p or not self.nums[:, 1::2].any()

    def as_complex_dict(self) -> dict[LatticeVector, complex]:
        return dict(_float_field(self))

    def __repr__(self):
        return f"CoefficientField(p={self.p}, support={len(self.keys)}, radius={self.support_radius})"


# -- the operators -----------------------------------------------------------

class _HeckeWeights(NamedTuple):
    """The rational weights of H_2 and H_3, lifted into one scalar domain."""

    eps: tuple  # E(beta, p), indexed by _epsilon_case
    mid: tuple  # H_3 weight of A(beta), indexed by _epsilon_case (case 0 is 1_p(beta) = 1)
    inv_p: object  # 1/p


def _hecke_weights(p: int, lift: Callable) -> _HeckeWeights:
    """Every rational weight of H_2 and H_3 at p, lifted once by `lift`."""
    inv_p = Fraction(1, p)
    eps = _epsilon_values(p)
    mid = tuple(Fraction(case == 0) - (1 + inv_p) * e - Fraction(p * p + p + 1, p ** 3)
                for case, e in enumerate(eps))
    return _HeckeWeights(tuple(map(lift, eps)), tuple(map(lift, mid)), lift(inv_p))


@lru_cache(maxsize=128)
def _star_block(mats) -> tuple[np.ndarray, int]:
    """The S_i side by side as one (3, 3(p+1)) int64 block, and 3 max|C_i entry|.

    Columns 3i..3i+2 of the block are C_i itself: gamma^T C_i = (S_i gamma)^T,
    so one row gamma^T of the support times the block holds every S_i gamma.
    The second value bounds max|S_i gamma| / max|gamma| (it is at most 3p
    for norm-p representatives).
    """
    stack = np.array(mats, dtype=np.int64)
    block = stack.transpose(1, 0, 2).reshape(3, -1)
    block.flags.writeable = False  # one cached array serves every caller
    return block, 3 * int(np.abs(stack).max())


def _int_array(flat: list, width: int) -> np.ndarray:
    """The ints of `flat` as an (n, width) array: int64 when every one fits, else Python ints."""
    try:
        return np.fromiter(flat, np.int64, len(flat)).reshape(-1, width)
    except OverflowError:
        return np.array(flat, dtype=object).reshape(-1, width)


def _support_array(points: list) -> np.ndarray:
    """The points as an (n, 3) key array: int64 while every |coordinate| < 2^62 (_exact), else Python ints."""
    keys = _int_array(list(chain.from_iterable(points)), 3)
    return _exact(keys, 2 * _peak(keys))


def _over_lcm(points: list, ratios: list) -> tuple[int, np.ndarray, np.ndarray]:
    """(den, keys, nums) of points whose values are given as (n, d) pairs, d > 0, four per point in row
    order (ra, rb, ia, ib): den is the lcm of the reduced denominators, found by one gcd when a pair is
    not in lowest terms, and the numerators over it are int64 wherever they fit."""
    den = math.lcm(*{d for _, d in ratios})
    flat = [n * (den // d) for n, d in ratios]
    g = math.gcd(den, *flat)  # 1 when every pair is in lowest terms, or there is none
    if g > 1:
        den, flat = den // g, [n // g for n in flat]
    return den, _support_array(points), _int_array(flat, 4)


_NO_KEYS, _NO_NUMS, _NO_NORMS = np.empty((0, 3), np.int64), np.empty((0, 4), np.int64), np.empty(0, np.int64)
_NO_KEYS.flags.writeable = _NO_NUMS.flags.writeable = _NO_NORMS.flags.writeable = False  # every zero field shares them


def _peak(arr: np.ndarray) -> int:
    """max|entry| of an int64 or object array as a Python int, 0 when it is empty."""
    if not arr.size:
        return 0
    if arr.dtype == object:
        return int(np.abs(arr).max())
    return int(np.abs(arr).view(np.uint64).max())  # |x| read as uint64 is exact for every int64, -2^63 included


def _exact(arr: np.ndarray, bound: int) -> np.ndarray:
    """arr, or arr on Python ints when `bound` reaches 2^63: the one place that picks int64 or Python ints.

    `bound` is the caller's proven bound on every |int| it forms from arr.  An int64 key array also
    keeps every |coordinate| < 2^62, which _mod needs, so a caller that forms keys passes twice the
    largest |coordinate| it can form.
    """
    if arr.dtype == object or bound < 2 ** 63:
        return arr
    return arr.astype(object)


def _star_images(k: int, p: int, gammas: np.ndarray, mats, peak: int) -> tuple[np.ndarray, np.ndarray]:
    """(images, rows): every integral p^(k-2) S_i gamma of the rows of `gammas`, gamma-major and
    then star, and the row of gamma that each image comes from; `peak` bounds max|coordinate| of
    `gammas`.  These are the (beta, row) pairs that scatter T_k A from the support.

    (T_k A)(beta) = sum_i A(C_i beta / p^k), with C_1..C_{p+1} the conjugation matrices `mats`
    (conj_i(beta) = C_i beta).  Each C_i has C_i S_i = p^2 I with S_i = C_i^T, so
    C_i beta / p^k = gamma exactly when beta = p^(k-2) S_i gamma.  The terms that read A at
    gamma are therefore the pairs (gamma, i) with p^(k-2) S_i gamma integral, one term per pair:
    adding A(gamma) into the sum at that beta for each pair visits every term once, and no
    lookup misses.  N(beta) = p^(2k-2) N(gamma), so a caller that needs a ball of beta drops
    gamma first.

    Every S_i gamma comes from one integer product of the support with the star block, and
    divisibility by p^(2-k) is one array mask.  An image coordinate is at most
    peak 3 max|C_i entry| p^max(k-2, 0), so the product runs on Python ints when that could
    reach 2^62 (_exact) and is exact either way.
    """
    block, reach = _star_block(mats)
    gammas = _exact(gammas, 2 * peak * reach * p ** max(k - 2, 0))
    if gammas.dtype == object:
        block = block.astype(object)
    images = (gammas @ block).reshape(-1, 3)  # row g (p+1) + i is S_i gamma_g
    m = len(mats)
    if k < 2:
        quo, hit = _divided(images, p ** (2 - k))
        rows = hit.nonzero()[0]
        return quo.take(rows, axis=0), rows // m
    return (images * p ** (k - 2) if k > 2 else images), np.arange(len(images)) // m


def _mod(keys: np.ndarray, d: int) -> np.ndarray:
    """keys % d for a positive integer d, each in [0, d).

    numpy divides int64 by a scalar several times faster than it takes the
    remainder, so the remainder is keys - (keys // d) d.  The product lies in
    (keys - d, keys], which stays in int64 while |key| < 2^62 and d < 2^63: every
    int64 key array here keeps the first (_exact), and _divided the second.
    """
    return keys - keys // d * d


def _divided(keys: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys // d, the mask of the rows of the (n, 3) key array that the positive integer d divides)."""
    keys = _exact(keys, d)  # |key| < 2^62 and d < 2^63 keep every int formed in int64 (_mod)
    quo = keys // d
    rest = keys - quo * d  # _mod(keys, d): each in [0, d), so the OR of a row is 0 when all three are
    return quo, (rest[:, 0] | rest[:, 1] | rest[:, 2]) == 0


def _divisible(keys: np.ndarray, d: int) -> np.ndarray:
    """The mask of the rows of an (n, 3) key array that the positive integer d divides."""
    return _divided(keys, d)[1]


class _Pairs:
    """The (beta, row) pairs of T_2, T_1 and T_0 on an operator input's keys, and the _epsilon_case of
    each key, each made when it is first read: what _terms reads off its input.

    T_2's pairs are one star product (_star_images).  Since (T_k A)(beta) = (T_j A)(p^(j-k) beta),
    T_k's pairs are those of a T_j above it whose beta p^(j-k) divides, beta divided, in the same
    order: T_1's are read off T_2's, and T_0's off T_1's when those are made, else off T_2's.
    verify_hecke_relation builds one for A, so H_1, H_2 and H_3 share A's scatter.  `keys` goes onto
    Python ints when p^2 times `peak`, a bound on its largest |coordinate|, could leave int64 (_exact),
    since H_3 forms p^2 gamma.  The exact operators know the bound and pass it: a field keeps its
    key_peak, and the inner H_1's keys of a relation, S_i gamma / p, gamma / p and p gamma, stay within
    key_peak max(p, reach), reach the bound _star_block returns; only a float input's keys are scanned
    (_peak, 2-4 us on the 15-30 keys of an inner H_1).  The cases are one lookup per key in the case
    table of E at p (_epsilon_cases), made once and read by both H_2 and H_3.
    """

    __slots__ = ("p", "mats", "keys", "peak", "_made", "_cases")

    def __init__(self, p: int, keys: np.ndarray, mats=None, peak: Optional[int] = None):
        self.p = p
        self.mats = conjugation_matrices(p) if mats is None else mats
        self.peak = _peak(keys) if peak is None else peak
        self.keys = _exact(keys, 2 * self.peak * p * p)
        self._made = {}
        self._cases = None

    def pairs(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """T_k's pairs (betas, rows), k = 0, 1 or 2: each integral p^(k-2) S_i gamma, gamma the key of the row."""
        made = self._made
        if k not in made:
            if k == 2:
                made[2] = _star_images(2, self.p, self.keys, self.mats, self.peak)
            else:
                j = 1 if k == 0 and 1 in made else 2
                betas, rows = self.pairs(j)
                quo, hit = _divided(betas, self.p ** (j - k))
                made[k] = quo.compress(hit, axis=0), rows.compress(hit)
        return made[k]

    @property
    def cases(self) -> np.ndarray:
        if self._cases is None:
            self._cases = _epsilon_cases(self.keys, self.p)
        return self._cases


def _conj_sum_rows(k: int, p: int, keys: np.ndarray, rows: np.ndarray, mats,
                   peaks: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """T_k on an array field: (betas, sums), one beta per key with a support hit, in key order.

    `keys` is the (n, 3) support and `rows` its (n, m) integer values, numerators say.  The
    pairs are _star_images', whose docstring makes the scatter exact, and the rows of each
    beta are summed (_merge).  A beta gets at most one term per C_i, so each sum is at most
    max|row entry| len(mats) (_exact).  Sums that cancel to zero are kept.  `peaks` bounds
    (max|key coordinate|, max|row entry|), as a field keeps them (key_peak, num_peak), so
    neither array is scanned here.
    """
    if not len(keys):  # no support point: no image
        return keys, rows
    key_peak, row_peak = peaks
    images, src = _star_images(k, p, keys, mats, key_peak)
    return _merge((images, _exact(rows, row_peak * len(mats)).take(src, axis=0)))


# -- the integer domain of the exact operators ---------------------------------
#
# A field over Q(sqrt p) holds each entry as four ints, the re/im x
# rational/sqrt(p) parts, as numerators over its denominator D, the lcm of
# the reduced entry denominators (CoefficientField).  The exact operators read
# them as rows (ra, rb, ia, ib) over D p^3 (_rows), and their outputs come back
# as rows over D p^3 (or D p^4), with D reduced again by one gcd
# (CoefficientField._from_rows).  Divisibility invariant: every input numerator
# is a multiple of p^3.  A weight n/p^k (k <= 3) acts as "times n p^(3-k), then
# // p^3", exact on a multiple of p^k, and p^(-1/2) maps the row (ra, rb, ia, ib)
# to (rb, ra/p, ib, ia/p), exact on a multiple of p.  _terms weights only single
# input numerators: E, mid, 1/p, -1/p and p^(-1/2) act on input rows (H_3's T_1
# terms and the zero-case part of u are input rows too), and the p^(-1/2) after
# -1/p on a multiple of p^2.  An H_1 term is a multiple of p^2, which is why
# verify_hecke_relation applies the inner H_1 to p A: an integer multiple of an
# input is again an input, and every step is exact, so H(m A) = m H(A) term by
# term, and the outer H_1 reads multiples of p^3.
#
# Bound.  Let M be the largest |numerator| of the field over D, and |v| the
# largest |entry| of a row v.  p^(-1/2) never raises |.|, since (a, b) -> (b, a/p).
# A sum of weighted terms is at most the sum of its terms' |weight| |v|, and that
# bounds every partial sum, in any order.  No beta gets more than one term of a
# T_k per C_i, |E| < 1, and |mid| < 1 (2/p, 1/p, (2p+1)/p^2 and 1/p^2 in the four
# cases).  Term by term through the formulas, H_1 raises |.| by at most
# g1 = 2 + (p+1) = p + 3, H_2 by g2 = 1 + 2(p+1) = 2p + 3, and H_3 by
# g3 = 3 + 2(p+1) + (p+1)/p + (p+1)^2/p <= 3p + 9 (A(p^2 .), mid A, A(./p^2);
# T_0(1_p A) and (1_p - 1/p) T_2 A; (1/p) T_0 A; p^(-1) T_0(1_p T_2 A)); each
# term of u is one input entry, weighted.  H_3 adds (1_p - 1/p) T_2 A at beta as
# the terms of -(1/p) T_2 A and then, where p | beta, the terms of (T_2 A)(beta)
# one at a time, the same pairs in the same order: a partial sum of that group
# weighs each input entry it reads by -1/p, 1 - 1/p or 0, so it stays within
# p + 1 times the input's bound.  An operator reads numerators of at most M p^3
# times the integer it is weighted by, and the relation's residual over D p^4 is
# H_1(p H_1 A) - H_2((p+1) A) - H_3(p A) - (1 + 1/p + 1/p^2 + 1/p^3) p A, whose
# four parts meet in one merge: every partial sum there is at most the sum of the
# four parts' bounds, p g1^2, (p+1) g2, p g3 and 2p, times M p^3.  The inner H_1's
# terms enter the outer one unmerged, and g1 bounds the outer H_1 on the sum of
# their |v| as well.  So every entry and partial sum that apply_hecke or
# verify_hecke_relation forms, H_3's u and the inner H_1 included, is at most
#
#     B = M p^4 G(p),   G(p) = (p+3)^2 + 5p + 17 >= g1^2 + (1 + 1/p) g2 + g3 + 2.
#
# A weight multiplies an entry before its // p^3, and every weight numerator n of
# the operators has |n| < p^3, so such a product is at most B p^3; the relation's
# constant, n = (p^3 + p^2 + p + 1) p on an input row, stays within it too.  _rows
# keeps the rows on int64 while B p^3 = M p^7 G(p) < 2^63, and puts them on Python
# ints otherwise (_exact).  With M = 10, the fields that `hecke verify-relation`
# draws, that is int64 up to p = 97 and Python ints from p = 101.


@lru_cache(maxsize=128)
def _int_weights(p: int) -> _HeckeWeights:
    """Every rational weight of H_2 and H_3 at p as its numerator over p^3."""
    cube = p ** 3
    return _hecke_weights(p, lambda fr: fr.numerator * (cube // fr.denominator))


@lru_cache(maxsize=128)
def _weight_columns(weights: _HeckeWeights) -> tuple[np.ndarray, np.ndarray]:
    """The numerators of E and mid as (4, 1) columns, indexed by _epsilon_case: int64 while they fit (every
    |numerator| < p^3), else Python ints.  Keyed on the weights _int_weights returns, not on p, so each
    call of _terms reads the weights it is given."""
    columns = tuple(_int_array(list(table), 1) for table in (weights.eps, weights.mid))
    for column in columns:
        column.flags.writeable = False  # one cached array serves every caller
    return columns


_SQRT_SWAP = np.array([1, 0, 3, 2])  # (ra, rb, ia, ib) -> (rb, ra, ib, ia), the lanes of p^(-1/2) on a row
_SQRT_SWAP.flags.writeable = False


def _rows(A: CoefficientField, p: int) -> np.ndarray:
    """A's numerator rows over D p^3, the input of the exact operators at p: on int64 while B p^3, the
    bound of the integer-domain note on every int the operators form from them, stays below 2^63."""
    return _exact(A.nums, A.num_peak * p ** 7 * ((p + 3) ** 2 + 5 * p + 17)) * p ** 3


def _nonzero_field(p: int, den: int, keys: np.ndarray, sums: np.ndarray) -> CoefficientField:
    """The field of the rows of `sums` over den that are not zero, at their keys: each array goes back onto
    int64 where it fits, as a field holds it, when it was formed on Python ints.  A relation that holds
    cancels every sum, and one scan finds that: 2.7 us on 80 rows, against 6.2-6.5 by the row mask and
    two compresses (2-vCPU host)."""
    if not sums.any():
        return CoefficientField._from_rows(p, den, _NO_KEYS, _NO_NUMS)
    kept = (sums != 0).any(axis=1)
    keys, sums = keys.compress(kept, axis=0), sums.compress(kept, axis=0)
    if keys.dtype == object:
        keys = _support_array(keys.tolist())
    if sums.dtype == object:
        sums = _int_array(sums.ravel().tolist(), 4)
    return CoefficientField._from_rows(p, den, keys, sums)


# -- the float operators ----------------------------------------------------------
#
# A float field is an (n, 3) key array and a complex128 value array, and the float operators run
# the term builder of the exact ones on it (_terms): each term is one group of (key, value) rows,
# the groups in the module docstring's order, and one star product of the input gives every T_k
# (_Pairs); H_3 makes one more, on u.  Each merge of equal keys (_merge) adds in input order and
# returns the keys in key order, so the outputs equal those of the same terms added by one dict
# loop per term on complex doubles, each term of u scattered on its own and the output read in key
# order (tests/reference.py, apply_dict), keys and values (np.add.at starts each sum from +0.0, so
# only the sign of a zero part can differ).
#
# The operators are linear, so a commutator needs no merge of each outer operator on its
# own: verify_commutativity merges the term groups (_terms) of H_ell(p) on H_m(q) A and
# of H_m(q) on -H_ell(p) A once, which drops the merge of each outer operator, the two largest
# sorts of a commutator (on conj_sums fields, 300-600 keys each against about 66 for an inner
# one).  Negating an input negates every term exactly, so each key sums the H_ell(p) terms in
# input order and then the negated H_m(q) terms.  The inner operators stay apply_hecke_float calls: their
# outputs are merged, which keeps _commutator_rows' count of the outer operator's keys.

# The largest bound on the rows of the outer float scatters of a commutator
# (_commutator_rows: len(A)(p+1)(q+1), and more for H_3).  One [H_2(p), H_2(q)], the first call
# in a fresh process on CoefficientField.random(Random(0), support=n), takes about 0.14 s and 67 MB
# peak RSS at 1.2e5 (p = 97, q = 101, 12 entries), 0.3 s and 100 MB at 2.4e5 (24 entries), 0.85 s
# and 190 MB at 5.7e5 and 1.9 s and 345 MB at 1.1e6 (p = 211, q = 223).  [H_3, H_3] at (97, 101)
# counts 5 len(A)(p+1)(q+1) on keys that neither prime divides: 5 entries, 2.5e5 rows, take 0.1 s
# and 48 MB, 24 entries 0.44 s and 100 MB.  H_1 is cheaper, since T_1 keeps only the images that
# p divides (2-vCPU host).
MAX_SCATTER_ROWS = 250_000


class _FloatTables(NamedTuple):
    """The float weights of H_2 and H_3 at p as arrays, and the tables that index them."""

    eps: np.ndarray  # E(beta, p), indexed by _epsilon_case
    mid: np.ndarray  # H_3 weight of A(beta), indexed by _epsilon_case
    inv_p: float
    inv_sqrt_p: float


@lru_cache(maxsize=128)
def _float_tables(p: int) -> _FloatTables:
    weights = _hecke_weights(p, float)
    eps, mid = np.array(weights.eps), np.array(weights.mid)
    eps.flags.writeable = mid.flags.writeable = False  # one cached table serves every caller
    return _FloatTables(eps, mid, weights.inv_p, 1.0 / math.sqrt(p))


def _epsilon_cases(keys: np.ndarray, p: int) -> np.ndarray:
    """_epsilon_case of every row of an (n, 3) key array, by one lookup in the case table at p (_case_table).

    With r = keys mod p, n = |r|^2 is N(beta) mod p, and it is 0 exactly when p | beta, so min(n, 1)
    and n mod p index the table.  Keys on Python ints take the same lookup, as r goes onto int64.  The
    residue lookup with np.where and two masked writes took 10.4-10.8 us on the 8 keys of a field and
    13.4-14.3 us on 64; the one lookup takes 6.0-6.4 and 8.2-8.7 us (2-vCPU host, medians).
    """
    r = _mod(keys, p).astype(np.int64, copy=False)  # each in [0, p), so n < 3 p^2 fits
    n = (r * r).sum(axis=1)
    return _case_table(p)[np.minimum(n, 1), n % p]


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, new): an order of the rows of a nonempty int64 or object key array that puts
    equal keys next to each other, the rows of one key in increasing order, and the mask of
    the positions in that order that start a run of equal keys.

    While span^3 n fits in int64, with span = 2 max|b_i| + 1, each int64 key is packed into one
    int64, sum_i b_i span^(2-i), and that times n plus the row number is sorted once: np.sort is
    several times faster than np.argsort, and the row comes back as the remainder.  The b_i are
    balanced digits, each in (-span/2, span/2), so the packing is one-to-one and keeps the
    lexicographic order, and |packed| < span^3 / 2.  One scan of |keys| sets span, one integer
    matrix product packs and tags the rows, and one divmod splits them again: 10.7-12.4 us on the
    232-304 rows of a relation's merge, against 13.7-14.7 by min, max, a shift and three column
    products (2-vCPU host).  Past span^3 n, and on Python ints, the rows are sorted by np.lexsort
    on the three columns, which is stable and exact.
    """
    n = len(keys)
    new = np.empty(n, bool)
    new[0] = True
    if keys.dtype != object:
        span = 2 * int(np.abs(keys).max()) + 1
        if span ** 3 * n <= 2 ** 63:
            tagged = keys @ np.array([span * span * n, span * n, n])
            tagged += np.arange(n)
            tagged.sort()
            packed, order = np.divmod(tagged, n)
            np.not_equal(packed[1:], packed[:-1], out=new[1:])
            return order, new
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    ordered = keys.take(order, axis=0)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    return order, new


def _merge(*parts: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The (keys, values) parts concatenated, with the values (or value rows) of equal keys summed,
    keys in key order: lexicographic in (b0, b1, b2), as both sorts of _runs give it.

    A float sum adds its terms in input order, starting from +0.0 (np.add.at), so it equals a
    dict loop over the terms bit for bit but for the sign of a zero part.  An integer or object
    sum is exact in any order and takes np.add.reduceat: on the T_k rows of 48-88-entry fields it
    took 27-31 us per merge, against 38-42 us by np.add.at (2-vCPU host).
    """
    if len(parts) == 1:
        keys, vals = parts[0]
    else:
        keys = np.concatenate([k for k, _ in parts])
        vals = np.concatenate([v for _, v in parts])
    if not len(keys):
        return keys, vals
    order, new = _runs(keys)
    starts = new.nonzero()[0]
    vals = vals.take(order, axis=0)
    if vals.dtype.kind in "fc":
        sums = np.zeros((len(starts), *vals.shape[1:]), vals.dtype)
        np.add.at(sums, np.cumsum(new) - 1, vals)
    else:
        sums = np.add.reduceat(vals, starts)
    return keys.take(order.take(starts), axis=0), sums


def _terms(ell: int, pairs: _Pairs, vals: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """H_ell on the values `vals` at the keys of `pairs`, unmerged: the (keys, values) groups of the
    module docstring's arranged form, one group per term, in its order.

    The values are complex doubles, or (n, 4) integer numerator rows over D p^3 that keep the
    integer-domain note's divisibility invariant.  Only p^(-1/2) and the weights depend on the type:
    on doubles each is a product with a double; on rows p^(-1/2) maps (ra, rb, ia, ib) to
    (rb, ra/p, ib, ia/p), one take of the lanes and one // p, and a weight w is v n // p^3 with
    n = w p^3 read from _int_weights(p), both exact.  E and mid are read by each key's case (pairs.cases)
    from per-prime columns: the float tables (_float_tables) or the numerator columns that
    _weight_columns caches for the weights _int_weights returns.  Building the two numerator columns
    took 1.5 us per call on rows and reading them takes 0.2; the lane take 1.0 us on 64 rows against
    1.9-2.0 by a list index (2-vCPU host).  The star images, the T_1 and T_0 pairs and the shifts read
    only the keys.
    """
    if ell not in (1, 2, 3):
        raise ValueError(f"ell must be 1, 2, or 3, got {ell}")
    p, keys = pairs.p, pairs.keys
    if vals.dtype.kind == "c":
        t = _float_tables(p)
        s, eps, mid, inv_p = t.inv_sqrt_p, t.eps, t.mid, t.inv_p

        def inv_sqrt(v):
            return s * v

        def weigh(v, w):
            return w * v
    else:
        weights, cube = _int_weights(p), p ** 3
        eps, mid = _weight_columns(weights)
        inv_p = weights.inv_p

        def inv_sqrt(v):
            out = v.take(_SQRT_SWAP, axis=1)  # (a + b sqrt p) / sqrt p = b + (a/p) sqrt p
            out[:, 1::2] //= p
            return out

        def weigh(v, w):
            return v * w // cube

    if ell == 1:
        t1, r1 = pairs.pairs(1)
        quo, hit = _divided(keys, p)
        return [(t1, inv_sqrt(vals.take(r1, axis=0))), (quo.compress(hit, axis=0), vals.compress(hit, axis=0)),
                (keys * p, vals)]
    images, rows = pairs.pairs(2)
    if ell == 2:
        t0, r0 = pairs.pairs(0)
        scaled = inv_sqrt(vals)
        return [(images, scaled.take(rows, axis=0)), (t0, scaled.take(r0, axis=0)),
                (keys, weigh(vals, eps.take(pairs.cases, axis=0)))]
    t1, r1 = pairs.pairs(1)
    t0, r0 = pairs.pairs(0)
    quo, hit = _divided(keys, p * p)
    low = inv_sqrt(weigh(vals, -inv_p))
    moved, once = t1 * p, vals.take(r1, axis=0)  # (T_2 A)(p beta) is the T_1 sum at beta: its terms, one per pair
    zero = pairs.cases == 0
    u_keys = np.concatenate((keys.compress(zero, axis=0), moved))
    u_vals = np.concatenate((inv_sqrt(vals.compress(zero, axis=0)), weigh(once, inv_p)))
    u_images, u_rows = _star_images(0, p, u_keys, pairs.mats, pairs.peak * _star_block(pairs.mats)[1])
    return [(quo.compress(hit, axis=0), vals.compress(hit, axis=0)), (keys * (p * p), vals),
            (keys, weigh(vals, mid.take(pairs.cases, axis=0))), (images, low.take(rows, axis=0)),
            (t0, low.take(r0, axis=0)), (moved, inv_sqrt(once)), (u_images, u_vals.take(u_rows, axis=0))]


def apply_hecke(ell: int, p: int, A: CoefficientField, *, representatives=None) -> CoefficientField:
    """H_ell A in exact arithmetic.

    The support radius grows by a factor of at most p^2 (ell = 1, 2) or
    p^4 (ell = 3).  Fields over plain Q are promoted to Q(sqrt p); a
    field over a different sqrt-extension is rejected.  The orbit table
    is the canonical one unless an alternative representative set is
    supplied (the output is the same for any valid choice).

    The operator runs the float operators' term builder (_terms) on A's
    integer numerator rows over D p^3 (_rows, D its denominator), where
    p^(-1/2) and every weight divide exactly (see the integer-domain note).
    Its terms are summed in one merge, and the nonzero sums are the output's
    numerator rows, in key order.
    """
    A = A.with_prime(p)
    mats = conjugation_matrices(p) if representatives is None else tuple(map(conjugation_matrix, representatives))
    keys, sums = _merge(*_terms(ell, _Pairs(p, A.keys, mats, A.key_peak), _rows(A, p)))
    return _nonzero_field(p, A.den * p ** 3, keys, sums)


def _float_field(A: CoefficientField) -> _ArrayMap:
    """A's values as complex doubles on A's keys, each part as float(QuadExt) rounds it (_quad_float),
    converted once per field and kept on it."""
    if A._floats is None:
        p, den = A.p, A.den
        vals = [complex(_quad_float(ra, rb, den, p), _quad_float(ia, ib, den, p)) for ra, rb, ia, ib in A.nums.tolist()]
        A._floats = _ArrayMap(A.keys, np.array(vals, complex))
    return A._floats


def apply_hecke_float(ell: int, p: int, entries: Mapping[LatticeVector, complex]) -> Mapping[LatticeVector, complex]:
    """Floating-point twin of apply_hecke for cross-prime experiments.

    The nonzero outputs come back as a read-only mapping held as arrays, in
    key order; passing it to another call chains operators without building
    dicts.
    """
    require_odd_prime(p)
    if not (isinstance(entries, _ArrayMap) and entries._rows.dtype == complex):  # else one returned here
        entries = _ArrayMap(_support_array(list(entries)), np.fromiter(entries.values(), complex, len(entries)))
    keys, vals = _merge(*_terms(ell, _Pairs(p, entries._keys), entries._rows))
    keep = vals != 0
    return _ArrayMap(keys.compress(keep, axis=0), vals.compress(keep))


def hecke_relation_constant(p: int) -> Fraction:
    """1 + 1/p + 1/p^2 + 1/p^3, as one Fraction over p^3."""
    return Fraction(p ** 3 + p * p + p + 1, p ** 3)


def verify_hecke_relation(p: int, A: CoefficientField) -> CoefficientField:
    """Exact residual of H_1(H_1 A) - (1 + 1/p) H_2 A - H_3 A - (1+1/p+1/p^2+1/p^3) A.

    The returned field is identically zero precisely when the quadratic
    relation between the three operators holds on A; a structured
    nonzero residual is a reportable finding, not an error.

    The whole chain runs on A's numerator rows over D p^3 (_rows) through the
    operators' own term builder (_terms), and the three operators on A share
    one _Pairs, so A's support is scattered once.  The residual is formed over
    D p^4 as H_1(p H_1 A) - H_2((p+1) A) - H_3(p A) - (1 + 1/p + 1/p^2 + 1/p^3) p A:
    each operator reads its input already weighted, which is exact since every
    term is, and the terms of all four parts meet in one merge.  The inner H_1's
    terms go into the outer H_1 unmerged, since H_1 is linear; an H_1 term is a
    multiple of p^2, so the inner H_1 reads p A to give the outer one numerators
    that p^3 divides.
    """
    A = A.with_prime(p)
    rows = _rows(A, p)
    pairs = _Pairs(p, A.keys, peak=A.key_peak)
    inner = _terms(1, pairs, p * rows)
    inner_keys = np.concatenate([k for k, _ in inner])
    reach = _star_block(pairs.mats)[1]  # the inner keys are S_i gamma / p, gamma / p and p gamma
    outer_pairs = _Pairs(p, inner_keys, pairs.mats, A.key_peak * max(p, reach))
    outer = _terms(1, outer_pairs, np.concatenate([v for _, v in inner]))
    constant = hecke_relation_constant(p)
    m, q = -constant.numerator * p, constant.denominator  # its weight times p, as m/q
    keys, sums = _merge(*_terms(2, pairs, -(p + 1) * rows), *_terms(3, pairs, -p * rows), *outer,
                        (pairs.keys, m * rows // q))
    return _nonzero_field(p, A.den * p ** 4, keys, sums)


def _commutator_rows(p: int, q: int, ell: int, m: int, A: CoefficientField) -> tuple[int, str]:
    """A bound on the rows of the outer scatters of [H_ell(p), H_m(q)] A, and its formula.

    The outer operator reads about len(A)(q+1) keys (or (p+1)), and its T_2 or T_1
    pass scatters each to p+1 rows: len(A)(p+1)(q+1).  An H_3 at p adds its
    T_0 u pass, which scatters again every term of u = 1_p (p^(-1/2) A + p^(-1) T_2 A):
    the gammas that p divides and their p+1 images, and at most 2 of the p+1 images of any
    other gamma (the isotropic lines mod p in the plane orthogonal to it).  The
    inner operator at the other prime keeps whether p divides a key, so with n_p
    the entries of A that p divides, H_3 at p adds (p+1)(q+1)(2 len(A) + p n_p) rows.
    """
    n = len(A.keys)
    rows, formula = n * (p + 1) * (q + 1), "len(A)(p+1)(q+1)"
    for k, r, name in ((ell, p, "p"), (m, q, "q")):
        if k == 3:
            n_r = int(_divisible(A.keys, r).sum())
            rows += (p + 1) * (q + 1) * (2 * n + r * n_r)
            formula += f" + (p+1)(q+1)(2 len(A) + {name} n_{name}) with n_{name} = {n_r}"
    return rows, formula


def verify_commutativity(p: int, q: int, ell: int, m: int, A: CoefficientField) -> float:
    """Max-abs entry of [H_ell(p), H_m(q)] A evaluated in doubles.

    A bound on the rows of the outer scatters (_commutator_rows) is refused
    past MAX_SCATTER_ROWS before any operator work.  The inner operators are
    public apply_hecke_float calls, merged as usual; the outer terms of both
    orders, H_ell(p) on H_m(q) A and H_m(q) on -H_ell(p) A, meet in one merge,
    so each key is one sum over both orders, not the difference of two sums.
    """
    require_odd_prime(p, "p")
    require_odd_prime(q, "q")
    if p == q:
        raise ValueError("commutativity check needs distinct primes")
    rows, formula = _commutator_rows(p, q, ell, m, A)
    if rows > MAX_SCATTER_ROWS:
        raise ValueError(f"a commutator at p = {p} and q = {q} on {len(A.keys)} entries scatters up to "
                         f"{formula} = {rows} rows, past {MAX_SCATTER_ROWS}, the largest supported")
    entries = _float_field(A)
    a, b = apply_hecke_float(m, q, entries), apply_hecke_float(ell, p, entries)
    _, diff = _merge(*_terms(ell, _Pairs(p, a._keys), a._rows), *_terms(m, _Pairs(q, b._keys), -b._rows))
    return float(np.abs(diff).max()) if len(diff) else 0.0


# -- eigenvalue data ----------------------------------------------------------

@dataclass(frozen=True)
class EigenvalueTriple:
    """Normalized eigenvalues (lambda_1, lambda_2, lambda_3) at a prime p."""

    p: int
    lam1: float
    lam2: float
    lam3: float

    def relation_residual(self) -> float:
        """lambda_1^2 - (1+1/p) lambda_2 - lambda_3 - (1+1/p+1/p^2+1/p^3); zero for consistent data."""
        return (
            self.lam1 ** 2
            - (1 + 1 / self.p) * self.lam2
            - self.lam3
            - float(hecke_relation_constant(self.p))
        )

    @classmethod
    def from_lam12(cls, p: int, lam1: float, lam2: float) -> "EigenvalueTriple":
        """Complete (lam1, lam2) to a relation-consistent triple: lam3 is the residual at lam3 = 0."""
        return cls(p, lam1, lam2, cls(p, lam1, lam2, 0.0).relation_residual())


@dataclass(frozen=True)
class EigenResidualReport:
    safe_radius: Fraction
    points_checked: int
    residuals: Optional[tuple[float, float, float]]
    empty_safe_support: bool = False


def _in_ball(keys: np.ndarray, bound: int) -> np.ndarray:
    """The mask of the rows beta of an (n, 3) key array with N(beta) <= bound."""
    r = math.isqrt(bound)
    keys = _exact(keys, 3 * r * r)  # the norm of a key with every |coordinate| <= r
    small = (np.abs(keys) <= r).all(axis=1)
    c = keys.compress(small, axis=0)
    mask = small.copy()
    mask[small] = (c * c).sum(axis=1) <= bound
    return mask


def eigen_residual(A: CoefficientField, lam: EigenvalueTriple) -> EigenResidualReport:
    """Sup-norm of H_ell A - lambda_ell A over the truncation-safe ball N(beta) <= z0/p^4.

    Inside that ball every lattice point the operators consult lies
    within the declared support radius z0, so truncation cannot leak
    into the comparison.  Evaluated in doubles against the float
    eigenvalue triple; zero (to rounding) for eigenvector data.

    The float operators are applied in full by scattering from the
    support, and one norm mask on their output arrays reads the safe ball.
    A ball without lattice points (z0 < p^4, since N(beta) is an integer)
    returns at once, before any operator work.
    """
    p = lam.p
    radius = A.support_radius
    safe_radius = Fraction(radius, p ** 4)
    if A.is_zero:
        return EigenResidualReport(safe_radius, 0, (0.0, 0.0, 0.0))
    max_norm = radius // p ** 4
    if max_norm == 0:
        return EigenResidualReport(safe_radius, 0, None, empty_safe_support=True)
    entries = _float_field(A)
    near = _in_ball(entries._keys, max_norm)
    own = entries._keys.compress(near, axis=0), entries._rows.compress(near)
    residuals = []
    checked = 0
    for ell, lam_ell in zip((1, 2, 3), (lam.lam1, lam.lam2, lam.lam3)):
        h = apply_hecke_float(ell, p, entries)
        inside = _in_ball(h._keys, max_norm)
        points, diff = _merge((h._keys.compress(inside, axis=0), h._rows.compress(inside)),
                              (own[0], -(lam_ell * own[1])))
        checked = max(checked, len(points))
        residuals.append(max(map(abs, diff.tolist()), default=0.0))  # Python's abs, as the dict form took it
    if not checked:
        return EigenResidualReport(safe_radius, 0, None, empty_safe_support=True)
    return EigenResidualReport(safe_radius, checked, tuple(residuals))
