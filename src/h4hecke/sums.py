"""Lattice sums over coefficient fields and the amplification bookkeeping.

The basic objects are

    S_d(z)        = sum of |A(beta)|^2 over nonzero beta with N(beta) <= z
                    and d | beta,
    R^{p,l}_d(z)  = (1/p) sum over the same range of
                    | sum_i A(alpha_i' beta bar(alpha_i) / p^l) |^2,

computed exactly (thresholds z are rationals compared against the
integer N(beta), values live in Q or Q(sqrt q)).  On top of these the
module provides the multiplicity classes M_l(K) over a prime window,
the sharp/flat splits, amplified sums weighted by eigenvalue tables,
the closed-form parameter selections (eigenvalue power sums, K cutoffs),
the dyadic prime partition, an exact index-shift identity for R, and
two-sided empirical reports for the comparison inequalities the decay
argument chains together.

Every exact sum (S_d, R, the L6.4 double sum, the sharp/flat split and
the amplified sum) runs on the integer arrays that a field is
(hecke.CoefficientField): an (n, 3) key array, an (n, 4) array of
integer numerators (ra, rb, ia, ib) over one per-field denominator D,
and the norms of its keys.  Each condition on beta (the ball, d | beta,
p not dividing beta, membership in M_l(K)) is one mask, _square_sum
takes every |v|^2 as one vector expression on the numerator columns,
and only a total becomes an element of Q(sqrt p) over D^2, p
the field's own prime (or its float).  The arrays are int64 only while a
bound proves that no sum or product can leave it, and Python ints in
object arrays otherwise, as hecke._exact decides for both modules.  The inner sums sum_i A(conj_i(beta) / p^l) of
R and L6.4 are the map T_l of the Hecke operators, scattered from the
support by hecke._conj_sum_rows (the star images of hecke._star_images,
one integer matrix product, with the numerators of equal betas summed).
_conj_ball holds their one condition N(beta) <= z: since
N(beta) = p^(2l-2) N(gamma) for the beta a support point gamma reaches,
it drops every gamma with p^(2l) N(gamma) > z p^2 first (and at l = 0
every gamma whose norm p^2 does not divide, which reaches no beta).  A field
keeps bounds on its largest coordinate and numerator with its arrays,
so the int64 guards scan no array per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .hecke import (
    CoefficientField,
    EigenvalueTriple,
    QuadExt,
    _conj_sum_rows,
    _divisible,
    _exact,
    _quad_float,
    hecke_relation_constant,
)
from .quaternions import MAX_PRIME, LatticeVector, conjugation_matrices, odd_primes_in, require_odd_prime


# The largest exponent k or ell that the reports, sum_R and eigen_power_sum take.
# eigen_power_sum adds about ell^2/4 terms: 0.034 s at ell = 1,000, 0.14 s at 2,000,
# 0.32 s at 3,000 and 4.6 s at 10,000 (2-vCPU host), and L6.5 takes one per window
# prime.  Past ell = 646 a |lambda| >= 3 already leaves the double range.
MAX_EXPONENT = 1000


def _require_exponent(name: str, value: int) -> int:
    """value when it is an exponent in [0, MAX_EXPONENT]; a ValueError naming it otherwise."""
    if not 0 <= value <= MAX_EXPONENT:
        raise ValueError(f"{name} = {value} is outside [0, MAX_EXPONENT = {MAX_EXPONENT}]")
    return value


def _square_sum(nums: np.ndarray, q: Optional[int], peak: int, total: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with |v|^2 = a + b sqrt(q) for each numerator row v, both over the squared
    denominator; with `total`, (a, b) of the sum of |v|^2 over the rows, as two scalars.

    |(ra + rb sqrt q) + (ia + ib sqrt q) i|^2
        = (ra^2 + q rb^2 + ia^2 + q ib^2) + 2 (ra rb + ia ib) sqrt(q).

    With M = `peak`, a bound on max|numerator|, each |a| <= (2 + 2q) M^2
    and each |b| <= 4 M^2, so the n rows are squared in int64 only while
    n (4 + 2q) M^2 < 2^63, which also keeps every column sum and both totals in int64;
    otherwise on Python ints (_exact).
    """
    q = q or 0  # plain Q: every sqrt part is zero
    nums = _exact(nums, len(nums) * (4 + 2 * q) * peak ** 2)
    squares, cross = nums * nums, nums[:, 0::2] * nums[:, 1::2]  # ra^2 rb^2 ia^2 ib^2, and ra rb, ia ib
    if total:
        squares, cross = squares.sum(axis=0), cross.sum(axis=0)
    return (squares[..., 0] + squares[..., 2] + q * (squares[..., 1] + squares[..., 3]),
            2 * (cross[..., 0] + cross[..., 1]))


def _mass(q: Optional[int], nums: np.ndarray, den: int, peak: int) -> QuadExt:
    """sum |v|^2 over the numerator rows v, as the exact element of Q(sqrt q) over den; `peak`
    bounds max|numerator|."""
    if not len(nums):
        return QuadExt(q, Fraction(0), Fraction(0))
    a, b = _square_sum(nums, q, peak, total=True)
    return QuadExt(q, Fraction(int(a), den), Fraction(int(b), den))


def _conj_ball(A: CoefficientField, p: int, ell: int, z: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(betas, numerators, peak): sum_i v(conj_i(beta) / p^ell) at every beta with N(beta) <= z
    that the field reaches, and a bound on max|numerator| of those sums.

    N(gamma) p^(2 ell) <= z p^2 holds for an integer N(gamma) exactly when
    N(gamma) <= floor(z p^2 / p^(2 ell)), so no product of the norms is formed.  At
    ell = 0 a gamma reaches a beta only when p^2 divides some S_i gamma, whose norm is
    p^2 N(gamma); so p^2 | N(gamma), and the other gamma are dropped before the scatter.
    """
    mats = conjugation_matrices(p)
    keys, nums = A.keys, A.nums
    near = A.norms <= z * p * p // p ** (2 * ell)  # exact against any Python int
    if ell == 0:
        near &= A.norms % (p * p) == 0
    if not near.all():
        keys, nums = keys.compress(near, axis=0), nums.compress(near, axis=0)
    betas, sums = _conj_sum_rows(ell, p, keys, nums, mats, (A.key_peak, A.num_peak))
    return betas, sums, A.num_peak * len(mats)  # each sum adds at most one numerator per C_i


def sum_S_d(A: CoefficientField, d: int, z) -> QuadExt:
    """S_d(z): the squared-coefficient mass on multiples of d up to norm z."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    z = math.floor(Fraction(z))  # N(beta) is an integer
    kept = A.norms <= z
    if d > 1:
        kept &= _divisible(A.keys, d)
    return _mass(A.p, A.nums.compress(kept, axis=0), A.den ** 2, A.num_peak)


def sum_R(A: CoefficientField, p: int, ell: int, d: int, z) -> QuadExt:
    """R^{p,ell}_d(z), computed over the finitely many beta that can contribute."""
    _require_exponent("ell", ell)
    if d < 1:
        raise ValueError("need d >= 1")
    betas, inners, peak = _conj_ball(A, p, ell, math.floor(Fraction(z)))
    if d > 1:
        inners = inners.compress(_divisible(betas, d), axis=0)
    return _mass(A.p, inners, p * A.den ** 2, peak)


class ShiftIdentityError(AssertionError):
    def __init__(self, message, witness):
        super().__init__(f"{message}: {witness}")
        self.witness = witness


def verify_R_shift_identity(A: CoefficientField, p: int, ell: int, d: int, z) -> bool:
    """Exact check of R^{p,ell}_{d p^ell}(z) = R^{p,0}_d(z / p^{2 ell})."""
    z = Fraction(z)
    lhs = sum_R(A, p, ell, d * p ** ell, z)
    rhs = sum_R(A, p, 0, d, z / p ** (2 * ell))
    if lhs != rhs:
        raise ShiftIdentityError(
            "index-shift identity failed",
            {"p": p, "ell": ell, "d": d, "z": z, "lhs": lhs, "rhs": rhs},
        )
    return True


# -- prime windows and multiplicity classes ----------------------------------

@dataclass(frozen=True)
class PrimeWindow:
    """Odd primes, each in [P/2, P]."""

    P: float
    primes: tuple[int, ...]

    def __post_init__(self):
        for p in self.primes:
            require_odd_prime(p)
            if not (self.P / 2 - 1e-12 <= p <= self.P + 1e-12):
                raise ValueError(f"prime {p} outside window [{self.P / 2}, {self.P}]")

    @classmethod
    def from_bound(cls, P: float) -> "PrimeWindow":
        """Every odd prime in [P/2, P]: one at least for each P from 3 to MAX_PRIME (Bertrand's postulate)."""
        if not P <= MAX_PRIME:
            raise ValueError(f"window bound P = {P:g} is past {MAX_PRIME}, the largest supported prime")
        if not P >= 3:
            raise ValueError(f"window bound P = {P:g} is below 3: [P/2, P] holds no odd prime")
        return cls(P=float(P), primes=tuple(odd_primes_in(P / 2, P)))

    def __len__(self) -> int:
        return len(self.primes)


@dataclass(frozen=True)
class MultiplicitySpec:
    """beta belongs to M_ell(K) when at most K primes p in the window have p^ell | beta."""

    ell: int
    K: float
    window: PrimeWindow

    def __post_init__(self):
        if not self.K >= 0:  # NaN included
            raise ValueError(f"the cutoff K of M_ell(K) must be >= 0, got {self.K}")

    def count(self, beta: LatticeVector) -> int:
        return sum(1 for p in self.window.primes if not any(c % p ** self.ell for c in beta))

    def member(self, beta: LatticeVector) -> bool:
        return self.count(beta) <= self.K

    def hits(self, keys: np.ndarray) -> list[np.ndarray]:
        """For each prime p of the window in turn, the mask of the rows of an (n, 3) key array that p^ell divides."""
        return [_divisible(keys, p ** self.ell) for p in self.window.primes]

    def members(self, keys: np.ndarray, hits: Optional[list[np.ndarray]] = None) -> np.ndarray:
        """member of each row of an (n, 3) key array, as one mask; `hits` is self.hits(keys) when the caller has it."""
        count = np.zeros(len(keys), np.intp)
        for hit in self.hits(keys) if hits is None else hits:
            count += hit
        return count <= self.K


@dataclass(frozen=True)
class SharpFlatSplit:
    sharp: QuadExt
    flats: tuple[QuadExt, ...]
    total: QuadExt


def split_sharp_flat(A: CoefficientField, specs: Sequence[MultiplicitySpec], z) -> SharpFlatSplit:
    """S^sharp over the intersection of the M_ell(K_ell), and each S_ell^flat over its complement."""
    kept = A.norms <= math.floor(Fraction(z))
    keys, nums, den2 = A.keys.compress(kept, axis=0), A.nums.compress(kept, axis=0), A.den ** 2
    inside = [s.members(keys) for s in specs]
    sharp = np.logical_and.reduce(inside, axis=0) if inside else np.ones(len(keys), bool)
    peak = A.num_peak
    return SharpFlatSplit(sharp=_mass(A.p, nums.compress(sharp, axis=0), den2, peak),
                          flats=tuple(_mass(A.p, nums.compress(~m, axis=0), den2, peak) for m in inside),
                          total=_mass(A.p, nums, den2, peak))


# -- amplification -------------------------------------------------------------

def _require_window_rows(lam_table: Mapping[int, EigenvalueTriple], window: PrimeWindow) -> None:
    """A KeyError naming the primes of the window that the eigenvalue table lacks."""
    missing = [p for p in window.primes if p not in lam_table]
    if missing:
        raise KeyError(f"eigenvalue table missing primes {missing}")


def amplified_sum(
    A: CoefficientField,
    window: PrimeWindow,
    lam_table: Mapping[int, EigenvalueTriple],
    ell: int,
    specs: Sequence[MultiplicitySpec],
    z,
) -> float:
    """sum over beta in M(K) of |A(beta)|^2 * sum_{p in window, p not dividing beta} |lambda_ell(p)|^2.

    Each |A(beta)|^2 is the float of its exact value (hecke._quad_float on its numerators,
    which rounds as float(QuadExt) does), and the terms are added in support order, each
    weight in window order.
    """
    _require_window_rows(lam_table, window)
    kept = A.norms <= math.floor(Fraction(z))
    for s in specs:
        kept &= s.members(A.keys)
    keys, den2 = A.keys.compress(kept, axis=0), A.den ** 2
    weights = np.zeros(len(keys))
    for p in window.primes:
        weights += np.where(_divisible(keys, p), 0.0, getattr(lam_table[p], f"lam{ell}") ** 2)
    a, b = _square_sum(A.nums.compress(kept, axis=0), A.p, A.num_peak)
    total = 0.0
    for ai, bi, weight in zip(a.tolist(), b.tolist(), weights.tolist()):
        total += _quad_float(ai, bi, den2, A.p) * weight
    return total


def eigen_power_sum(lam: EigenvalueTriple, ell: int) -> float:
    """sum over a, b >= 0 with a + 2b <= ell of |lambda_1|^{2a} |lambda_2|^{2b}, for 0 <= ell <= MAX_EXPONENT."""
    _require_exponent("ell", ell)
    total = 0.0
    for b in range(ell // 2 + 1):
        for a in range(ell - 2 * b + 1):
            total += abs(lam.lam1) ** (2 * a) * abs(lam.lam2) ** (2 * b)
    return total


def choose_parameters(B: float, window: PrimeWindow, L: float, ell: int, nu: float) -> int:
    """Amplifier cutoff K_ell = ceil(e * B * L * |window| / (P/2)^{2 ell nu}) - 1.

    The variant without the L factor, which matches the small-eigenvalue
    branch of the decay argument, is the K of L = 1.
    """
    if B < 1:
        raise ValueError("B must be at least 1")
    if not 0 < nu < 1:
        raise ValueError("nu must lie in (0, 1)")
    return math.ceil(math.e * B * L * len(window) / (window.P / 2) ** (2 * ell * nu)) - 1


# -- dyadic prime partition -----------------------------------------------------

@dataclass(frozen=True)
class PrimePartition:
    y: float
    P: float
    J: int
    Q: tuple[int, ...]
    cells: dict[tuple[int, int, int], tuple[int, ...]]
    best: tuple[int, int, int]
    best_cell: tuple[int, ...]

    @property
    def best_is_nonzero(self) -> bool:
        return self.best != (0, 0, 0)


def _dyadic_bin(lam_sq: float, J: int) -> int:
    if lam_sq <= 1 / 100:
        return 0
    i = max(1, math.ceil(math.log2(lam_sq * 100)))
    while 2 ** (i - 1) / 100 >= lam_sq:  # guard float boundary
        i -= 1
    while 2 ** i / 100 < lam_sq:
        i += 1
    if i > J:
        raise ValueError(f"|lambda|^2 = {lam_sq} exceeds the dyadic range (J = {J})")
    return i


def partition_primes(lam_table: Mapping[int, EigenvalueTriple], y: float) -> PrimePartition:
    """Split the primes in [P/2, P], P = y^(1/8), into dyadic eigenvalue cells.

    Each prime lands in the cell (i, j, k) recording the dyadic sizes of
    |lambda_1|^2, |lambda_2|^2, |lambda_3|^2 (index 0 collects values
    <= 1/100).  Returns the largest cell, breaking ties toward the
    lexicographically smallest index; relation-consistent eigenvalue
    data never concentrates in cell (0, 0, 0).
    """
    if y < 1:
        raise ValueError("y must be >= 1")
    P = y ** 0.125
    top = max(lam_table, default=0)
    if P > 6 and P / 2 > top:  # by Bertrand's postulate the window then holds a prime the table lacks
        raise KeyError(f"eigenvalue table ends at {top}, below the prime window [{P / 2:.6g}, {P:.6g}]")
    Q = []
    for p in odd_primes_in(P / 2, P):  # the scan stops at the first prime the table lacks
        if p not in lam_table:
            raise KeyError(f"eigenvalue table missing the prime {p} of the window [{P / 2:.6g}, {P:.6g}]")
        Q.append(p)
    Q = tuple(Q)
    J = math.ceil(2 * math.log(y)) if y > 1 else 1
    cells: dict[tuple[int, int, int], list[int]] = {}
    for p in Q:
        lam = lam_table[p]
        key = tuple(_dyadic_bin(getattr(lam, f"lam{ell}") ** 2, J) for ell in (1, 2, 3))
        cells.setdefault(key, []).append(p)
    if cells:
        best = min(cells, key=lambda k: (-len(cells[k]), k))
        best_cell = tuple(cells[best])
    else:
        best = (0, 0, 0)
        best_cell = ()
    return PrimePartition(
        y=float(y),
        P=P,
        J=J,
        Q=Q,
        cells={k: tuple(v) for k, v in cells.items()},
        best=best,
        best_cell=best_cell,
    )


def lambda3_lower_bound_sq(p: int) -> Fraction:
    """Exact lower bound for |lambda_3|^2 when |lambda_1|^2, |lambda_2|^2 <= 1/100.

    From the quadratic relation, |lambda_3| >= (1 + 1/p + 1/p^2 + 1/p^3)
    - 1/100 - (1 + 1/p)/10; the square of that bound is returned as an
    exact rational.  The bound is 89/100 + 9/(10p) + 1/p^2 + 1/p^3 > 0.89, so
    its square exceeds 1/2 for every odd prime p.
    """
    bound = hecke_relation_constant(require_odd_prime(p)) - Fraction(1, 100) - (1 + Fraction(1, p)) * Fraction(1, 10)
    return bound * bound


# -- inequality reports ----------------------------------------------------------

@dataclass(frozen=True)
class SumReport:
    name: str
    left: float
    right: float
    ratio: Optional[float]
    params: dict
    vacuous: bool = False

    def asserted(self) -> "SumReport":
        if not self.vacuous and self.left > self.right * (1 + 1e-12):
            raise AssertionError(f"{self.name}: left {self.left} exceeds right {self.right}")
        return self


def _report(name: str, left: Callable[[], float], right: Callable[[], float], params: dict) -> SumReport:
    """The report of the two sides, each given as a function and evaluated in turn, left first: a side
    whose evaluation overflows, or that computes to inf or nan, raises one ValueError that names it."""
    sides = []
    for side, value in (("left", left), ("right", right)):
        try:
            value = value()
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{name}: the {side} side leaves the double range")
        sides.append(value)
    left, right = sides
    vacuous = right == 0
    ratio = None if vacuous else left / right
    return SumReport(name=name, left=left, right=right, ratio=ratio, params=params,
                     vacuous=vacuous and left == 0)


def _conj_square_sum(A: CoefficientField, window: PrimeWindow, K: float, ell: int, z) -> float:
    """sum_{beta in M_1(K), N <= z} sum_{p in window, p nmid beta} (1/p) |sum_i A(conj_i(beta)/p^ell)|^2.

    The double sum is exact, and only its value is rounded to a float (hecke._quad_float).
    """
    z = math.floor(Fraction(z))
    spec = MultiplicitySpec(1, K, window)
    common = math.prod(window.primes)  # the 1/p weights over one denominator
    a = b = 0
    for i, p in enumerate(window.primes):
        betas, inners, peak = _conj_ball(A, p, ell, z)
        hits = spec.hits(betas)  # hits[i] is the mask of p | beta
        kept = inners.compress(spec.members(betas, hits) & ~hits[i], axis=0)
        pa, pb = _square_sum(kept, A.p, peak, total=True)
        a += int(pa) * (common // p)
        b += int(pb) * (common // p)
    return _quad_float(a, b, common * A.den ** 2, A.p)


def inequality_report(which: str, **kw) -> SumReport:
    """Both sides of one of the chained comparison inequalities, without implied constants.

    Supported keys: Prop6.1, Cor6.2, L6.3i, L6.3ii, L6.3iii, L6.4a,
    L6.4b, L6.5.  Inputs arrive as keyword arguments (A, z, p, d, c, k,
    ell, window, K, lam, lam_table, const_A, const_B); reports are
    informational unless `.asserted()` is called with user-supplied
    constants.
    """
    A: CoefficientField = kw["A"]
    z = kw["z"]

    if which == "Prop6.1":
        p, k, c = require_odd_prime(kw["p"]), _require_exponent("k", kw["k"]), kw.get("c", 1)
        lam: EigenvalueTriple = kw["lam"]
        const_A = kw.get("const_A", 1.0)
        if c % p == 0:
            raise ValueError("c must be coprime to p")
        return _report(which, lambda: float(sum_S_d(A, c * p ** k, z)),
                       lambda: (const_A ** k * eigen_power_sum(lam, k)
                                * float(sum_S_d(A, c, Fraction(z) / p ** (2 * k)))),
                       {"p": p, "k": k, "c": c, "A": const_A})

    if which == "Cor6.2":
        d = kw["d"]
        lam_table = kw["lam_table"]
        const_A = kw.get("const_A", 1.0)
        if d % 2 == 0:
            raise ValueError("d must be odd")
        powers, top = [], max(lam_table, default=0)  # (v, lambda) for each p^v exactly dividing d
        rest, p = d, 3
        while rest > 1:  # trial division up to sqrt(rest) or past the table's largest prime
            if p * p > rest:
                p = rest  # no factor up to its square root: rest is prime
            elif p > top:
                raise KeyError(f"eigenvalue table ends at {top}, below every prime factor of {rest}, "
                               f"which divides d = {d}")
            v = 0
            while rest % p == 0:
                rest //= p
                v += 1
            if v:
                if p not in lam_table:
                    raise KeyError(f"eigenvalue table missing the prime {p} of d = {d}")
                powers.append((v, lam_table[p]))
            p += 2
        return _report(which, lambda: float(sum_S_d(A, d, z)),
                       lambda: (math.prod(const_A ** v * eigen_power_sum(lam, v) for v, lam in powers)
                                * float(sum_S_d(A, 1, Fraction(z) / (d * d)))),
                       {"d": d, "A": const_A})

    if which == "L6.3i":
        p, d = require_odd_prime(kw["p"]), kw["d"]
        lam: EigenvalueTriple = kw["lam"]
        zf = Fraction(z)
        return _report(which, lambda: float(sum_S_d(A, d * p, z)),
                       lambda: (lam.lam1 ** 2 * float(sum_S_d(A, d, zf / p ** 2))
                                + float(sum_S_d(A, d // math.gcd(d, p), zf / p ** 4))
                                + float(sum_R(A, p, 1, d, zf / p ** 2))),
                       {"p": p, "d": d})

    if which == "L6.3ii":
        p, d, ell = require_odd_prime(kw["p"]), kw["d"], _require_exponent("ell", kw["ell"])
        lam: EigenvalueTriple = kw["lam"]
        zf = Fraction(z)
        return _report(which, lambda: float(sum_R(A, p, ell, d * p ** ell, z)),
                       lambda: ((lam.lam2 ** 2 + 1) * float(sum_S_d(A, d, zf / p ** (2 * ell)))
                                + float(sum_R(A, p, 2, d, zf / p ** (2 * ell)))),
                       {"p": p, "d": d, "ell": ell})

    if which == "L6.3iii":
        p, c, k, ell = (require_odd_prime(kw["p"]), kw["c"], _require_exponent("k", kw["k"]),
                        _require_exponent("ell", kw["ell"]))
        if c % p == 0:
            raise ValueError("c must be coprime to p")
        zf = Fraction(z)
        return _report(which, lambda: float(sum_R(A, p, ell, c * p ** k, z)),
                       lambda: float(sum_S_d(A, c * p ** max(0, k - ell), zf / Fraction(p) ** (2 * (ell - 1)))),
                       {"p": p, "c": c, "k": k, "ell": ell})

    if which in ("L6.4a", "L6.4b"):
        window: PrimeWindow = kw["window"]
        K = kw["K"]
        ell = 1 if which == "L6.4a" else 2
        return _report(which, lambda: _conj_square_sum(A, window, K, ell, z),
                       lambda: (K * float(sum_S_d(A, 1, z)) if ell == 1 else
                                len(window) * float(sum_S_d(A, 1, Fraction(z) / Fraction(window.P / 2) ** 2))),
                       {"K": K, "window": window.primes})

    if which == "L6.5":
        window: PrimeWindow = kw["window"]
        K, ell = kw["K"], _require_exponent("ell", kw["ell"])
        lam_table = kw["lam_table"]
        _require_window_rows(lam_table, window)
        const_B = kw.get("const_B", 1.0)
        spec = MultiplicitySpec(ell, K, window)

        def right():
            sup_L = max(eigen_power_sum(lam_table[p], ell) for p in window.primes)
            half_P = Fraction(window.P) / 2
            return (const_B ** ell * len(window) * sup_L / (K + 1)) ** (K + 1) * float(
                sum_S_d(A, 1, Fraction(z) / half_P ** (2 * ell * (K + 1))))
        return _report(which, lambda: float(split_sharp_flat(A, [spec], z).flats[0]), right,
                       {"K": K, "ell": ell, "B": const_B, "window": window.primes})

    raise ValueError(f"unknown inequality {which!r}")
