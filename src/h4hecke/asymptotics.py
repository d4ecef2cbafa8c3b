"""Explicit-constant recursion: from a self-improving inequality to polylog decay.

A compactly supported f : [1, oo) -> [0, 1] with f(1) = 1 that satisfies,
for every y >= A,

    f(y) <= A [ (log y)^A / y^Delta + f(y^(1+eps))
                + sum_m y^(-Delta a_m(y)) f(y^(1 - a_m(y)))
                + sum_n e^(-eps b_n(y)) y^(Delta b_n(y)) f(y^(1 + b_n(y))) ]

with 1 >= a_m(y) >= eps and b_n(y) >= eps (1 + log y)^eps, obeys a decay
bound f(y) <= C (1 + log y)^R / y^Delta with constants depending only on
(A, M, N, Delta, eps).  The pivotal integer is the smallest R >= A with

    2 A (log A)^(A - R) <= 1/4   and   2 A M (1 - eps/2)^R <= 1/4.

Functions are sampled on multiplicative grids y = exp(k h) with
log-linear interpolation, which turns the maps y -> y^(1+c) into shifts.
All logs are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


def r_conditions_hold(A: float, M: int, eps: float, R: int) -> bool:
    """R >= A and both damping inequalities 2 A (log A)^(A - R) <= 1/4, 2 A M (1 - eps/2)^R <= 1/4."""
    return (
        R >= A
        and 2 * A * math.log(A) ** (A - R) <= 0.25
        and 2 * A * M * (1 - eps / 2) ** R <= 0.25
    )


def compute_R(A: float, M: int, eps: float) -> int:
    """Smallest integer R >= ceil(A) with r_conditions_hold(A, M, eps, R).

    For A >= 10 both inequalities only get easier as R grows, so the
    predicate is monotone in R: the search doubles a step until the
    predicate holds and then bisects back, O(log R) evaluations.  When
    M > 0 and 1 - eps/2 rounds to 1.0 in floating point the second
    inequality never holds, and ValueError is raised.
    """
    if not 10 <= A < math.inf:
        raise ValueError("A must be a finite number of at least 10")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if M < 0:
        raise ValueError("M must be a non-negative integer")
    if M > 0 and 1 - eps / 2 == 1.0:
        raise ValueError(f"eps = {eps} is too small: 1 - eps/2 rounds to 1, so no R exists")
    lo = math.ceil(A)
    if r_conditions_hold(A, M, eps, lo):
        return lo
    # Invariant: the predicate fails at lo and holds at hi.
    step = 1
    hi = lo + step
    while not r_conditions_hold(A, M, eps, hi):
        lo = hi
        step *= 2
        hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if r_conditions_hold(A, M, eps, mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class SampledFunction:
    """f on a multiplicative grid, in [0, 1], f(1) = 1, zero beyond the grid."""

    grid: np.ndarray        # ascending y values, grid[0] == 1
    values: np.ndarray      # f(grid)
    support_bound: float    # f == 0 for y > support_bound

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise ValueError("grid and values must be matching 1-d arrays")
        if abs(grid[0] - 1.0) > 1e-12:
            raise ValueError("grid must start at y = 1")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if abs(values[0] - 1.0) > 1e-12:
            raise ValueError("f(1) must equal 1")
        if np.any(values < -1e-15) or np.any(values > 1 + 1e-12):
            raise ValueError("values must lie in [0, 1]")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", np.clip(values, 0.0, 1.0))

    @classmethod
    def from_callable(cls, f: Callable[[float], float], *, y_max: float, h: float = 0.05) -> "SampledFunction":
        n = math.ceil(math.log(y_max) / h)
        grid = np.exp(h * np.arange(n + 1))
        values = np.array([f(float(y)) for y in grid])
        return cls(grid=grid, values=values, support_bound=float(grid[-1]))

    @property
    def log_spacing(self) -> float:
        return float(np.max(np.diff(np.log(self.grid))))

    def value(self, y: float) -> float:
        """Log-linear interpolation; 0 beyond the support bound."""
        if y < 1:
            raise ValueError("domain is [1, oo)")
        if y > self.support_bound * (1 + 1e-12):
            return 0.0
        return float(np.interp(math.log(y), np.log(self.grid), self.values))


@dataclass(frozen=True)
class DecayParams:
    delta: float
    eps: float
    A: float
    a_funcs: tuple[Callable[[float], float], ...] = ()
    b_funcs: tuple[Callable[[float], float], ...] = ()

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("Delta must be positive")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        if self.A < 10:
            raise ValueError("A must be at least 10")

    @property
    def M(self) -> int:
        return len(self.a_funcs)

    @property
    def N(self) -> int:
        return len(self.b_funcs)

    def validate_envelopes(self, grid: Sequence[float]) -> None:
        """Check 1 >= a_m(y) >= eps and b_n(y) >= eps (1 + log y)^eps on the grid."""
        for y in grid:
            for m, a in enumerate(self.a_funcs):
                v = a(float(y))
                if not self.eps - 1e-12 <= v <= 1 + 1e-12:
                    raise ValueError(f"a_{m + 1}({y}) = {v} outside [eps, 1]")
            floor = self.eps * (1 + math.log(y)) ** self.eps
            for n, b in enumerate(self.b_funcs):
                v = b(float(y))
                if v < floor - 1e-12:
                    raise ValueError(f"b_{n + 1}({y}) = {v} below eps (1 + log y)^eps = {floor}")


@dataclass(frozen=True)
class HypothesisReport:
    passed: bool
    worst_margin: float
    worst_y: float
    points_checked: int


def check_recursive_hypothesis(f: SampledFunction, params: DecayParams) -> HypothesisReport:
    """Evaluate the self-improving inequality at every grid point y >= A.

    The right-hand side uses log-linear interpolation for the shifted
    arguments; the grid must be fine enough that the shortest shift
    y -> y^(1+eps) spans at least one grid cell at y = A.
    """
    if f.log_spacing > params.eps * math.log(params.A):
        raise ValueError(
            f"grid too sparse: spacing {f.log_spacing} exceeds eps*log(A) = {params.eps * math.log(params.A)}"
        )
    params.validate_envelopes([y for y in f.grid if y >= params.A])
    A, delta = params.A, params.delta
    worst_margin = math.inf
    worst_y = float(f.grid[0])
    checked = 0
    for y, fy in zip(f.grid, f.values):
        y = float(y)
        if y < A:
            continue
        checked += 1
        rhs = math.log(y) ** A / y ** delta + f.value(y ** (1 + params.eps))
        for a in params.a_funcs:
            av = a(y)
            rhs += y ** (-delta * av) * f.value(y ** (1 - av))
        for b in params.b_funcs:
            bv = b(y)
            rhs += math.exp(-params.eps * bv) * y ** (delta * bv) * f.value(y ** (1 + bv))
        rhs *= A
        margin = rhs - float(fy)
        if margin < worst_margin:
            worst_margin = margin
            worst_y = y
    if checked == 0:
        return HypothesisReport(passed=True, worst_margin=math.inf, worst_y=worst_y, points_checked=0)
    return HypothesisReport(passed=worst_margin >= -1e-12, worst_margin=worst_margin,
                            worst_y=worst_y, points_checked=checked)


@dataclass(frozen=True)
class ConclusionReport:
    holds: bool
    minimal_C: float
    worst_y: float


def check_decay_conclusion(f: SampledFunction, C: float, R: int, delta: float) -> ConclusionReport:
    """Check f(y) <= C (1 + log y)^R / y^delta on the grid; report the minimal C."""
    envelope = (1 + np.log(f.grid)) ** R / f.grid ** delta
    ratios = f.values / envelope
    idx = int(np.argmax(ratios))
    minimal_C = float(ratios[idx])
    return ConclusionReport(holds=bool(np.all(f.values <= C * envelope * (1 + 1e-12))),
                            minimal_C=minimal_C, worst_y=float(f.grid[idx]))


def half_sup_witness(f: SampledFunction, delta: float, r: float) -> float:
    """Grid point z_r maximizing g(y)/(1 + log y)^r for g(y) = y^delta f(y).

    The grid maximum realizes the full grid supremum, so z_r witnesses
    at least half of it; g(y) <= ((1+log y)/(1+log z_r))^r g(z_r) then
    holds on the grid with constant 1.
    """
    g = f.grid ** delta * f.values
    ratios = g / (1 + np.log(f.grid)) ** r
    return float(f.grid[int(np.argmax(ratios))])


# -- synthetic test functions --------------------------------------------------

def power_law_function(delta: float, *, log_power: float = 0.0, scale: float = 1.0,
                       y_max: float, h: float = 0.05) -> SampledFunction:
    """f(y) = min(1, scale * y^-delta * (1 + log y)^log_power), truncated at y_max.

    For scale >= 1 these satisfy the recursive hypothesis with plenty of
    room (the inhomogeneous term alone dominates for y >= A >= 10), so
    they exercise the hypothesis -> conclusion pipeline end to end.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1 so that f(1) = 1")

    def f(y: float) -> float:
        return min(1.0, scale * y ** (-delta) * (1 + math.log(y)) ** log_power)

    return SampledFunction.from_callable(f, y_max=y_max, h=h)
