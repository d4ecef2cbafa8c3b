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
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def r_conditions_hold(A: float, M: int, eps: float, R: int) -> bool:
    """R >= A and both damping inequalities 2 A (log A)^(A - R) <= 1/4, 2 A M (1 - eps/2)^R <= 1/4.

    A - R is formed as (floor(A) - R) + (A - floor(A)), its integer part exact, so R is not
    rounded to a double past 2^53; for R < 2^53 this is the double A - R.
    """
    whole = math.floor(A)
    return (
        R >= A
        and 2 * A * math.log(A) ** ((whole - R) + (A - whole)) <= 0.25
        and 2 * A * M * (1 - eps / 2) ** R <= 0.25
    )


def compute_R(A: float, M: int, eps: float) -> int:
    """Smallest integer R >= ceil(A) with r_conditions_hold(A, M, eps, R).

    For A >= 10 both inequalities only get easier as R grows, so the
    predicate is monotone in R: the search doubles a step until the
    predicate holds and then bisects back, O(log R) evaluations.  When
    M > 0 and 1 - eps/2 rounds to 1.0 in floating point the second
    inequality never holds, and ValueError is raised; so it is when
    2 A max(M, 1) is not a finite double, where the predicate reads inf.
    """
    if not 10 <= A < math.inf:
        raise ValueError("A must be a finite number of at least 10")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if M < 0:
        raise ValueError("M must be a non-negative integer")
    big = sys.float_info.max  # A and M clamped to it, so each converts to a double
    if not 2.0 * min(A, big) * min(max(M, 1), big) < math.inf:
        raise ValueError("2 A max(M, 1) is past the double range, so no R can be found")
    if M > 0 and 1 - eps / 2 == 1.0:
        raise ValueError(f"eps = {eps} is too small: 1 - eps/2 rounds to 1, so no R exists")
    # Invariant: the predicate fails at lo and holds at hi.  It fails at ceil(A): there
    # 0 <= R - A < 1, so the first inequality reads at least 2 A / log A >= 8.6 > 1/4.
    lo = math.ceil(A)
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
    """f on a multiplicative grid, finite and in [0, 1], f(1) = 1, zero past the last grid point."""

    grid: np.ndarray        # ascending y values, grid[0] == 1
    values: np.ndarray      # f(grid)
    log_grid: np.ndarray = field(init=False, repr=False)  # log(grid), the one log every read shares

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise ValueError("grid and values must be matching 1-d arrays")
        if not (np.isfinite(grid).all() and np.isfinite(values).all()):
            raise ValueError("grid and values must be finite numbers")
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
        object.__setattr__(self, "log_grid", np.log(grid))

    @classmethod
    def from_callable(cls, f: Callable[[float], float], *, y_max: float, h: float = 0.05) -> "SampledFunction":
        n = math.ceil(math.log(y_max) / h)
        grid = np.exp(h * np.arange(n + 1))
        values = np.array([f(float(y)) for y in grid])
        return cls(grid=grid, values=values)

    def at_log(self, t: np.ndarray) -> np.ndarray:
        """f(exp(t)) by log-linear interpolation for t >= 0; 0 where exp(t) > grid[-1] (1 + 1e-12)."""
        inside = t <= self.log_grid[-1] + math.log1p(1e-12)
        return np.where(inside, np.interp(t, self.log_grid, self.values), 0.0)

    def value(self, y: float) -> float:
        """f(y), read as at_log reads it."""
        if y < 1:
            raise ValueError("domain is [1, oo)")
        return float(self.at_log(math.log(y)))


@dataclass(frozen=True)
class DecayParams:
    delta: float
    eps: float
    A: float
    a_funcs: tuple[Callable[[float], float], ...] = ()
    b_funcs: tuple[Callable[[float], float], ...] = ()

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ValueError("Delta must be a positive finite number")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        if not 10 <= self.A < math.inf:
            raise ValueError("A must be a finite number of at least 10")

    @property
    def M(self) -> int:
        return len(self.a_funcs)

    def envelopes(self, ys: np.ndarray, logy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """a_m(ys) and b_n(ys) as rows, each envelope called once per point; logy = log(ys).

        Raises at the first y, a before b, where 1 >= a_m(y) >= eps or
        oo > b_n(y) >= eps (1 + log y)^eps fails; NaN fails both.
        """
        raw = [[g(float(y)) for y in ys] for g in (*self.a_funcs, *self.b_funcs)]
        vals = np.array(raw, dtype=float).reshape(-1, len(ys))
        a, b = vals[:self.M], vals[self.M:]
        floor = self.eps * (1 + logy) ** self.eps
        good = np.concatenate([(self.eps - 1e-12 <= a) & (a <= 1 + 1e-12), (floor - 1e-12 <= b) & (b < math.inf)])
        if not good.all():
            i, k = divmod(int(np.argmin(good.T)), len(raw))
            y, v, n = ys[i], raw[k][i], k - self.M + 1
            if n < 1:
                raise ValueError(f"a_{k + 1}({y}) = {v} outside [eps, 1]")
            if not v < math.inf:
                raise ValueError(f"b_{n}({y}) = {v} is not a finite number")
            floor_y = self.eps * (1 + math.log(y)) ** self.eps
            raise ValueError(f"b_{n}({y}) = {v} below eps (1 + log y)^eps = {floor_y}")
        return a, b


@dataclass(frozen=True)
class HypothesisReport:
    passed: bool
    worst_margin: float
    worst_y: float
    points_checked: int


def check_recursive_hypothesis(f: SampledFunction, params: DecayParams) -> HypothesisReport:
    """Evaluate the self-improving inequality at every grid point y >= A, as arrays over the points.

    Each shift y -> y^c is the product c log y, read back by log-linear
    interpolation; the grid must be fine enough that the shortest shift
    y -> y^(1+eps) spans at least one grid cell at y = A.  A term whose
    f factor is 0 adds 0 even when its weight overflows, and a weight past
    the double range against f > 0 makes that point's right side +inf.
    """
    A, delta, eps = params.A, params.delta, params.eps
    spacing = float(np.diff(f.log_grid).max())
    if spacing > eps * math.log(A):
        raise ValueError(f"grid too sparse: spacing {spacing} exceeds eps*log(A) = {eps * math.log(A)}")
    at = f.grid >= A
    ys, logy = f.grid[at], f.log_grid[at]
    if not ys.size:
        return HypothesisReport(passed=True, worst_margin=math.inf, worst_y=float(f.grid[0]), points_checked=0)
    a_vals, b_vals = params.envelopes(ys, logy)
    with np.errstate(over="ignore"):
        rhs = logy ** A / ys ** delta + f.at_log((1 + eps) * logy)
        for av in a_vals:
            rhs += ys ** (-delta * av) * f.at_log((1 - av) * logy)
        for bv in b_vals:
            fb = f.at_log((1 + bv) * logy)
            # e^(-eps b) y^(Delta b) as one exp, so an underflowing factor never meets an overflowing one
            rhs += np.where(fb > 0, np.exp(bv * (delta * logy - eps)), 0.0) * fb
    margins = A * rhs - f.values[at]
    i = int(np.argmin(margins))
    return HypothesisReport(passed=bool(margins[i] >= -1e-12), worst_margin=float(margins[i]),
                            worst_y=float(ys[i]), points_checked=int(ys.size))


@dataclass(frozen=True)
class ConclusionReport:
    minimal_C: float
    worst_y: float


def check_decay_conclusion(f: SampledFunction, R: int, delta: float) -> ConclusionReport:
    """The least C with f(y) <= C (1 + log y)^R / y^delta on the grid, and the y that needs it.

    The ratio f y^delta / (1 + log y)^R is formed in log space, so it reads
    +inf where it is past the double range (where (1 + log y)^R and y^delta
    both overflow) and 0 where f is 0.
    """
    with np.errstate(over="ignore", divide="ignore"):
        ratios = np.exp(np.log(f.values) + delta * f.log_grid - R * np.log1p(f.log_grid))
    idx = int(np.argmax(ratios))
    return ConclusionReport(minimal_C=float(ratios[idx]), worst_y=float(f.grid[idx]))


def half_sup_witness(f: SampledFunction, delta: float, r: float) -> float:
    """Grid point z_r maximizing g(y)/(1 + log y)^r for g(y) = y^delta f(y).

    The grid maximum realizes the full grid supremum, so z_r witnesses
    at least half of it; g(y) <= ((1+log y)/(1+log z_r))^r g(z_r) then
    holds on the grid with constant 1.
    """
    g = f.grid ** delta * f.values
    ratios = g / (1 + f.log_grid) ** r
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
