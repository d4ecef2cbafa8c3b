"""Isometries of hyperbolic 4-space via 2x2 quaternion matrices.

Points z = (x0, x1, x2, y), y > 0, live in upper half-space; a matrix
g = [[a, b], [c, d]] with quaternion entries and positive real
pseudo-determinant mu(g) = a d^* - b c^* acts by

    g . z = (a z + b)(c z + d)^{-1},

a product in the rank-3 Clifford algebra that act evaluates in closed
form on quaternions.  Matrices carry exact integer or rational entries;
points are floats.

The integral matrices with mu = 1 form a lattice; its fundamental
domain is Krieg's quarter box

    F = { -1/2 <= x0 <= 1/2,  0 <= x1, x2 <= 1/2,  |z| >= 1 },

and this module reduces arbitrary points into F by translations,
sign-flip rotations, and the inversion s: z -> -bar(z)/|z|^2, returning
the generator word alongside the reduced point.  The cusp region
|x_i| <= 1/2, y >= T decomposes into four rotated copies of its
intersection with F; verify_cusp_decomposition samples that tiling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .quaternions import UNIT_FLIPS, Quaternion, hamilton_product

Token = tuple
GeneratorWord = tuple[Token, ...]

# The boundary slack of reduction, cusp tiling and is_in_region, and the reduction's iteration cap.
_TOL = 1e-9
_MAX_ITER = 10_000

_Q_ZERO = Quaternion(0, 0, 0, 0)
_Q_ONE = Quaternion(1, 0, 0, 0)


@dataclass(frozen=True, slots=True)
class PointH4:
    x0: float
    x1: float
    x2: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError(f"point must have y > 0, got y = {self.y}")

    @property
    def norm_sq(self) -> float:
        return self.x0 * self.x0 + self.x1 * self.x1 + self.x2 * self.x2 + self.y * self.y

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x0, self.x1, self.x2, self.y)


def as_point(z) -> PointH4:
    if isinstance(z, PointH4):
        return z
    return PointH4(*map(float, z))


# The matrix layer composes on coordinate 4-tuples with the one Hamilton
# product and builds Quaternion objects only for the matrices it returns.

def _add(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3])


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2], p[3] - q[3])


def _star(p):
    """Reversal on a 4-tuple: fix i and j, negate k."""
    return (p[0], p[1], p[2], -p[3])


def _compose(g, h):
    """Product of two matrices given as 4-tuples of coordinate 4-tuples."""
    a1, b1, c1, d1 = g
    a2, b2, c2, d2 = h
    return (
        _add(hamilton_product(a1, a2), hamilton_product(b1, c2)),
        _add(hamilton_product(a1, b2), hamilton_product(b1, d2)),
        _add(hamilton_product(c1, a2), hamilton_product(d1, c2)),
        _add(hamilton_product(c1, b2), hamilton_product(d1, d2)),
    )


def _twisted(p, q, r, s):
    """p r^* - q s^*: the shape of the pseudo-determinant and of the g J g-dagger entries."""
    return _sub(hamilton_product(p, _star(r)), hamilton_product(q, _star(s)))


@dataclass(frozen=True)
class IsometryMatrix:
    """2x2 quaternion matrix [[a, b], [c, d]] with exact entries."""

    a: Quaternion
    b: Quaternion
    c: Quaternion
    d: Quaternion

    def __matmul__(self, other: "IsometryMatrix") -> "IsometryMatrix":
        return IsometryMatrix._from_coords(_compose(self.coords(), other.coords()))

    @classmethod
    def identity(cls) -> "IsometryMatrix":
        return cls(_Q_ONE, _Q_ZERO, _Q_ZERO, _Q_ONE)

    def entries(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return (self.a, self.b, self.c, self.d)

    def coords(self) -> tuple[tuple, tuple, tuple, tuple]:
        """The four entries as coordinate 4-tuples."""
        return (self.a.coords(), self.b.coords(), self.c.coords(), self.d.coords())

    @classmethod
    def _from_coords(cls, entries) -> "IsometryMatrix":
        return cls(*(Quaternion(*q) for q in entries))


def _pseudo_det(entries) -> Fraction:
    """pseudo_det on the coordinate tuples of [[a, b], [c, d]]."""
    a, b, c, d = entries
    val = _twisted(a, b, d, c)
    if val[1] != 0 or val[2] != 0 or val[3] != 0:
        raise ValueError(f"not a similitude: pseudo-determinant {Quaternion(*val)} is not a real scalar")
    return Fraction(val[0])


def pseudo_det(g: IsometryMatrix) -> Fraction:
    """a d^* - b c^*, when it is a real scalar; otherwise the matrix is not a similitude."""
    return _pseudo_det(g.coords())


def is_similitude(g: IsometryMatrix) -> bool:
    """Positive real pseudo-determinant and a b^*, d c^* without k-component."""
    entries = g.coords()
    try:
        mu = _pseudo_det(entries)
    except ValueError:
        return False
    a, b, c, d = entries
    return mu > 0 and hamilton_product(a, _star(b))[3] == 0 and hamilton_product(d, _star(c))[3] == 0


def is_integral_sv2(g: IsometryMatrix) -> bool:
    """Integral entries satisfying g J g-dagger = J with J = [[0,1],[-1,0]].

    The identity is checked entrywise in exact arithmetic; it encodes
    a b^*, c d^* in V3 together with pseudo-determinant 1.
    """
    if not all(q.is_integral for q in g.entries()):
        return False
    a, b, c, d = g.coords()
    # the entries of g J g-dagger: top left, bottom right, top right, bottom left
    return (
        _twisted(a, b, b, a) == (0, 0, 0, 0)
        and _twisted(c, d, d, c) == (0, 0, 0, 0)
        and _twisted(a, b, d, c) == (1, 0, 0, 0)
        and _twisted(c, d, b, a) == (-1, 0, 0, 0)
    )


# -- generators -------------------------------------------------------------

def translation(beta: Sequence[int]) -> IsometryMatrix:
    """t_beta = [[1, beta], [0, 1]]: z -> z + beta for beta in V3."""
    return IsometryMatrix(_Q_ONE, Quaternion(int(beta[0]), int(beta[1]), int(beta[2]), 0), _Q_ZERO, _Q_ONE)


def inversion() -> IsometryMatrix:
    """s = [[0, 1], [-1, 0]]: z -> -bar(z)/|z|^2."""
    return IsometryMatrix(_Q_ZERO, _Q_ONE, -_Q_ONE, _Q_ZERO)


def rotation(axis: str) -> IsometryMatrix:
    """diag(u, u') for u in {i, j, k}: the three sign-flip rotations."""
    u = UNIT_FLIPS[axis][0]
    return IsometryMatrix(u, _Q_ZERO, _Q_ZERO, u.main())


def _point_flip(flip):
    """diag(u, u') on points: x_r -> flip[r] x_r with y kept, for the flip of u in UNIT_FLIPS."""
    s0, s1, s2 = flip
    return lambda z: PointH4(s0 * z.x0, s1 * z.x1, s2 * z.x2, z.y)


# (token name, point map) of each rotation, keyed by whether its flip negates x1 and x2
_ROTATIONS = {(flip[1] < 0, flip[2] < 0): (f"rot_{name}", _point_flip(flip)) for name, (_, flip) in UNIT_FLIPS.items()}


def _token_matrix(token: Token) -> IsometryMatrix:
    """The generator matrix that a reduction token names."""
    if token[0] == "translate":
        return translation(token[1])
    if token[0] == "inversion":
        return inversion()
    return rotation(token[0].removeprefix("rot_"))


def word_to_matrix(word: GeneratorWord) -> IsometryMatrix:
    """Product of token matrices, applied left-to-right as actions."""
    if len(word) < 2:
        return _token_matrix(word[0]) if word else IsometryMatrix.identity()
    g = _token_matrix(word[0]).coords()
    for token in word[1:]:
        g = _compose(_token_matrix(token).coords(), g)
    return IsometryMatrix._from_coords(g)


# -- the action -------------------------------------------------------------

def act(g: IsometryMatrix, z) -> PointH4:
    """g . z = (a z + b)(c z + d)^{-1} for a matrix with mu(g) > 0, in closed form.

    With z = v + y e3, v = x0 + x1 i + x2 j, P = a v + b, N = c v + d and
    D = |N|^2 + y^2 |c|^2,

        g . z = (P bar(N) + y^2 a bar(c)) / D + (y w / D) e3,   w = a N^* - P c^*,

    where ^* negates k only and w is the real scalar mu(g).  A k-part in the
    first term or an i, j, k part in w means g is not a similitude, and
    raises AssertionError; a vanishing D raises ArithmeticError, and a result
    outside the double range raises ValueError.  Whether g
    is a similitude is not checked exactly here; callers taking matrices
    from outside the program test is_similitude first.
    """
    entries = g.coords()
    mu = _pseudo_det(entries)
    if not mu > 0:
        raise ValueError(f"action requires positive pseudo-determinant, got {mu}")
    z = as_point(z)
    y = z.y
    y2 = y * y
    v = (z.x0, z.x1, z.x2, 0.0)
    a, b, c, d = ((float(q[0]), float(q[1]), float(q[2]), float(q[3])) for q in entries)
    av = hamilton_product(a, v)
    cv = hamilton_product(c, v)
    P = (av[0] + b[0], av[1] + b[1], av[2] + b[2], av[3] + b[3])
    N = (cv[0] + d[0], cv[1] + d[1], cv[2] + d[2], cv[3] + d[3])
    D = N[0] * N[0] + N[1] * N[1] + N[2] * N[2] + N[3] * N[3] + y2 * (
        c[0] * c[0] + c[1] * c[1] + c[2] * c[2] + c[3] * c[3])
    # mu > 0 rules out c = d = 0, so D vanishes only by underflow.
    if D < 1e-309:
        raise ArithmeticError("c z + d is numerically non-invertible")

    pn = hamilton_product(P, (N[0], -N[1], -N[2], -N[3]))
    ac = hamilton_product(a, (c[0], -c[1], -c[2], -c[3]))
    an = hamilton_product(a, (N[0], N[1], N[2], -N[3]))
    pc = hamilton_product(P, (c[0], c[1], c[2], -c[3]))
    q = (pn[0] + y2 * ac[0], pn[1] + y2 * ac[1], pn[2] + y2 * ac[2], pn[3] + y2 * ac[3])
    w = (y * (an[0] - pc[0]), y * (an[1] - pc[1]), y * (an[2] - pc[2]), y * (an[3] - pc[3]))
    # Result must be a vector: q in V3 and w a positive real scalar.
    stray = math.hypot(q[3], w[1], w[2], w[3])
    if stray > 1e-6 * (D + math.hypot(*q, *w)):
        raise AssertionError(f"action left the upper half-space model (stray part {stray / D})")
    out = (q[0] / D, q[1] / D, q[2] / D, w[0] / D)
    if not (math.isfinite(out[0] + out[1] + out[2]) and 0 < out[3] < math.inf):
        raise ValueError(f"the action overflows the double range: g . z computes to {out}")
    return PointH4(*out)


def apply_word(word: GeneratorWord, z) -> PointH4:
    out = as_point(z)
    for token in word:
        out = act(_token_matrix(token), out)
    return out


def cosh_distance(z, w) -> float:
    """cosh of the hyperbolic distance: 1 + |z - w|^2 / (2 y_z y_w)."""
    z = as_point(z)
    w = as_point(w)
    diff = sum((zc - wc) ** 2 for zc, wc in zip(z.as_tuple(), w.as_tuple()))
    return 1.0 + diff / (2.0 * z.y * w.y)


# -- regions and reduction ---------------------------------------------------

def _in_F(x0, x1, x2, y, tol):
    """F's inequalities with boundary slack tol, on floats or elementwise on numpy arrays."""
    return (
        (-0.5 - tol <= x0) & (x0 <= 0.5 + tol)
        & (-tol <= x1) & (x1 <= 0.5 + tol)
        & (-tol <= x2) & (x2 <= 0.5 + tol)
        & (x0 * x0 + x1 * x1 + x2 * x2 + y * y >= 1.0 - tol)
    )


def is_in_region(z, region: str, T: float = 1.0, tol: float = _TOL) -> bool:
    """Membership in F, S_T, or the symmetric cusp box S~_T, with boundary slack."""
    z = as_point(z)
    if region == "F":
        return _in_F(z.x0, z.x1, z.x2, z.y, tol)
    if region == "S_T":
        if T < 1:
            raise ValueError("cusp regions require T >= 1")
        return z.y >= T - tol and _in_F(z.x0, z.x1, z.x2, z.y, tol)
    if region == "S~_T":
        if T < 1:
            raise ValueError("cusp regions require T >= 1")
        return (
            z.y >= T - tol
            and all(-0.5 - tol <= c <= 0.5 + tol for c in (z.x0, z.x1, z.x2))
        )
    raise ValueError(f"unknown region {region!r}")


class ReductionError(RuntimeError):
    def __init__(self, message: str, trace: list[PointH4]):
        super().__init__(message)
        self.trace = trace


def reduce_to_fundamental_domain(z) -> tuple[GeneratorWord, PointH4]:
    """Reduce z into F, returning the generator word that carries z there.

    Repeats: integer-translate x into [-1/2, 1/2]^3; flip signs with the
    rotations diag(u, u') to force x1, x2 >= 0; invert when |z| < 1.
    Each inversion strictly increases y, so the loop terminates; the
    iteration cap guards the float boundary cases.  A point with an
    infinite or NaN coordinate raises ValueError.
    """
    cur = as_point(z)
    if not all(map(math.isfinite, cur.as_tuple())):
        raise ValueError(f"cannot reduce a point with a non-finite coordinate: {cur.as_tuple()}")
    word: list[Token] = []
    trace = [cur]
    for _ in range(_MAX_ITER):
        shifts = tuple(-math.floor(c + 0.5) for c in (cur.x0, cur.x1, cur.x2))
        if any(shifts):
            word.append(("translate", shifts))
            cur = PointH4(cur.x0 + shifts[0], cur.x1 + shifts[1], cur.x2 + shifts[2], cur.y)
        rot = _ROTATIONS.get((cur.x1 < -_TOL, cur.x2 < -_TOL))
        if rot is not None:
            word.append((rot[0],))
            cur = rot[1](cur)
        if cur.norm_sq < 1.0 - _TOL:
            # Dividing twice by |z| keeps z/|z|^2 exact where |z|^2 underflows.
            r = math.hypot(cur.x0, cur.x1, cur.x2, cur.y)
            word.append(("inversion",))
            cur = PointH4(-cur.x0 / r / r, cur.x1 / r / r, cur.x2 / r / r, cur.y / r / r)
            if not all(map(math.isfinite, cur.as_tuple())):
                raise ValueError(f"inversion at |z| = {r:g} overflows the float range")
            trace.append(cur)
            continue
        if is_in_region(cur, "F"):
            return tuple(word), cur
        trace.append(cur)
    raise ReductionError(f"reduction did not converge after {_MAX_ITER} iterations", trace)


# -- cusp decomposition -------------------------------------------------------

# The four copies of S_T that tile the cusp box, in the report's order: the identity and the
# rotations, each as (name, sign flip of its coordinates).  The rotations are involutions, so
# z lies in u.S_T exactly when its flip lies in S_T.
_CUSP_COPIES = (("identity", (1, 1, 1)), *((f"rot_{name}", flip) for name, (_, flip) in UNIT_FLIPS.items()))
# Samples per array pass of verify_cusp_decomposition: about 1 MB of working arrays, and
# faster than larger blocks (200,000 samples: 0.09 s in blocks of 4,096, 0.11 s of 65,536).
_CUSP_BLOCK = 4_096


@dataclass(frozen=True)
class CuspDecompositionReport:
    T: float
    samples: int
    interior_checked: int
    boundary_ties: int
    matches_by_matrix: dict


def _cusp_hits(x: np.ndarray, T: float) -> np.ndarray:
    """(copies, n) membership of the points in the columns of x = (x0, x1, x2, y) in each copy of S_T."""
    signs = np.array([flip for _, flip in _CUSP_COPIES], dtype=float).T[:, :, None]
    x0, x1, x2 = signs * x[:3, None, :]
    y = x[3]
    with np.errstate(over="ignore"):  # |z|^2 reads inf past about 1e154, as float arithmetic has it
        return (y >= T - _TOL) & _in_F(x0, x1, x2, y, _TOL)


def verify_cusp_decomposition(T: float, sample_count: int, *, seed: int = 0) -> CuspDecompositionReport:
    """Sample the cusp box y >= T and check the four-fold tiling by copies of S_T.

    Each sampled z in S~_T must lie in exactly one of S_T, i.S_T, j.S_T,
    k.S_T; the four rotations are involutive actions, so membership is
    tested by flipping z back and asking for z' in S_T.  Samples within
    _TOL of a sign boundary are reported as ties, not failures.  Heights
    are drawn from [T, 4T], so 4T must be finite: past it every sample
    would sit at y = inf, outside the space.

    The samples are drawn as random.Random(seed).uniform would draw them,
    x0, x1, x2 and y for each in turn, and tested on arrays in blocks of
    _CUSP_BLOCK, so memory stays flat in sample_count.  The first interior
    sample not in exactly one copy raises AssertionError naming it and the
    copies it is in.
    """
    if not (T >= 1 and math.isfinite(4.0 * T)):
        raise ValueError(f"T must be >= 1 with 4T finite, got {T}")
    if sample_count < 0:
        raise ValueError(f"sample count must be at least 0, got {sample_count}")
    rng = random.Random(seed)
    # random.uniform(a, b) is a + (b - a) * random(), one random() per coordinate.
    low = np.array([-0.5, -0.5, -0.5, T])[:, None]
    width = np.array([1.0, 1.0, 1.0, 4.0 * T - T])[:, None]
    matches = np.zeros(len(_CUSP_COPIES), dtype=np.int64)
    ties = 0
    for start in range(0, sample_count, _CUSP_BLOCK):
        n = min(_CUSP_BLOCK, sample_count - start)
        u = np.fromiter(iter(rng.random, None), dtype=float, count=4 * n)  # 4n rng.random() calls, in order
        x = low + width * u.reshape(n, 4).T
        hits = _cusp_hits(x, T)
        near_boundary = np.minimum(np.abs(x[1]), np.abs(x[2])) <= _TOL
        bad = ~near_boundary & (hits.sum(axis=0) != 1)
        if bad.any():
            i = int(np.argmax(bad))
            z = PointH4(*(float(c) for c in x[:, i]))
            names = [name for (name, _), hit in zip(_CUSP_COPIES, hits[:, i]) if hit]
            raise AssertionError(f"sample {z} matched {names!r} instead of exactly one region")
        ties += int(near_boundary.sum())
        matches += hits[:, ~near_boundary].sum(axis=1)
    return CuspDecompositionReport(
        T=T,
        samples=sample_count,
        interior_checked=sample_count - ties,
        boundary_ties=ties,
        matches_by_matrix={name: int(c) for (name, _), c in zip(_CUSP_COPIES, matches)},
    )
