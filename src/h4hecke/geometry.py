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
from dataclasses import FrozenInstanceError, dataclass
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
# product, and IsometryMatrix holds those tuples as they are: no Quaternion
# object is built on the way from a word to its matrix and its action.

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


class IsometryMatrix:
    """2x2 quaternion matrix [[a, b], [c, d]] with exact entries.

    Immutable, and held as the coordinate 4-tuples of its entries, which the
    matrix layer and the action compute on: the Quaternion entries are built
    only when read through .a-.d or entries().  Equality and hashing are those
    of the entries, so int and integral Fraction coordinates compare equal.
    """

    __slots__ = ("_coords",)

    def __init__(self, a: Quaternion, b: Quaternion, c: Quaternion, d: Quaternion):
        _set_coords(self, (a.coords(), b.coords(), c.coords(), d.coords()))

    @classmethod
    def _from_coords(cls, entries: tuple[tuple, tuple, tuple, tuple]) -> "IsometryMatrix":
        """The matrix held as `entries` itself, a tuple of four coordinate 4-tuples."""
        g = object.__new__(cls)
        _set_coords(g, entries)
        return g

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return IsometryMatrix, self.entries()

    a = property(lambda self: Quaternion(*self._coords[0]))
    b = property(lambda self: Quaternion(*self._coords[1]))
    c = property(lambda self: Quaternion(*self._coords[2]))
    d = property(lambda self: Quaternion(*self._coords[3]))

    def __matmul__(self, other: "IsometryMatrix") -> "IsometryMatrix":
        return IsometryMatrix._from_coords(_compose(self._coords, other._coords))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._coords == other._coords
        return NotImplemented

    def __hash__(self):
        return hash(self._coords)

    def __repr__(self) -> str:
        a, b, c, d = self.entries()
        return f"IsometryMatrix(a={a!r}, b={b!r}, c={c!r}, d={d!r})"

    def entries(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return tuple(Quaternion(*q) for q in self._coords)

    def coords(self) -> tuple[tuple, tuple, tuple, tuple]:
        """The four entries as coordinate 4-tuples."""
        return self._coords


_set_coords = IsometryMatrix._coords.__set__  # the slot's own setter, past the refusing __setattr__


def _pseudo_det(entries):
    """The real part of a d^* - b c^* on the coordinate tuples of [[a, b], [c, d]], in their own type."""
    a, b, c, d = entries
    val = _twisted(a, b, d, c)
    if val[1] != 0 or val[2] != 0 or val[3] != 0:
        raise ValueError(f"not a similitude: pseudo-determinant {Quaternion(*val)} is not a real scalar")
    return val[0]


def pseudo_det(g: IsometryMatrix) -> Fraction:
    """a d^* - b c^*, when it is a real scalar; otherwise the matrix is not a similitude."""
    return Fraction(_pseudo_det(g.coords()))


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


# axis -> the coordinate tuples of u and u' for diag(u, u'), from the units of UNIT_FLIPS
_ROTATION_UNITS = {name: (u.coords(), u.main().coords()) for name, (u, _) in UNIT_FLIPS.items()}
# (x1 negated, x2 negated) -> (token, flip) of the rotation whose flip does that: diag(u, u') on
# points is x_r -> flip[r] x_r with y kept
_ROTATION_TOKENS = {(flip[1] < 0, flip[2] < 0): ((f"rot_{name}",), flip) for name, (_, flip) in UNIT_FLIPS.items()}


def word_to_matrix(word: GeneratorWord) -> IsometryMatrix:
    """Product of token matrices, applied left-to-right as actions.

    Each token left-multiplies [[a, b], [c, d]] in closed form on coordinate
    tuples: the translation by t gives [[a + t c, b + t d], [c, d]], the
    inversion [[c, d], [-a, -b]] and diag(u, u') [[u a, u b], [u' c, u' d]].
    The entries equal the product of the ``translation``, ``inversion`` and
    ``rotation`` matrices by ``@``; one matrix is built, at the end, around
    the four tuples.
    """
    a, b, c, d = (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)
    for token in word:
        if token[0] == "translate":
            t = (int(token[1][0]), int(token[1][1]), int(token[1][2]), 0)
            a, b = _add(a, hamilton_product(t, c)), _add(b, hamilton_product(t, d))
        elif token[0] == "inversion":
            a, b, c, d = c, d, (-a[0], -a[1], -a[2], -a[3]), (-b[0], -b[1], -b[2], -b[3])
        else:
            u, u_main = _ROTATION_UNITS[token[0].removeprefix("rot_")]
            a, b = hamilton_product(u, a), hamilton_product(u, b)
            c, d = hamilton_product(u_main, c), hamilton_product(u_main, d)
    return IsometryMatrix._from_coords((a, b, c, d))


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
    entries = g._coords
    mu = _pseudo_det(entries)
    if not mu > 0:
        raise ValueError(f"action requires positive pseudo-determinant, got {Fraction(mu)}")
    z = as_point(z)
    y = z.y
    y2 = y * y
    v = (z.x0, z.x1, z.x2, 0.0)
    a, b, c, d = [(float(q[0]), float(q[1]), float(q[2]), float(q[3])) for q in entries]
    c0, c1, c2, c3 = c
    av = hamilton_product(a, v)
    cv = hamilton_product(c, v)
    P = (av[0] + b[0], av[1] + b[1], av[2] + b[2], av[3] + b[3])
    N0, N1, N2, N3 = cv[0] + d[0], cv[1] + d[1], cv[2] + d[2], cv[3] + d[3]
    D = N0 * N0 + N1 * N1 + N2 * N2 + N3 * N3 + y2 * (c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3)
    # mu > 0 rules out c = d = 0, so D vanishes only by underflow.
    if D < 1e-309:
        raise ArithmeticError("c z + d is numerically non-invertible")

    pn = hamilton_product(P, (N0, -N1, -N2, -N3))
    ac = hamilton_product(a, (c0, -c1, -c2, -c3))
    an = hamilton_product(a, (N0, N1, N2, -N3))
    pc = hamilton_product(P, (c0, c1, c2, -c3))
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


# -- regions and reduction ---------------------------------------------------

def _in_F(x0, x1, x2, y):
    """F's inequalities with boundary slack _TOL, on floats or elementwise on numpy arrays."""
    return (
        (-0.5 - _TOL <= x0) & (x0 <= 0.5 + _TOL)
        & (-_TOL <= x1) & (x1 <= 0.5 + _TOL)
        & (-_TOL <= x2) & (x2 <= 0.5 + _TOL)
        & (x0 * x0 + x1 * x1 + x2 * x2 + y * y >= 1.0 - _TOL)
    )


def is_in_region(z, region: str, T: float = 1.0) -> bool:
    """Membership in F, S_T, or the symmetric cusp box S~_T, with boundary slack _TOL."""
    z = as_point(z)
    if region == "F":
        return _in_F(z.x0, z.x1, z.x2, z.y)
    if region == "S_T":
        if T < 1:
            raise ValueError("cusp regions require T >= 1")
        return z.y >= T - _TOL and _in_F(z.x0, z.x1, z.x2, z.y)
    if region == "S~_T":
        if T < 1:
            raise ValueError("cusp regions require T >= 1")
        return (
            z.y >= T - _TOL
            and all(-0.5 - _TOL <= c <= 0.5 + _TOL for c in (z.x0, z.x1, z.x2))
        )
    raise ValueError(f"unknown region {region!r}")


class ReductionError(RuntimeError):
    """The reduction loop ran past its iteration cap."""


def reduce_to_fundamental_domain(z) -> tuple[GeneratorWord, PointH4]:
    """Reduce z into F, returning the generator word that carries z there.

    Repeats: integer-translate x into [-1/2, 1/2]^3; flip signs with the
    rotations diag(u, u') to force x1, x2 >= 0; invert when |z| < 1.
    Each inversion strictly increases y, so the loop terminates; the
    iteration cap guards the float boundary cases.  A point with an
    infinite or NaN coordinate raises ValueError.
    """
    x0, x1, x2, y = as_point(z).as_tuple()
    if not all(map(math.isfinite, (x0, x1, x2, y))):
        raise ValueError(f"cannot reduce a point with a non-finite coordinate: {(x0, x1, x2, y)}")
    word: list[Token] = []
    for _ in range(_MAX_ITER):
        shifts = (-math.floor(x0 + 0.5), -math.floor(x1 + 0.5), -math.floor(x2 + 0.5))
        if any(shifts):
            word.append(("translate", shifts))
            x0, x1, x2 = x0 + shifts[0], x1 + shifts[1], x2 + shifts[2]
        rot = _ROTATION_TOKENS.get((x1 < -_TOL, x2 < -_TOL))
        if rot is not None:
            token, (s0, s1, s2) = rot
            word.append(token)
            x0, x1, x2 = s0 * x0, s1 * x1, s2 * x2
        if x0 * x0 + x1 * x1 + x2 * x2 + y * y < 1.0 - _TOL:
            # Dividing twice by |z| keeps z/|z|^2 exact where |z|^2 underflows.
            r = math.hypot(x0, x1, x2, y)
            word.append(("inversion",))
            x0, x1, x2, y = -x0 / r / r, x1 / r / r, x2 / r / r, y / r / r
            if not all(map(math.isfinite, (x0, x1, x2, y))):
                raise ValueError(f"inversion at |z| = {r:g} overflows the float range")
            continue
        if _in_F(x0, x1, x2, y):
            return tuple(word), PointH4(x0, x1, x2, y)
    raise ReductionError(f"reduction did not converge after {_MAX_ITER} iterations")


# -- cusp decomposition -------------------------------------------------------

# The four copies of S_T that tile the cusp box, in the report's order: the identity and the
# rotations, each as (name, sign flip of its coordinates).  The rotations are involutions, so
# z lies in u.S_T exactly when its flip lies in S_T.
_CUSP_COPIES = (("identity", (1, 1, 1)), *((f"rot_{name}", flip) for name, (_, flip) in UNIT_FLIPS.items()))
# Samples per array pass of verify_cusp_decomposition: about 1 MB of working arrays, and
# faster than larger blocks (200,000 samples: 0.09 s in blocks of 4,096, 0.11 s of 65,536).
_CUSP_BLOCK = 4_096
# The largest sample count of verify_cusp_decomposition, whose time is linear in it: about
# 0.09 s per 200,000 samples and 0.5 s per million (2-vCPU host), so about 5 s at the ceiling.
MAX_CUSP_SAMPLES = 10 ** 7


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
        return (y >= T - _TOL) & _in_F(x0, x1, x2, y)


def verify_cusp_decomposition(T: float, sample_count: int, *, seed: int = 0) -> CuspDecompositionReport:
    """Sample the cusp box y >= T and check the four-fold tiling by copies of S_T.

    Each sampled z in S~_T must lie in exactly one of S_T, i.S_T, j.S_T,
    k.S_T; the four rotations are involutive actions, so membership is
    tested by flipping z back and asking for z' in S_T.  Samples within
    _TOL of a sign boundary are reported as ties, not failures.  Heights
    are drawn from [T, 4T], so 4T must be finite: past it every sample
    would sit at y = inf, outside the space.  A sample count past
    MAX_CUSP_SAMPLES is refused before any sampling.

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
    if sample_count > MAX_CUSP_SAMPLES:
        raise ValueError(f"sample count {sample_count} is past MAX_CUSP_SAMPLES = {MAX_CUSP_SAMPLES}, "
                         f"the largest supported")
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
