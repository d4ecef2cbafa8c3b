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
intersection with F; verify_cusp_decomposition samples that tiling, in
blocks so that memory stays flat in the sample count, and refuses more
than MAX_CUSP_SAMPLES samples.  The rotations, the reduction's sign flips
and the tiling's copies all come from quaternions.UNIT_FLIPS.  No function
takes a tolerance: the boundary slack 1e-9 and the reduction's iteration
cap 10,000 are module constants.
"""

from __future__ import annotations

import functools
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


_new_point = object.__new__
_set_x0, _set_x1, _set_x2, _set_y = (PointH4.__dict__[name].__set__ for name in ("x0", "x1", "x2", "y"))


def _point(x0, x1, x2, y) -> PointH4:
    """PointH4(x0, x1, x2, y) without the y > 0 check, for callers that have proved 0 < y < inf."""
    z = _new_point(PointH4)
    _set_x0(z, x0)
    _set_x1(z, x1)
    _set_x2(z, x2)
    _set_y(z, y)
    return z


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
    A second slot, _floats, is None until act first accepts the matrix, and
    then holds what act reads of it (``_float_terms``): its 16 entries
    converted to floats, then the point-free sums |c|^2 and the four parts
    of a bar(c) on those floats.  Equality, hashing, pickling and the reprs
    ignore it.
    """

    __slots__ = ("_coords", "_floats")

    def __init__(self, a: Quaternion, b: Quaternion, c: Quaternion, d: Quaternion):
        _set_coords(self, (a.coords(), b.coords(), c.coords(), d.coords()))
        _set_floats(self, None)

    @classmethod
    def _from_coords(cls, entries: tuple[tuple, tuple, tuple, tuple]) -> "IsometryMatrix":
        """The matrix held as `entries` itself, a tuple of four coordinate 4-tuples."""
        g = object.__new__(cls)
        _set_coords(g, entries)
        _set_floats(g, None)
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


# the slots' own setters, past the refusing __setattr__
_set_coords = IsometryMatrix._coords.__set__
_set_floats = IsometryMatrix._floats.__set__


def _pseudo_det(entries):
    """The real part of a d^* - b c^* on the coordinate tuples of [[a, b], [c, d]], in their own type."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = entries
    # the i, j and k parts of a d^* - b c^*, with ^* negating k
    m1 = a0 * d1 + a1 * d0 - a2 * d3 - a3 * d2 - (b0 * c1 + b1 * c0 - b2 * c3 - b3 * c2)
    m2 = a0 * d2 + a1 * d3 + a2 * d0 + a3 * d1 - (b0 * c2 + b1 * c3 + b2 * c0 + b3 * c1)
    m3 = a1 * d2 - a0 * d3 - a2 * d1 + a3 * d0 - (b1 * c2 - b0 * c3 - b2 * c1 + b3 * c0)
    m0 = a0 * d0 - a1 * d1 - a2 * d2 + a3 * d3 - (b0 * c0 - b1 * c1 - b2 * c2 + b3 * c3)
    if m1 != 0 or m2 != 0 or m3 != 0:
        raise ValueError(f"not a similitude: pseudo-determinant {Quaternion(m0, m1, m2, m3)} is not a real scalar")
    return m0


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
    a, b, c, d = entries = g.coords()
    if not all(isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1) for q in entries for x in q):
        return False
    # the entries of g J g-dagger: top left, bottom right, top right, bottom left
    return (
        _twisted(a, b, b, a) == (0, 0, 0, 0)
        and _twisted(c, d, d, c) == (0, 0, 0, 0)
        and _twisted(a, b, d, c) == (1, 0, 0, 0)
        and _twisted(c, d, b, a) == (-1, 0, 0, 0)
    )


# -- generators -------------------------------------------------------------

_ZERO, _ONE = (0, 0, 0, 0), (1, 0, 0, 0)


def translation(beta: Sequence[int]) -> IsometryMatrix:
    """t_beta = [[1, beta], [0, 1]]: z -> z + beta for beta in V3."""
    return IsometryMatrix._from_coords((_ONE, (int(beta[0]), int(beta[1]), int(beta[2]), 0), _ZERO, _ONE))


def inversion() -> IsometryMatrix:
    """s = [[0, 1], [-1, 0]]: z -> -bar(z)/|z|^2."""
    return IsometryMatrix._from_coords((_ZERO, _ONE, (-1, 0, 0, 0), _ZERO))


def rotation(axis: str) -> IsometryMatrix:
    """diag(u, u') for u in {i, j, k}: the three sign-flip rotations."""
    a, b, c, d = UNIT_FLIPS[axis][0].coords()
    return IsometryMatrix._from_coords(((a, b, c, d), _ZERO, _ZERO, (a, -b, -c, d)))  # u' negates i and j


def _left_unit(u) -> tuple:
    """(perm, signs) of the unit u: hamilton_product(u, q)[r] = signs[r] * q[perm[r]]."""
    images = [hamilton_product(u.coords(), e) for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    perm = tuple(next(m for m in range(4) if images[m][r]) for r in range(4))
    return perm, tuple(images[perm[r]][r] for r in range(4))


# axis -> the signed coordinate permutations of u and u' for diag(u, u'), from the units of UNIT_FLIPS
_ROTATION_PERMS = {name: (_left_unit(u), _left_unit(u.main())) for name, (u, _) in UNIT_FLIPS.items()}
# (x1 negated, x2 negated) -> (token, flip) of the rotation whose flip does that: diag(u, u') on
# points is x_r -> flip[r] x_r with y kept
_ROTATION_TOKENS = {(flip[1] < 0, flip[2] < 0): ((f"rot_{name}",), flip) for name, (_, flip) in UNIT_FLIPS.items()}


# The most words word_to_matrix keeps.  8,000 points of acceptance 13's distribution (x in [-3, 3]^3,
# y in [0.05, 50]) reduce by about 1,140 distinct words, 200 of them by about 180; x in [-30, 30]^3
# gives about 7,950 of 8,000, and there the cache only adds its cost.  A word kept with its matrix
# and act's _float_terms takes about 1.4 KB (1,435 bytes by tracemalloc over 1,345 such words), so a
# full cache holds about 2.9 MB.
_WORD_CACHE_SIZE = 2048


def word_to_matrix(word: GeneratorWord) -> IsometryMatrix:
    """Product of token matrices, applied left-to-right as actions.

    Each token left-multiplies [[a, b], [c, d]] in closed form on coordinate
    tuples: the translation by t gives [[a + t c, b + t d], [c, d]], with t's
    k-part 0, the inversion [[c, d], [-a, -b]] and diag(u, u')
    [[u a, u b], [u' c, u' d]], where left multiplication by a unit is a
    signed permutation of the coordinates.  The entries equal the product
    of the ``translation``, ``inversion`` and ``rotation`` matrices by ``@``;
    one matrix is built per word around the four tuples.

    Points in a bounded region reduce by few distinct words, so a tuple word
    is memoized in a least-recently-used cache of _WORD_CACHE_SIZE words,
    and equal words return the same immutable matrix: every coordinate goes
    through int(), so equal words have equal entries.  Any other word, or a
    tuple holding a list, is computed each time.
    """
    if word.__class__ is tuple:
        try:
            return _cached_word_matrix(word)
        except TypeError:  # an unhashable token; a TypeError of the product itself recurs below
            pass
    return _word_matrix(word)


def _word_matrix(word) -> IsometryMatrix:
    """word_to_matrix without the cache."""
    a, b, c, d = (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)
    for token in word:
        kind = token[0]
        if kind == "translate":
            t = token[1]
            t0, t1, t2 = int(t[0]), int(t[1]), int(t[2])
            c0, c1, c2, c3 = c
            d0, d1, d2, d3 = d
            a = (a[0] + t0 * c0 - t1 * c1 - t2 * c2, a[1] + t0 * c1 + t1 * c0 + t2 * c3,
                 a[2] + t0 * c2 - t1 * c3 + t2 * c0, a[3] + t0 * c3 + t1 * c2 - t2 * c1)
            b = (b[0] + t0 * d0 - t1 * d1 - t2 * d2, b[1] + t0 * d1 + t1 * d0 + t2 * d3,
                 b[2] + t0 * d2 - t1 * d3 + t2 * d0, b[3] + t0 * d3 + t1 * d2 - t2 * d1)
        elif kind == "inversion":
            a, b, c, d = c, d, (-a[0], -a[1], -a[2], -a[3]), (-b[0], -b[1], -b[2], -b[3])
        else:
            ((p0, p1, p2, p3), (s0, s1, s2, s3)), ((q0, q1, q2, q3), (r0, r1, r2, r3)) = \
                _ROTATION_PERMS[kind.removeprefix("rot_")]
            a = (s0 * a[p0], s1 * a[p1], s2 * a[p2], s3 * a[p3])
            b = (s0 * b[p0], s1 * b[p1], s2 * b[p2], s3 * b[p3])
            c = (r0 * c[q0], r1 * c[q1], r2 * c[q2], r3 * c[q3])
            d = (r0 * d[q0], r1 * d[q1], r2 * d[q2], r3 * d[q3])
    return IsometryMatrix._from_coords((a, b, c, d))


_cached_word_matrix = functools.lru_cache(maxsize=_WORD_CACHE_SIZE)(_word_matrix)


# -- the action -------------------------------------------------------------

def act(g: IsometryMatrix, z) -> PointH4:
    """g . z = (a z + b)(c z + d)^{-1} for a matrix with mu(g) > 0, in closed form.

    With z = v + y e3, v = x0 + x1 i + x2 j, P = a v + b, N = c v + d and
    D = |N|^2 + y^2 |c|^2,

        g . z = (P bar(N) + y^2 a bar(c)) / D + (y w / D) e3,   w = a N^* - P c^*,

    where ^* negates k only and w is the real scalar mu(g).  The products
    are written out on scalars, in the order of the Hamilton product on the
    entries converted to floats and v = (x0, x1, x2, 0.0), less the products
    by v's zero k-part.  A k-part in the first term or an i, j, k part in w
    means g is not a similitude, and raises AssertionError; a vanishing D
    raises ArithmeticError, and a result outside the double range raises
    ValueError.  Those two refusals can come from y^2, D or a product of
    entries alone leaving the double range: then z is evaluated once more
    at z / 4^j with g diag(2^j, 2^-j) / 2^k, for |z| near 4^j and the
    largest entry of g near 2^k, which has the same image, and the first
    refusal stands if that fails too: so act maps (0, 0, 0, 1e308)
    by the identity, (0, 0, 0, 1e-200) by the inversion and (0, 0, 0, 0.5)
    by diag(10^200, 10^200).  mu(g) > 0 is checked exactly on the entries'
    coordinates, with a Fraction built only for the refusal's message.
    Whether g is a similitude is not checked exactly here; callers taking
    matrices from outside the program test is_similitude first.

    The first call that passes the mu check stores on g, in its _floats
    slot, the 16 entries as floats followed by the five sums that do not
    depend on z, |c|^2 and the four parts of a bar(c) (``_float_terms``),
    and later calls on g skip the check, the conversions and those sums; a
    refused matrix, or one with an entry past the double range, stores
    nothing and is refused again on every call.
    """
    entries = g._coords
    floats = g._floats
    if floats is None:
        mu = _pseudo_det(entries)
        if not mu > 0:
            raise ValueError(f"action requires positive pseudo-determinant, got {Fraction(mu)}")
    if z.__class__ is PointH4:
        x0, x1, x2, y = z.x0, z.x1, z.x2, z.y
    else:
        x0, x1, x2, y = as_point(z).as_tuple()
    try:
        if floats is None:
            floats = _float_terms(entries)
            _set_floats(g, floats)
        return _moebius(floats, x0, x1, x2, y)
    except OverflowError:  # an entry or coordinate past the double range
        raise
    except (ArithmeticError, ValueError):
        out = _rescaled(entries, x0, x1, x2, y)
        if out is None:
            raise
        return out


def _float_terms(entries):
    """The tuple _moebius reads of the coordinate tuples of [[a, b], [c, d]]: the 16 entries
    converted to floats, then |c|^2 and the four parts of a bar(c) on those floats.

    Those five sums do not depend on the point, so a matrix's tuple is formed
    once; each is bracketed as _moebius's D and q multiply it by y^2, so the
    image is the same bit for bit as when they were summed on every call.  An
    entry past the double range raises OverflowError.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = entries
    a0, a1, a2, a3, b0, b1, b2, b3 = (float(a0), float(a1), float(a2), float(a3),
                                      float(b0), float(b1), float(b2), float(b3))
    c0, c1, c2, c3, d0, d1, d2, d3 = (float(c0), float(c1), float(c2), float(c3),
                                      float(d0), float(d1), float(d2), float(d3))
    return (a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3,
            c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3,
            a0 * c0 + a1 * c1 + a2 * c2 + a3 * c3,
            -a0 * c1 + a1 * c0 - a2 * c3 + a3 * c2,
            -a0 * c2 + a1 * c3 + a2 * c0 - a3 * c1,
            -a0 * c3 - a1 * c2 + a2 * c1 + a3 * c0)


def _moebius(floats, x0, x1, x2, y):
    """act's closed form on a matrix's _float_terms and a point's coordinates, with its three refusals.

    Each quaternion product is written as hamilton_product evaluates it;
    a factor's negated coordinate is moved to the sign of its term, which
    IEEE arithmetic keeps bit for bit, signed zeros included.  P and N skip
    the products by v's zero k-part: a finite entry times 0.0 is a signed
    zero, which can only flip the sign of a zero partial sum, and each sum
    then adds b_r or d_r, the float of an exact value and never -0.0.
    """
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3, cc, ac0, ac1, ac2, ac3 = floats
    y2 = y * y
    # P = a v + b and N = c v + d, v = (x0, x1, x2, 0.0)
    P0 = a0 * x0 - a1 * x1 - a2 * x2 + b0
    P1 = a0 * x1 + a1 * x0 - a3 * x2 + b1
    P2 = a0 * x2 + a2 * x0 + a3 * x1 + b2
    P3 = a1 * x2 - a2 * x1 + a3 * x0 + b3
    N0 = c0 * x0 - c1 * x1 - c2 * x2 + d0
    N1 = c0 * x1 + c1 * x0 - c3 * x2 + d1
    N2 = c0 * x2 + c2 * x0 + c3 * x1 + d2
    N3 = c1 * x2 - c2 * x1 + c3 * x0 + d3
    D = N0 * N0 + N1 * N1 + N2 * N2 + N3 * N3 + y2 * cc
    # mu > 0 rules out c = d = 0, so D vanishes only by underflow.
    if D < 1e-309:
        raise ArithmeticError("c z + d is numerically non-invertible")
    # q = P bar(N) + y^2 a bar(c) and w = y (a N^* - P c^*)
    q0 = P0 * N0 + P1 * N1 + P2 * N2 + P3 * N3 + y2 * ac0
    q1 = -P0 * N1 + P1 * N0 - P2 * N3 + P3 * N2 + y2 * ac1
    q2 = -P0 * N2 + P1 * N3 + P2 * N0 - P3 * N1 + y2 * ac2
    q3 = -P0 * N3 - P1 * N2 + P2 * N1 + P3 * N0 + y2 * ac3
    w0 = y * (a0 * N0 - a1 * N1 - a2 * N2 + a3 * N3 - (P0 * c0 - P1 * c1 - P2 * c2 + P3 * c3))
    w1 = y * (a0 * N1 + a1 * N0 - a2 * N3 - a3 * N2 - (P0 * c1 + P1 * c0 - P2 * c3 - P3 * c2))
    w2 = y * (a0 * N2 + a1 * N3 + a2 * N0 + a3 * N1 - (P0 * c2 + P1 * c3 + P2 * c0 + P3 * c1))
    w3 = y * (-a0 * N3 + a1 * N2 - a2 * N1 + a3 * N0 - (-P0 * c3 + P1 * c2 - P2 * c1 + P3 * c0))
    # Result must be a vector: q in V3 and w a positive real scalar.
    stray = math.hypot(q3, w1, w2, w3)
    if stray > 1e-6 * (D + math.hypot(q0, q1, q2, q3, w0, w1, w2, w3)):
        raise AssertionError(f"action left the upper half-space model (stray part {stray / D})")
    out0, out1, out2, out3 = q0 / D, q1 / D, q2 / D, w0 / D
    if not (math.isfinite(out0 + out1 + out2) and 0 < out3 < math.inf):
        raise ValueError(f"the action overflows the double range: g . z computes to {(out0, out1, out2, out3)}")
    return _point(out0, out1, out2, out3)


def _rescaled(entries, x0, x1, x2, y):
    """g . z as (g diag(2^j, 2^-j) / 2^k) . (z / 4^j) for |z| near 4^j and the largest entry of g near
    2^k, or None if j = k = 0 or that refuses too.

    diag(2^j, 2^-j) acts as z -> 4^j z and has mu = 1, and the real scalar
    2^-k divides mu by 4^k, so the image is the same; z / 4^j is exact while
    it stays normal, and the entries are scaled exactly before their
    conversion to floats.  k is floor(log2 |x|) of the largest entry x, to
    within one, from the bit lengths of its numerator and denominator.
    """
    a, b, c, d = entries
    try:
        j = math.frexp(math.hypot(x0, x1, x2, y))[1] // 2
        k = max(abs(n).bit_length() - m.bit_length()
                for n, m in (x.as_integer_ratio() for q in entries for x in q if x))
        if j == 0 and k == 0:
            return None
        up, down = Fraction(2) ** (j - k), Fraction(2) ** (-j - k)
        scaled = ([x * up for x in a], [x * down for x in b], [x * up for x in c], [x * down for x in d])
        return _moebius(_float_terms(scaled),
                        math.ldexp(x0, -2 * j), math.ldexp(x1, -2 * j), math.ldexp(x2, -2 * j), math.ldexp(y, -2 * j))
    except (ArithmeticError, ValueError, AssertionError):
        return None


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
    infinite or NaN coordinate raises ValueError.  The loop steps four
    local floats and builds one point, at the end.
    """
    if z.__class__ is PointH4:
        x0, x1, x2, y = z.x0, z.x1, z.x2, z.y
    else:
        x0, x1, x2, y = as_point(z).as_tuple()
    isfinite = math.isfinite
    if not (isfinite(x0) and isfinite(x1) and isfinite(x2) and isfinite(y)):
        raise ValueError(f"cannot reduce a point with a non-finite coordinate: {(x0, x1, x2, y)}")
    floor, tol = math.floor, _TOL
    word: list[Token] = []
    for _ in range(_MAX_ITER):
        s0, s1, s2 = -floor(x0 + 0.5), -floor(x1 + 0.5), -floor(x2 + 0.5)
        if s0 or s1 or s2:
            word.append(("translate", (s0, s1, s2)))
            x0, x1, x2 = x0 + s0, x1 + s1, x2 + s2
        flip1, flip2 = x1 < -tol, x2 < -tol
        if flip1 or flip2:
            token, (f0, f1, f2) = _ROTATION_TOKENS[flip1, flip2]
            word.append(token)
            x0, x1, x2 = f0 * x0, f1 * x1, f2 * x2
        if x0 * x0 + x1 * x1 + x2 * x2 + y * y < 1.0 - tol:
            # Dividing twice by |z| keeps z/|z|^2 exact where |z|^2 underflows.
            r = math.hypot(x0, x1, x2, y)
            word.append(("inversion",))
            x0, x1, x2, y = -x0 / r / r, x1 / r / r, x2 / r / r, y / r / r
            if not (isfinite(x0) and isfinite(x1) and isfinite(x2) and isfinite(y)):
                raise ValueError(f"inversion at |z| = {r:g} overflows the float range")
            continue
        # F's inequalities: |z|^2 >= 1 - tol holds, as the test above just failed on finite floats
        if -0.5 - tol <= x0 <= 0.5 + tol and -tol <= x1 <= 0.5 + tol and -tol <= x2 <= 0.5 + tol:
            # y > 0 holds: the input's y is, and an inversion divides y by r^2 < 1
            return tuple(word), _point(x0, x1, x2, y)
    raise ReductionError(f"reduction did not converge after {_MAX_ITER} iterations")


# -- cusp decomposition -------------------------------------------------------

# The four copies of S_T that tile the cusp box, in the report's order: the identity and the
# rotations, each as (name, sign flip of its coordinates).  The rotations are involutions, so
# z lies in u.S_T exactly when its flip lies in S_T.
_CUSP_COPIES = (("identity", (1, 1, 1)), *((f"rot_{name}", flip) for name, (_, flip) in UNIT_FLIPS.items()))
# Samples per array pass of verify_cusp_decomposition: about 1 MB of working arrays, and
# faster than larger blocks (200,000 samples: 0.05 s in blocks of 4,096, 0.07-0.09 s of 65,536).
_CUSP_BLOCK = 4_096
# The largest sample count of verify_cusp_decomposition, whose time is linear in it: about
# 0.05 s per 200,000 samples and 0.26 s per million (2-vCPU host), so about 2.6 s at the ceiling.
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


def _uniforms(rng: random.Random, count: int) -> np.ndarray:
    """The next count values of rng.random(), from one getrandbits draw of 64 bits each.

    Each value decodes two 32-bit words (a, b) of the draw, low words first,
    as ((a >> 5) 2^26 + (b >> 6)) / 2^53, which is exact in doubles.
    """
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u4")
    high = (words[0::2] >> 5).astype(np.uint64)
    high <<= 26
    high |= words[1::2] >> 6
    return high * 2.0 ** -53


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
    _CUSP_BLOCK, so memory stays flat in sample_count.  A block's 4n
    uniforms come from one rng.getrandbits(256 n) (``_uniforms``): random()
    reads two 32-bit words a, b of the Mersenne Twister and returns
    ((a >> 5) 2^26 + (b >> 6)) / 2^53, and getrandbits returns the next
    words in the same order as the little-endian digits of one integer, so
    decoding each pair as random() does gives its values bit for bit and
    leaves the generator where 4n random() calls would.  The first interior
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
        x = low + width * _uniforms(rng, 4 * n).reshape(n, 4).T
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
