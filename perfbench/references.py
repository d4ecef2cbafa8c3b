"""Independent references the checks compare against.

Brute-force enumeration over a whole lattice ball (where the library
inverts the conjugations to find candidates), mpmath for every K-Bessel
value, and a coordinate test for the fundamental domain.  None of these
is on a timed path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

MP_DPS = 20
LAGUERRE_NODES = 16


def lattice_ball(z) -> list[tuple[int, int, int]]:
    """Every nonzero integer triple with b0^2 + b1^2 + b2^2 <= z."""
    m = math.isqrt(math.floor(z))
    return [(a, b, c)
            for a in range(-m, m + 1) for b in range(-m, m + 1) for c in range(-m, m + 1)
            if 0 < a * a + b * b + c * c <= z]


def _conjugations(lib, p: int) -> list:
    """beta -> alpha' beta bar(alpha) for the p+1 representatives, as maps built from conjugate_action."""
    quaternions = lib.quaternions
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return [[quaternions.conjugate_action(alpha, e) for e in basis]
            for alpha in quaternions.orbit_representatives(p).representatives]


def brute_sum_R(lib, A, p: int, ell: int, z) -> object:
    """R^{p,ell}_1(z) by visiting every beta in the ball N(beta) <= z."""
    pl = p ** ell
    ball = np.array(lattice_ball(z), dtype=np.int64).reshape(-1, 3)
    inner = {}  # ball index -> sum_i A(conj_i(beta) / p^ell) over the lattice hits
    for cols in _conjugations(lib, p):
        images = ball @ np.array(cols, dtype=np.int64)
        hits = np.flatnonzero(np.all(images % pl == 0, axis=1))
        for idx, key in zip(hits.tolist(), (images[hits] // pl).tolist()):
            value = A.entries.get(tuple(key))
            if value is not None:
                inner[idx] = value + inner[idx] if idx in inner else value
    total = Fraction(0)
    for value in inner.values():
        total = total + value.abs_sq()
    return total * Fraction(1, p)


def brute_sum_S(A, z) -> object:
    """S_1(z): sum of |A(beta)|^2 over the entries with N(beta) <= z."""
    total = Fraction(0)
    for beta, value in A.entries.items():
        if beta[0] ** 2 + beta[1] ** 2 + beta[2] ** 2 <= z:
            total = total + value.abs_sq()
    return total


def in_fundamental_domain(z, tol: float = 1e-9) -> bool:
    """|x0| <= 1/2, 0 <= x1, x2 <= 1/2 and |z| >= 1, each with slack tol."""
    x0, x1, x2, y = z
    return (abs(x0) <= 0.5 + tol and -tol <= x1 <= 0.5 + tol and -tol <= x2 <= 0.5 + tol
            and x0 * x0 + x1 * x1 + x2 * x2 + y * y >= 1.0 - tol)


@lru_cache(maxsize=4096)
def bessel_k(r: float, x: float) -> float:
    """K_{ir}(x) by mpmath."""
    with mpmath.workdps(MP_DPS):
        return float(mpmath.re(mpmath.besselk(1j * r, x)))


def form_rel_err(form, z, value: complex) -> float:
    """Normwise relative error of phi(z): |value - ref| over the sum of the modes' moduli."""
    x0, x1, x2, y = z
    ref = 0j
    scale = 0.0
    for beta, coeff in form.entries:
        term = coeff * y ** 1.5 * bessel_k(form.r, 2 * math.pi * math.sqrt(sum(b * b for b in beta)) * y)
        ref += term * complex(np.exp(2j * math.pi * (beta[0] * x0 - beta[1] * x1 - beta[2] * x2)))
        scale += abs(term)
    return abs(value - ref) / scale


def _cusp_mode_mass(r: float, a: float) -> float:
    """integral_a^oo K_{ir}(2 pi y)^2 dy / y by Gauss-Laguerre in u = 4 pi (y - a)."""
    u, w = np.polynomial.laguerre.laggauss(LAGUERRE_NODES)
    total = 0.0
    for ui, wi in zip(u, w):
        y = a + ui / (4 * math.pi)
        k = bessel_k(r, 2 * math.pi * y)
        total += wi * math.exp(ui) * k * k / y
    return total / (4 * math.pi)


def cusp_mass(form, T: float) -> float:
    """Coefficient-side cusp mass sum |A(beta)|^2 integral_{T sqrt N}^oo K_{ir}(2 pi y)^2 dy/y."""
    by_norm: dict[int, float] = {}
    for beta, coeff in form.entries:
        n = sum(b * b for b in beta)
        by_norm[n] = by_norm.get(n, 0.0) + abs(coeff) ** 2
    return sum(weight * _cusp_mode_mass(form.r, T * math.sqrt(n)) for n, weight in by_norm.items())
