"""Floating-point layer: K-Bessel of imaginary order and spectral-mode numerics.

The radial kernel is K_{ir}(x) = integral_0^oo exp(-x cosh t) cos(r t) dt,
evaluated by adaptive Simpson quadrature on a truncated interval (the
integrand is below any tolerance once x cosh t is large).  K_{i*0} is
the classical K_0.

A spectral mode with parameter r (so the flat-Laplacian eigenvalue is
9/4 + r^2) and finitely many coefficients A(beta) is the finite sum

    phi(z) = sum_beta A(beta) y^{3/2} K_{ir}(2 pi sqrt(N(beta)) y)
             e(b0 x0 - b1 x1 - b2 x2),

with e(t) = exp(2 pi i t); the phase is Re(beta z) expanded once and
hard-coded.  On top of phi the module checks the fixed-height Parseval
identity over the unit period box, computes the cusp mass
integral_{y >= T, x in box} |phi|^2 dvol both from the coefficient side
and by direct 4-d quadrature, and verifies the mode annihilation
Delta u = -(9/4 + r^2) u by central finite differences.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quaternions import lattice_norm

TWO_PI = 2.0 * math.pi


# -- quadrature kernels -------------------------------------------------------

def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 60) -> float:
    """Classic adaptive Simpson with interval bisection."""
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = simpson(a, b, fa, fm, fb)
    stack = [(a, m, b, fa, fm, fb, whole, tol, 0)]
    total = 0.0
    while stack:
        x0, x1, x2, f0, f1, f2, est, tl, depth = stack.pop()
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        err = left + right - est
        if depth >= max_depth or abs(err) <= 15.0 * tl:
            total += left + right + err / 15.0
        else:
            stack.append((x0, lm, x1, f0, flm, f1, left, tl / 2.0, depth + 1))
            stack.append((x1, rm, x2, f1, frm, f2, right, tl / 2.0, depth + 1))
    return total


def _truncation_point(x: float, tol: float) -> float:
    """t beyond which exp(-x cosh t) stays under tol * 1e-3."""
    target = (math.log(1.0 / tol) + 3.0 + math.log(1e3)) / x
    if target <= 1.0:
        return 1.0
    return math.acosh(target) + 0.5


def bessel_k_imag_order(r: float, x: float, tol: float = 1e-12) -> float:
    """K_{ir}(x) for finite real r and finite x > 0 via the cosine integral representation."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"K_ir argument x must be finite and positive, got {x}")
    if not math.isfinite(r):
        raise ValueError(f"spectral parameter r must be finite, got {r}")
    r = abs(float(r))
    T = _truncation_point(x, tol)

    def integrand(t: float) -> float:
        return math.exp(-x * math.cosh(t)) * math.cos(r * t)

    return _adaptive_simpson(integrand, 0.0, T, tol)


@lru_cache(maxsize=65536)
def _bessel_cached(r: float, x: float, tol: float) -> float:
    return bessel_k_imag_order(r, x, tol)


# -- spectral forms -----------------------------------------------------------

@dataclass(frozen=True)
class SpectralForm:
    """Finite coefficient list with spectral parameter r (eigenvalue 9/4 + r^2).

    Cuspidal by construction: there is no beta = 0 term.
    """

    r: float
    entries: tuple[tuple[tuple[int, int, int], complex], ...]

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise ValueError(f"spectral parameter r must be finite, got {self.r}")
        clean = []
        for beta, value in self.entries:
            if len(beta) != 3:
                raise ValueError(f"beta must have 3 coordinates, got {beta!r}")
            beta = (int(beta[0]), int(beta[1]), int(beta[2]))
            if beta == (0, 0, 0):
                raise ValueError("spectral forms carry no constant term")
            if not cmath.isfinite(value):
                raise ValueError(f"coefficient at {beta} must be finite, got {value}")
            clean.append((beta, complex(value)))
        object.__setattr__(self, "entries", tuple(clean))

    @classmethod
    def from_dict(cls, r: float, coeffs: dict) -> "SpectralForm":
        return cls(r=float(r), entries=tuple(sorted(coeffs.items())))


def _phase_re_beta_z(beta, x0, x1, x2):
    # Re(beta z) for beta = b0 + b1 i + b2 j and z = x0 + x1 i1 + x2 i2 + y i3:
    # the quaternion product leaves b0 x0 - b1 x1 - b2 x2 on the real axis.
    # The x may be floats or numpy arrays of them.
    return beta[0] * x0 - beta[1] * x1 - beta[2] * x2


def _radial(r: float, beta, y: float, tol: float) -> float:
    """y^(3/2) K_{ir}(2 pi sqrt(N(beta)) y), the radial factor of the mode at beta.

    The kernel goes first: bessel_k_imag_order rejects a height whose
    argument overflows, and y^(3/2), which overflows past y ~ 1e205, is
    taken only where the kernel has not underflowed to zero.
    """
    k = _bessel_cached(r, TWO_PI * math.sqrt(lattice_norm(beta)) * y, tol)
    return k * y ** 1.5 if k else k


def evaluate_form(form: SpectralForm, z, tol: float = 1e-12) -> complex:
    """phi(z) as a finite Fourier sum; z is a PointH4 or (x0, x1, x2, y)."""
    x0, x1, x2, y = (z.as_tuple() if hasattr(z, "as_tuple") else tuple(map(float, z)))
    total = 0j
    for beta, coeff in form.entries:
        phase = _phase_re_beta_z(beta, x0, x1, x2)
        total += coeff * _radial(form.r, beta, y, tol) * np.exp(2j * math.pi * phase)
    return complex(total)


def _box_integral_abs_sq(form: SpectralForm, y: float, nodes: int, tol: float) -> float:
    """integral over the unit period box of |phi(x, y)|^2 dx by tensor Gauss-Legendre."""
    pts, wts = np.polynomial.legendre.leggauss(nodes)
    pts = 0.5 * pts  # [-1/2, 1/2]
    wts = 0.5 * wts
    X0, X1, X2 = np.meshgrid(pts, pts, pts, indexing="ij")
    W = wts[:, None, None] * wts[None, :, None] * wts[None, None, :]
    phi = np.zeros_like(X0, dtype=complex)
    for beta, coeff in form.entries:
        phase = _phase_re_beta_z(beta, X0, X1, X2)
        phi += coeff * _radial(form.r, beta, y, tol) * np.exp(2j * math.pi * phase)
    return float(np.sum(W * np.abs(phi) ** 2))


@dataclass(frozen=True)
class ParsevalReport:
    y: float
    box_integral: float
    coefficient_sum: float
    rel_error: float


def parseval_check(form: SpectralForm, y: float, tol: float = 1e-12, nodes: int = 32) -> ParsevalReport:
    """Fixed-height orthogonality: the box integral of |phi|^2 equals
    sum_beta |A(beta)|^2 y^3 |K_{ir}(2 pi sqrt(N(beta)) y)|^2.

    A height where the coefficient side is 0 or subnormal raises
    ValueError: once every term y^3 |K_{ir}|^2 has underflowed (from y of
    about 59 at N(beta) = 1), both sides read 0 and the check would pass
    on nothing, and just below that the sides keep too few digits to
    compare (at y = 58 they differ by 6e-6 relative)."""
    if not (math.isfinite(y) and y > 0):
        raise ValueError(f"height y must be finite and positive, got {y}")
    coeff = 0
    for b, c in form.entries:
        k = _bessel_cached(form.r, TWO_PI * math.sqrt(lattice_norm(b)) * y, tol)
        # y^3 overflows past y ~ 5.6e102, where every kernel value has underflowed to 0
        coeff += abs(c) ** 2 * y ** 3 * k ** 2 if k else 0.0
    if not coeff >= sys.float_info.min:
        raise ValueError(f"the coefficient side at height y = {y} is {coeff:g}, 0 or subnormal: the K_ir "
                         f"terms underflow or the coefficients are 0, so there is nothing to compare")
    box = _box_integral_abs_sq(form, y, nodes, tol)
    return ParsevalReport(y=y, box_integral=box, coefficient_sum=coeff,
                          rel_error=abs(box - coeff) / coeff)


def cusp_sum_I(form: SpectralForm, T: float, tol: float = 1e-10) -> float:
    """Coefficient-side cusp mass: integral over the box times [T, oo) of |phi|^2 dvol.

    Equals sum_beta |A(beta)|^2 integral_{T sqrt(N(beta))}^oo
    |K_{ir}(2 pi y)|^2 dy/y; each 1-d integral is truncated where the
    exponential decay of the kernel makes the tail negligible.
    """
    if not (math.isfinite(T) and T >= 1):
        raise ValueError(f"T must be finite and >= 1, got {T}")
    total = 0.0
    for beta, coeff in form.entries:
        a = T * math.sqrt(lattice_norm(beta))
        b = a + max(3.0, (math.log(1 / tol) + 5.0) / (4.0 * math.pi))

        def integrand(y: float) -> float:
            k = _bessel_cached(form.r, TWO_PI * y, tol * 1e-2)
            return k * k / y

        total += abs(coeff) ** 2 * _adaptive_simpson(integrand, a, b, tol * 1e-2)
    return total


def direct_cusp_integral(form: SpectralForm, T: float, *, x_nodes: int = 24,
                         y_panels: int = 12, y_nodes: int = 12, tol: float = 1e-10) -> float:
    """4-d quadrature of |phi|^2 dvol over the cusp box, independent of unfolding.

    Gauss-Legendre in each x coordinate at every y node, composite
    Gauss-Legendre in y on [T, Y] with Y set by the kernel decay.
    """
    if not (math.isfinite(T) and T >= 1):
        raise ValueError(f"T must be finite and >= 1, got {T}")
    n_min = min(lattice_norm(b) for b, _ in form.entries)
    Y = T + max(3.0, (math.log(1 / tol) + 5.0) / (4.0 * math.pi * math.sqrt(n_min)))
    ypts, ywts = np.polynomial.legendre.leggauss(y_nodes)
    edges = np.linspace(T, Y, y_panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for t, w in zip(ypts, ywts):
            y = mid + half * t
            inner = _box_integral_abs_sq(form, float(y), x_nodes, tol * 1e-2)
            total += half * w * inner / y ** 4
    return float(total)


# -- mode Laplacian -------------------------------------------------------------

def _mode_value(beta, r: float, x0: float, x1: float, x2: float, y: float, tol: float) -> complex:
    return _radial(r, beta, y, tol) * np.exp(2j * math.pi * _phase_re_beta_z(beta, x0, x1, x2))


def laplace_eigen_residual(beta, r: float, z, h: float = 1e-3, tol: float = 1e-14) -> float:
    """|Delta u + (9/4 + r^2) u| / |u| for the single mode at beta, by central differences.

    Delta = y^2 (d^2/dx0^2 + d^2/dx1^2 + d^2/dx2^2 + d^2/dy^2) - 2y d/dy;
    the mode satisfies Delta u = -(9/4 + r^2) u exactly, so the returned
    ratio is pure discretization error, O(h^2).
    """
    x0, x1, x2, y = (z.as_tuple() if hasattr(z, "as_tuple") else tuple(map(float, z)))
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step h must be finite and positive, got {h}")
    if y - h <= 0:
        raise ValueError("step h must keep y - h positive")
    beta = tuple(int(b) for b in beta)
    if beta == (0, 0, 0):
        raise ValueError("beta must be nonzero: spectral modes carry no beta = 0 term")
    lam = 2.25 + r * r
    u0 = _mode_value(beta, r, x0, x1, x2, y, tol)
    if abs(u0) < 1e-12:
        raise ValueError("mode nearly vanishes at z; pick another evaluation point")
    second = 0j
    for idx in range(4):
        args_p = [x0, x1, x2, y]
        args_m = [x0, x1, x2, y]
        args_p[idx] += h
        args_m[idx] -= h
        second += _mode_value(beta, r, *args_p, tol) - 2 * u0 + _mode_value(beta, r, *args_m, tol)
    dy = (_mode_value(beta, r, x0, x1, x2, y + h, tol)
          - _mode_value(beta, r, x0, x1, x2, y - h, tol)) / (2 * h)
    lap = y * y * second / (h * h) - 2 * y * dy
    return abs(lap + lam * u0) / abs(u0)
