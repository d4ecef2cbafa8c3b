"""Floating-point layer: K-Bessel of imaginary order and spectral-mode numerics.

The radial kernel is K_{ir}(x) = integral_0^oo exp(-x cosh t) cos(r t) dt,
evaluated by one trapezoid sum with a fixed cut and step on a line shifted
through the saddle of the integrand.  K_{i*0} is the classical K_0.

A spectral mode with parameter r (so the flat-Laplacian eigenvalue is
9/4 + r^2) and finitely many coefficients A(beta) is the finite sum

    phi(z) = sum_beta a_beta(y) e(Re(beta x)),   a_beta(y) = A(beta) y^{3/2} K_{ir}(2 pi sqrt(N(beta)) y),

with e(t) = exp(2 pi i t).  On top of phi the module checks the
fixed-height Parseval identity over the unit period box, computes the cusp
mass integral_{y >= T, x in box} |phi|^2 dvol both from the coefficient
side and by direct 4-d quadrature, and verifies the mode annihilation
Delta u = -(9/4 + r^2) u by central finite differences.  Box integrals are
tensor Gauss-Legendre rules applied through the mode Gram matrix (_gram).
Both cusp integrals cut the y-range at one module constant above T,
_CUSP_Y_RANGE, which the kernel decay fixes for every mode.
No public function takes a tolerance: every rule, the kernel's included, is fixed.
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
# The length of the y-range that cusp_sum_I and direct_cusp_integral keep above a lower end.
# |K_{ir}(2 pi sqrt(n) y)|^2 falls like exp(-4 pi sqrt(n) y), so by 1e-10 e^-5 within
# (ln 10^10 + 5) / (4 pi sqrt(n)) <= 2.23 of that end, since every mode has norm n >= 1.
_CUSP_Y_RANGE = 3.0
_SIMPSON_MAX_DEPTH = 60  # bisection depth at which _adaptive_simpson accepts an interval
# The largest |r| of a spectral parameter.  |K_ir| is at most about e^(-pi r/2), below the smallest
# subnormal double from r of about 475 on, so no K_ir refused here is one that a double can hold.
# bessel_k_imag_order's node count grows about linearly in r: at x = 2 pi it takes 0.04 ms at
# r = 20, 0.33 ms at 200 and 1.7 ms at 500, and at most 0.1-0.17 s, at r = 500 and subnormal x
# (2-vCPU host).
MAX_SPECTRAL_R = 500


# -- quadrature kernels -------------------------------------------------------

def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
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
        if depth >= _SIMPSON_MAX_DEPTH or abs(err) <= 15.0 * tl:
            total += left + right + err / 15.0
        else:
            stack.append((x0, lm, x1, f0, flm, f1, left, tl / 2.0, depth + 1))
            stack.append((x1, rm, x2, f1, frm, f2, right, tl / 2.0, depth + 1))
    return total


def bessel_k_imag_order(r: float, x: float) -> float:
    """K_{ir}(x) for finite x > 0 and real r with |r| <= MAX_SPECTRAL_R: one trapezoid sum, of at most 4.2e6
    nodes, of integral_0^oo exp(-x cos(th) cosh s - r th) cos(x sin(th) sinh s - r s) ds, the real-axis integral
    on the line t = s - i th through its saddle (Gil, Segura & Temme, ACM TOMS 30, 2004).  Against mpmath it is
    within 4e-13 relative (to the envelope near a zero of K) for x in [0.05, 700] and r <= 200."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"K_ir argument x must be finite and positive, got {x}")
    if not abs(r) <= MAX_SPECTRAL_R:  # NaN and inf included
        raise ValueError(f"spectral parameter r must be finite with |r| <= {MAX_SPECTRAL_R}, got {r}")
    r = abs(float(r))
    # On the line the integrand peaks at exp(-x cos(th) - r th), about |K|: the cancellation of the
    # real-axis integral is gone.  The max(0, .) keeps th off pi/2 at r < 2, where the step would collapse.
    theta = min(math.asin(min(1.0, r / x)), max(0.0, math.pi / 2 - 2.0 / r)) if r else 0.0
    # Each x-dependent term is written in sqrt(x) sinh(s/2) and sqrt(x) cosh(s/2), so that none
    # overflows at subnormal or huge x.  The cut L is where x cos(th) (cosh s - 1) = 40; omega is the
    # largest frequency of the cosine on [0, L], with x sinh L = 2 sqrt(x) sinh(L/2) sqrt(x) cosh(L/2).
    cos, sin, root = math.cos(theta), math.sin(theta), math.sqrt(x)
    edge = math.sqrt(20.0 / cos)  # sqrt(x) sinh(L/2), so L = 2 asinh(edge / sqrt(x))
    omega = max(r, 2.0 * sin * edge * math.sqrt(x + edge * edge))
    step = min(0.6 / (root * math.sqrt(cos)), 1.8 / omega if omega else 0.25, 0.25)
    # About 11 r log(40 r/x) nodes while x < r (r > 2), and under 3,000 at r < 2.  The most, 4.2e6 at
    # r = 500 and the smallest subnormal x, take 0.1-0.17 s (2-vCPU host); blocks of 65,536 nodes keep
    # memory flat.  Below x ~ 1e-10 the error grows with r log(1/x): 1e-10 at r = 100, x = 1e-300.
    nodes = math.ceil(2.0 * math.asinh(edge / root) / step) + 1
    total = -0.5  # the trapezoid's half weight at s = 0, where the integrand is 1
    for start in range(0, nodes, 65536):
        s = step * np.arange(start, min(start + 65536, nodes))
        u, v = root * np.sinh(0.5 * s), root * np.cosh(0.5 * s)
        total += float(np.sum(np.exp(-2.0 * cos * u * u) * np.cos(2.0 * sin * u * v - r * s)))
    return step * total * math.exp(-x * cos - r * theta)


@lru_cache(maxsize=65536)
def _bessel_cached(r: float, x: float) -> float:
    return bessel_k_imag_order(r, x)


# -- spectral forms -----------------------------------------------------------

@dataclass(frozen=True)
class SpectralForm:
    """Finite coefficient list with spectral parameter r (eigenvalue 9/4 + r^2).

    Cuspidal by construction: there is no beta = 0 term.
    """

    r: float
    entries: tuple[tuple[tuple[int, int, int], complex], ...]

    def __post_init__(self):
        if not abs(self.r) <= MAX_SPECTRAL_R:  # NaN and inf included
            raise ValueError(f"spectral parameter r must be finite with |r| <= {MAX_SPECTRAL_R}, got {self.r}")
        clean = []
        for beta, value in self.entries:
            if len(beta) != 3:
                raise ValueError(f"beta must have 3 coordinates, got {beta!r}")
            beta = (int(beta[0]), int(beta[1]), int(beta[2]))
            if beta == (0, 0, 0):
                raise ValueError("spectral forms carry no constant term")
            if lattice_norm(beta) > sys.float_info.max:  # K_{ir} takes 2 pi sqrt(N(beta)) y in doubles
                raise ValueError("a beta of the form has a norm beyond the double range")
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
    # beta and the x may be numbers or numpy arrays that broadcast together.
    return beta[0] * x0 - beta[1] * x1 - beta[2] * x2


def _character(beta, x0, x1, x2):
    """e(Re(beta x)) = exp(2 pi i Re(beta x)), elementwise over arrays."""
    return np.exp(2j * math.pi * _phase_re_beta_z(beta, x0, x1, x2))


def _amplitudes(form: SpectralForm, y: float) -> list[complex]:
    """a_beta(y) = A(beta) y^(3/2) K_{ir}(2 pi sqrt(N(beta)) y) per entry, so phi = sum_beta a_beta e(Re(beta x)).

    K_{ir} goes first: it rejects a height whose argument overflows, and y^(3/2),
    which overflows past y ~ 1e205, is taken only where K_{ir} has not underflowed to 0.
    """
    ks = [_bessel_cached(form.r, TWO_PI * math.sqrt(lattice_norm(beta)) * y) for beta, _ in form.entries]
    return [coeff * (k * y ** 1.5 if k else k) for (_, coeff), k in zip(form.entries, ks)]


def _phi(form: SpectralForm, x0: float, x1: float, x2: float, y: float) -> complex:
    """The Fourier sum at one point, its terms added in entry order."""
    return sum(a * _character(beta, x0, x1, x2) for a, (beta, _) in zip(_amplitudes(form, y), form.entries))


def evaluate_form(form: SpectralForm, z) -> complex:
    """phi(z); z is a PointH4 or (x0, x1, x2, y)."""
    x0, x1, x2, y = (z.as_tuple() if hasattr(z, "as_tuple") else tuple(map(float, z)))
    return complex(_phi(form, x0, x1, x2, y))


def _gram(form: SpectralForm, nodes: int) -> np.ndarray:
    """G_jk = sum_x w(x) e(Re((beta_j - beta_k) x)) over the tensor Gauss-Legendre grid of the period box.

    The rule for the box integral of |phi|^2 at height y is a G conj(a), a the amplitudes,
    so the grid is summed once per form.  The weight w(x) is a product over the three
    coordinates and Re(beta x) a sum of one term per coordinate: G is a product of 1-d sums.
    """
    pts, wts = (0.5 * v for v in np.polynomial.legendre.leggauss(nodes))  # on [-1/2, 1/2]
    # doubles, exact for |beta_i| < 2^53, so that no beta a form accepts overflows
    betas = np.array([beta for beta, _ in form.entries], dtype=float).reshape(-1, 3).T
    diff = (betas[:, :, None] - betas[:, None, :])[..., None]  # beta_j - beta_k, shape (3, k, k, 1)
    # one factor per coordinate: the nodes along it, the other two coordinates held at 0
    return np.prod([_character(diff, *(unit[:, None] * pts)) @ wts for unit in np.eye(3)], axis=0)


def _box_integral(a, gram: np.ndarray) -> float:
    """a G conj(a): the box rule with Gram matrix G for |phi|^2 at the height of the amplitudes a."""
    a = np.asarray(a, dtype=complex)
    return float((a @ gram @ a.conj()).real)


@dataclass(frozen=True)
class ParsevalReport:
    y: float
    box_integral: float
    coefficient_sum: float
    rel_error: float


def parseval_check(form: SpectralForm, y: float) -> ParsevalReport:
    """Fixed-height orthogonality: the 32-node box rule of |phi|^2 against the coefficient side
    sum_beta |a_beta(y)|^2 = sum_beta |A(beta)|^2 y^3 |K_{ir}(2 pi sqrt(N(beta)) y)|^2.

    A height where the coefficient side is 0 or subnormal raises ValueError: once every term
    has underflowed (from y of about 59 at N(beta) = 1), both sides read 0 and the check would
    pass on nothing, and just below that the sides keep too few digits to compare."""
    if not (math.isfinite(y) and y > 0):
        raise ValueError(f"height y must be finite and positive, got {y}")
    a = np.array(_amplitudes(form, y), dtype=complex)
    coeff = float(np.vdot(a, a).real)
    if not coeff >= sys.float_info.min:
        raise ValueError(f"the coefficient side at height y = {y} is {coeff:g}, 0 or subnormal: the K_ir "
                         f"terms underflow or the coefficients are 0, so there is nothing to compare")
    box = _box_integral(a, _gram(form, 32))
    return ParsevalReport(y=y, box_integral=box, coefficient_sum=coeff, rel_error=abs(box - coeff) / coeff)


def cusp_sum_I(form: SpectralForm, T: float) -> float:
    """Coefficient-side cusp mass: integral over the box times [T, oo) of |phi|^2 dvol.

    Equals sum_beta |A(beta)|^2 integral_{T sqrt(N(beta))}^oo |K_{ir}(2 pi y)|^2 dy/y,
    each integral cut where the kernel decay makes the tail negligible and taken by
    adaptive Simpson to the absolute tolerance 1e-12.
    """
    if not (math.isfinite(T) and T >= 1):
        raise ValueError(f"T must be finite and >= 1, got {T}")

    def integrand(y: float) -> float:
        k = _bessel_cached(form.r, TWO_PI * y)
        return k * k / y

    total = 0.0
    for beta, coeff in form.entries:
        a = T * math.sqrt(lattice_norm(beta))
        total += abs(coeff) ** 2 * _adaptive_simpson(integrand, a, a + _CUSP_Y_RANGE, 1e-12)
    return total


def direct_cusp_integral(form: SpectralForm, T: float) -> float:
    """4-d quadrature of |phi|^2 dvol over the cusp box, independent of unfolding.

    The 24-node box rule in x at every y node, and 12-node Gauss-Legendre
    on 12 panels of [T, Y] in y, with Y set by the kernel decay.
    """
    if not (math.isfinite(T) and T >= 1):
        raise ValueError(f"T must be finite and >= 1, got {T}")
    Y = T + _CUSP_Y_RANGE
    gram = _gram(form, 24)
    ypts, ywts = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(T, Y, 12 + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for t, w in zip(ypts, ywts):
            y = mid + half * t
            total += half * w * _box_integral(_amplitudes(form, float(y)), gram) / y ** 4
    return float(total)


# -- mode Laplacian -------------------------------------------------------------

def laplace_eigen_residual(beta, r: float, z, h: float = 1e-3) -> float:
    """|Delta u + (9/4 + r^2) u| / |u| for the single mode at beta, by central differences.

    Delta = y^2 (d^2/dx0^2 + d^2/dx1^2 + d^2/dx2^2 + d^2/dy^2) - 2y d/dy;
    the mode satisfies Delta u = -(9/4 + r^2) u exactly, so the returned
    ratio is discretization error, O(h^2).  An h for which some stencil
    coordinate c + h or c - h rounds back to c is refused, and so is a point
    where |u| is 0 or under 1e-12 of the largest |u| of the stencil.

    The mode oscillates in y on a scale of about y/r.  Where h r / y >= 0.1
    the stencil does not resolve it, and the default h = 1e-3 stays there:
    the residual then measures the unresolved stencil, not the mode, and a
    smaller h resolves it (`maass laplace-check` says `unresolved`).
    """
    x0, x1, x2, y = point = (z.as_tuple() if hasattr(z, "as_tuple") else tuple(map(float, z)))
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step h must be finite and positive, got {h}")
    if y - h <= 0:
        raise ValueError("step h must keep y - h positive")
    if any(c + h == c or c - h == c for c in point):  # a difference of equal points: 0 or nan, not a residual
        raise ValueError(f"step h = {h:g} is below the resolution of the point {point}: some coordinate c "
                         f"has c + h or c - h equal to c in doubles")
    beta = tuple(int(b) for b in beta)
    if beta == (0, 0, 0):
        raise ValueError("beta must be nonzero: spectral modes carry no beta = 0 term")
    mode = SpectralForm(r, ((beta, 1.0),))
    u0 = _phi(mode, *point)
    # u at the point moved by +h and by -h along x0, x1, x2 and y in turn
    moved = [_phi(mode, *(c + s if i == idx else c for i, c in enumerate(point))) for idx in range(4) for s in (h, -h)]
    if not abs(u0) > 1e-12 * max(map(abs, moved)):  # 0 against a stencil of 0 included
        raise ValueError("mode nearly vanishes at z; pick another evaluation point")
    second = sum(moved) - 8 * u0  # the four second differences u(c + h) - 2 u + u(c - h)
    dy = (moved[6] - moved[7]) / (2 * h)
    lap = y * y * second / (h * h) - 2 * y * dy
    return abs(lap + (2.25 + r * r) * u0) / abs(u0)
