"""Exact arithmetic in the real Clifford algebras C_n.

C_n is the associative algebra generated by e1, ..., en subject to
eg*eh = -eh*eg for g != h and eh^2 = -1.  C_0 is the reals, C_1 the
complex numbers, and C_2 the Hamilton quaternions (i = e1, j = e2,
k = e12).

Elements are stored sparsely as maps from strictly sorted index tuples
to `Fraction` coefficients, so all identities checked downstream
(involution rules, vector inverses, group membership) are exact.
Everything here is immutable and side-effect free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

MAX_RANK = 8  # 2^8 basis blades; comfortably past the rank 3 needed downstream

Blade = tuple[int, ...]

_TERM_RE = re.compile(r"^(?:(?P<coef>-?\d+(?:/\d+)?)(?:\*e(?P<idx>\d+))?|(?P<sign>-?)e(?P<idx2>\d+))$")


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("Clifford coefficients are exact rationals; got float")
    return Fraction(value)


def _blade_mul(left: Blade, right: Blade) -> tuple[int, Blade]:
    """Multiply two basis blades, returning (sign, blade).

    The sign counts the transpositions needed to interleave the index
    sequences, with an extra -1 for every eh^2 = -1 contraction.
    """
    out = list(left)
    sign = 1
    for j in right:
        k = len(out)
        while k > 0 and out[k - 1] > j:
            k -= 1
            sign = -sign
        if k > 0 and out[k - 1] == j:
            out.pop(k - 1)
            sign = -sign
        else:
            out.insert(k, j)
    return sign, tuple(out)


@dataclass(frozen=True)
class CliffordElement:
    """Sparse element of C_n with exact rational coefficients.

    ``coeffs`` maps strictly sorted index tuples (subsets of {1..n}) to
    nonzero Fractions; the empty tuple carries the real part.  Elements
    compare equal iff their canonical maps are equal.
    """

    n: int
    coeffs: Mapping[Blade, Fraction]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_RANK:
            raise ValueError(f"algebra rank must be in [0, {MAX_RANK}], got {self.n}")
        clean: dict[Blade, Fraction] = {}
        for blade, value in self.coeffs.items():
            blade = tuple(blade)
            if list(blade) != sorted(set(blade)):
                raise ValueError(f"blade {blade} is not a strictly sorted index set")
            if blade and (blade[0] < 1 or blade[-1] > self.n):
                raise ValueError(f"blade {blade} out of range for C_{self.n}")
            value = _as_fraction(value)
            if value != 0:
                clean[blade] = value
        object.__setattr__(self, "coeffs", clean)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "CliffordElement":
        return cls(n, {})

    @classmethod
    def scalar(cls, n: int, value) -> "CliffordElement":
        return cls(n, {(): _as_fraction(value)})

    @classmethod
    def generator(cls, n: int, h: int) -> "CliffordElement":
        if not 1 <= h <= n:
            raise ValueError(f"generator index {h} out of range for C_{n}")
        return cls(n, {(h,): Fraction(1)})

    @classmethod
    def vector(cls, coords: Iterable) -> "CliffordElement":
        """Vector x0 + x1*e1 + ... + xn*en from n+1 coordinates."""
        coords = [_as_fraction(c) for c in coords]
        n = len(coords) - 1
        coeffs = {}
        if coords[0]:
            coeffs[()] = coords[0]
        for h, c in enumerate(coords[1:], start=1):
            if c:
                coeffs[(h,)] = c
        return cls(n, coeffs)

    # -- accessors ---------------------------------------------------

    @property
    def real_part(self) -> Fraction:
        return self.coeffs.get((), Fraction(0))

    @property
    def norm(self) -> Fraction:
        """Coefficient norm N(a) = sum of squared coefficients."""
        return sum((c * c for c in self.coeffs.values()), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_scalar(self) -> bool:
        return all(b == () for b in self.coeffs)

    @property
    def is_vector(self) -> bool:
        return all(len(b) <= 1 for b in self.coeffs)

    # -- ring operations ----------------------------------------------

    def _check_rank(self, other: "CliffordElement"):
        if self.n != other.n:
            raise ValueError(f"rank mismatch: C_{self.n} vs C_{other.n}")

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._check_rank(other)
        out = dict(self.coeffs)
        for blade, value in other.coeffs.items():
            out[blade] = out.get(blade, Fraction(0)) + value
        return CliffordElement(self.n, out)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (-other)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.n, {b: -v for b, v in self.coeffs.items()})

    def __mul__(self, other) -> "CliffordElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_rank(other)
        out: dict[Blade, Fraction] = {}
        for bl, vl in self.coeffs.items():
            for br, vr in other.coeffs.items():
                sign, blade = _blade_mul(bl, br)
                out[blade] = out.get(blade, Fraction(0)) + sign * vl * vr
        return CliffordElement(self.n, out)

    def scale(self, value) -> "CliffordElement":
        value = _as_fraction(value)
        return CliffordElement(self.n, {b: v * value for b, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.coeffs.items())))

    # -- involutions ---------------------------------------------------

    def main_involution(self) -> "CliffordElement":
        """The automorphism sending each generator eh to -eh."""
        return CliffordElement(self.n, {b: v if len(b) % 2 == 0 else -v for b, v in self.coeffs.items()})

    def reverse(self) -> "CliffordElement":
        """Anti-automorphism reversing the factors of each blade."""
        out = {}
        for b, v in self.coeffs.items():
            r = len(b)
            sign = -1 if (r * (r - 1) // 2) % 2 else 1
            out[b] = sign * v
        return CliffordElement(self.n, out)

    def bar(self) -> "CliffordElement":
        """Composition of main involution and reversal."""
        out = {}
        for b, v in self.coeffs.items():
            r = len(b)
            sign = -1 if (r + r * (r - 1) // 2) % 2 else 1
            out[b] = sign * v
        return CliffordElement(self.n, out)

    def __repr__(self) -> str:
        return f"CliffordElement({self.n}, {format_element(self)!r})"

    def __str__(self) -> str:
        return format_element(self)


def multiply(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Clifford product; raises ValueError on rank mismatch."""
    return a * b


def involution(a: CliffordElement, kind: str) -> CliffordElement:
    """Apply one of the three involutions: 'main', 'reverse', or 'bar'."""
    try:
        return {"main": a.main_involution, "reverse": a.reverse, "bar": a.bar}[kind]()
    except KeyError:
        raise ValueError(f"unknown involution kind {kind!r}") from None


@dataclass(frozen=True)
class VectorInfo:
    norm: Fraction
    real_part: Fraction
    inverse: Optional[CliffordElement]


def vector_utils(x: CliffordElement) -> VectorInfo:
    """Norm, real part, and inverse of a vector.

    The norm is computed as the scalar x * bar(x) (equal to the sum of
    squared coordinates); the inverse is bar(x)/N(x), or None for the
    zero vector.
    """
    if not x.is_vector:
        raise ValueError("vector_utils requires a vector")
    prod = x * x.bar()
    if not prod.is_scalar:
        raise AssertionError("x * bar(x) must be scalar for a vector")
    norm = prod.real_part
    inverse = None if norm == 0 else x.bar().scale(Fraction(1, 1) / norm)
    return VectorInfo(norm=norm, real_part=x.real_part, inverse=inverse)


def inverse(a: CliffordElement) -> Optional[CliffordElement]:
    """Two-sided inverse of a, or None if a is not invertible.

    Fast path: when a*bar(a) is a nonzero scalar s (always the case for
    products of vectors), the inverse is bar(a)/s.  Otherwise invert the
    left-multiplication operator by exact Gaussian elimination.
    """
    if a.is_zero:
        return None
    s = a * a.bar()
    if s.is_scalar and s.real_part != 0:
        return a.bar().scale(Fraction(1) / s.real_part)
    return _solve_left_mul(a)


def _basis_blades(n: int) -> list[Blade]:
    blades: list[Blade] = [()]
    for h in range(1, n + 1):
        blades += [b + (h,) for b in blades]
    return sorted(blades, key=lambda b: (len(b), b))


def _solve_left_mul(a: CliffordElement) -> Optional[CliffordElement]:
    # Solve a * x = 1 as a 2^n x 2^n rational linear system.
    blades = _basis_blades(a.n)
    index = {b: i for i, b in enumerate(blades)}
    dim = len(blades)
    rows = [[Fraction(0)] * (dim + 1) for _ in range(dim)]
    for col, b in enumerate(blades):
        for bl, vl in a.coeffs.items():
            sign, target = _blade_mul(bl, b)
            rows[index[target]][col] += sign * vl
    rows[index[()]][dim] = Fraction(1)

    for col in range(dim):
        pivot = next((r for r in range(col, dim) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv_p = Fraction(1) / rows[col][col]
        rows[col] = [v * inv_p for v in rows[col]]
        for r in range(dim):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [rv - factor * cv for rv, cv in zip(rows[r], rows[col])]
    coeffs = {blades[i]: rows[i][dim] for i in range(dim) if rows[i][dim] != 0}
    candidate = CliffordElement(a.n, coeffs)
    if (a * candidate).coeffs != {(): Fraction(1)} or (candidate * a).coeffs != {(): Fraction(1)}:
        return None
    return candidate


def is_clifford_group_member(a: CliffordElement) -> bool:
    """Whether a is an invertible element conjugating vectors to vectors.

    Tests a * v * (main(a))^-1 for every basis vector v in {1, e1, ..., en};
    by linearity this decides the conjugation condition on the whole
    vector space.  For C_2 this accepts exactly the nonzero elements.
    """
    if a.is_zero:
        return False
    ap_inv = inverse(a.main_involution())
    if ap_inv is None:
        return False
    basis = [CliffordElement.scalar(a.n, 1)] + [CliffordElement.generator(a.n, h) for h in range(1, a.n + 1)]
    return all((a * v * ap_inv).is_vector for v in basis)


# -- textual format -------------------------------------------------------

def format_element(a: CliffordElement) -> str:
    """Canonical text form, e.g. ``3/2 + 1*e1 - 2*e12``."""
    if a.is_zero:
        return "0"
    parts = []
    for blade in sorted(a.coeffs, key=lambda b: (len(b), b)):
        value = a.coeffs[blade]
        mag = -value if value < 0 else value
        body = str(mag) if blade == () else f"{mag}*e{''.join(map(str, blade))}"
        if not parts:
            parts.append(body if value > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if value > 0 else '-'} {body}")
    return " ".join(parts)


def parse_element(text: str, n: int) -> CliffordElement:
    """Parse the textual element format; rejects unsorted or repeated indices."""
    text = text.strip()
    if text in ("0", "-0"):
        return CliffordElement.zero(n)
    tokens = text.replace("- ", "-").replace("+ ", "+").split()
    coeffs: dict[Blade, Fraction] = {}
    for tok in tokens:
        tok = tok.lstrip("+")
        m = _TERM_RE.match(tok)
        if not m:
            raise ValueError(f"cannot parse term {tok!r}")
        if m.group("idx2") is not None:
            coef = Fraction(-1 if m.group("sign") == "-" else 1)
            idx = m.group("idx2")
        else:
            coef = Fraction(m.group("coef"))
            idx = m.group("idx")
        if idx is None:
            blade: Blade = ()
        else:
            digits = [int(ch) for ch in idx]
            if any(d == 0 for d in digits):
                raise ValueError(f"index 0 not allowed in {tok!r}")
            if digits != sorted(set(digits)):
                raise ValueError(f"indices must be strictly increasing in {tok!r}")
            if digits and digits[-1] > n:
                raise ValueError(f"index {digits[-1]} out of range for C_{n}")
            blade = tuple(digits)
        coeffs[blade] = coeffs.get(blade, Fraction(0)) + coef
    return CliffordElement(n, coeffs)
