"""Reference helpers that only the tests need: plain-loop twins of library paths and test-data writers."""

import csv
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from h4hecke import geometry, hecke, quaternions
from h4hecke.clifford import CliffordElement
from h4hecke.files import SCHEMA_VERSION, FileFormatError, _entries, _is_integer, _parse_rational
from h4hecke.geometry import (
    _MAX_ITER, _TOL, IsometryMatrix, PointH4, ReductionError, as_point, inversion, is_in_region, pseudo_det, rotation,
    translation,
)
from h4hecke.hecke import _epsilon_case
from h4hecke.quaternions import (
    UNIT_FLIPS, Quaternion, conjugation_matrices, conjugation_matrix, divide_lattice as _divide, hamilton_product,
    lattice_norm, scale_lattice as _scale,
)


def apply_matrix(mat, beta):
    """mat @ beta on integer triples, one coordinate at a time: the reference for the conjugate-sum scatter."""
    b0, b1, b2 = beta
    return (
        mat[0][0] * b0 + mat[0][1] * b1 + mat[0][2] * b2,
        mat[1][0] * b0 + mat[1][1] * b1 + mat[1][2] * b2,
        mat[2][0] * b0 + mat[2][1] * b1 + mat[2][2] * b2,
    )


def lattice_to_quaternion(beta) -> Quaternion:
    """beta in V3 as the quaternion beta_0 + beta_1 i + beta_2 j."""
    return Quaternion(int(beta[0]), int(beta[1]), int(beta[2]), 0)


def quaternion_to_lattice(q: Quaternion):
    """A quaternion without k-part as its V3 coordinate triple."""
    if q.d != 0:
        raise ArithmeticError(f"quaternion {q} has nonzero k-component, not in V3")
    return (int(q.a), int(q.b), int(q.c))


def identity() -> IsometryMatrix:
    """The 2x2 identity matrix."""
    return IsometryMatrix(Quaternion(1, 0, 0, 0), Quaternion(0, 0, 0, 0), Quaternion(0, 0, 0, 0), Quaternion(1, 0, 0, 0))


def token_matrix(token) -> IsometryMatrix:
    """The generator matrix that a reduction token names."""
    if token[0] == "translate":
        return translation(token[1])
    if token[0] == "inversion":
        return inversion()
    return rotation(token[0].removeprefix("rot_"))


def word_matrix(word) -> IsometryMatrix:
    """The product of the token matrices by ``@``, the reference for ``geometry.word_to_matrix``."""
    g = identity()
    for token in word:
        g = token_matrix(token) @ g
    return g


def apply_word(word, z) -> PointH4:
    """z carried through a reduction word one generator at a time."""
    out = as_point(z)
    for token in word:
        out = geometry.act(token_matrix(token), out)
    return out


def act_reference(g: IsometryMatrix, z) -> PointH4:
    """g . z through Quaternion objects and an exact Fraction pseudo-determinant: the reference for
    ``geometry.act``, with the same float operations in the same order and the same errors.

    Where that evaluation refuses but for an entry past the double range, g @ diag(2^(j-k), 2^(-j-k))
    is evaluated at z / 4^j, with 2^j the square root of |z|'s power of two and 2^k the power of two
    of g's largest entry (by the bit lengths of its numerator and denominator); the first refusal
    stands if j = k = 0 or that refuses too."""
    mu = pseudo_det(g)
    if not mu > 0:
        raise ValueError(f"action requires positive pseudo-determinant, got {mu}")
    z = as_point(z)
    try:
        return _evaluate(g, z)
    except OverflowError:
        raise
    except (ArithmeticError, ValueError) as err:
        first = err
    try:
        j = math.frexp(math.hypot(*z.as_tuple()))[1] // 2
        k = max(abs(f.numerator).bit_length() - f.denominator.bit_length()
                for f in (Fraction(x) for q in g.entries() for x in q.coords()) if f)
        if j != 0 or k != 0:
            scale = IsometryMatrix(Quaternion(Fraction(2) ** (j - k), 0, 0, 0), Quaternion(0, 0, 0, 0),
                                   Quaternion(0, 0, 0, 0), Quaternion(Fraction(2) ** (-j - k), 0, 0, 0))
            return _evaluate(g @ scale, PointH4(*(math.ldexp(c, -2 * j) for c in z.as_tuple())))
    except (ArithmeticError, ValueError, AssertionError):
        pass
    raise first


def _evaluate(g: IsometryMatrix, z: PointH4) -> PointH4:
    """act_reference's closed form, on the four products of hamilton_product."""
    y = z.y
    y2 = y * y
    v = (z.x0, z.x1, z.x2, 0.0)
    a, b, c, d = ((float(q.a), float(q.b), float(q.c), float(q.d)) for q in g.entries())
    av = hamilton_product(a, v)
    cv = hamilton_product(c, v)
    P = (av[0] + b[0], av[1] + b[1], av[2] + b[2], av[3] + b[3])
    N = (cv[0] + d[0], cv[1] + d[1], cv[2] + d[2], cv[3] + d[3])
    D = N[0] * N[0] + N[1] * N[1] + N[2] * N[2] + N[3] * N[3] + y2 * (
        c[0] * c[0] + c[1] * c[1] + c[2] * c[2] + c[3] * c[3])
    if D < 1e-309:
        raise ArithmeticError("c z + d is numerically non-invertible")
    pn = hamilton_product(P, (N[0], -N[1], -N[2], -N[3]))
    ac = hamilton_product(a, (c[0], -c[1], -c[2], -c[3]))
    an = hamilton_product(a, (N[0], N[1], N[2], -N[3]))
    pc = hamilton_product(P, (c[0], c[1], c[2], -c[3]))
    q = (pn[0] + y2 * ac[0], pn[1] + y2 * ac[1], pn[2] + y2 * ac[2], pn[3] + y2 * ac[3])
    w = (y * (an[0] - pc[0]), y * (an[1] - pc[1]), y * (an[2] - pc[2]), y * (an[3] - pc[3]))
    stray = math.hypot(q[3], w[1], w[2], w[3])
    if stray > 1e-6 * (D + math.hypot(*q, *w)):
        raise AssertionError(f"action left the upper half-space model (stray part {stray / D})")
    out = (q[0] / D, q[1] / D, q[2] / D, w[0] / D)
    if not (math.isfinite(out[0] + out[1] + out[2]) and 0 < out[3] < math.inf):
        raise ValueError(f"the action overflows the double range: g . z computes to {out}")
    return PointH4(*out)


def _point_flip(flip):
    s0, s1, s2 = flip
    return lambda z: PointH4(s0 * z.x0, s1 * z.x1, s2 * z.x2, z.y)


_ROTATIONS = {(flip[1] < 0, flip[2] < 0): (f"rot_{name}", _point_flip(flip)) for name, (_, flip) in UNIT_FLIPS.items()}


def reduce_reference(z):
    """The reduction with one PointH4 per step: the reference for ``geometry.reduce_to_fundamental_domain``."""
    cur = as_point(z)
    if not all(map(math.isfinite, cur.as_tuple())):
        raise ValueError(f"cannot reduce a point with a non-finite coordinate: {cur.as_tuple()}")
    word = []
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
            r = math.hypot(cur.x0, cur.x1, cur.x2, cur.y)
            word.append(("inversion",))
            cur = PointH4(-cur.x0 / r / r, cur.x1 / r / r, cur.x2 / r / r, cur.y / r / r)
            if not all(map(math.isfinite, cur.as_tuple())):
                raise ValueError(f"inversion at |z| = {r:g} overflows the float range")
            continue
        if is_in_region(cur, "F"):
            return tuple(word), cur
    raise ReductionError(f"reduction did not converge after {_MAX_ITER} iterations")


def sweep_per_alpha(p, coordinate_bound, q_primes=None):
    """The lemma sweep with one pass per norm-p alpha over the whole box: the reference for the per-class
    octant sweep of ``quaternions.verify_conjugation_lemmas``, reading ``quaternions.conjugation_matrix`` at
    call time.  It builds its own box of betas, in the same order, so it shares no grid code with the sweep."""
    Q = quaternions
    if coordinate_bound < 1:
        raise ValueError(f"coordinate bound must be at least 1, got {coordinate_bound}")
    if coordinate_bound > Q.MAX_SWEEP_BOUND:
        raise ValueError(f"coordinate bound must be at most {Q.MAX_SWEEP_BOUND}, got {coordinate_bound}")
    table = Q.orbit_representatives(p)
    if q_primes is None:
        q_primes = [q for q in (3, 5, 7, 11) if q != p]
    q_primes = tuple(Q.require_odd_prime(q, "each q") for q in q_primes)
    if p in q_primes:
        raise ValueError(f"q primes must differ from p: {q_primes}")

    representatives = set(table.representatives)
    mats = np.array([Q.conjugation_matrix(alpha) for alpha in table.all_elements], dtype=np.int64)
    m = 3 * coordinate_bound * int(np.abs(mats).max())
    dtype = Q._narrowest_int(m)
    mats = mats.astype(dtype)
    coords = range(-coordinate_bound, coordinate_bound + 1)
    betas = np.array([beta for beta in itertools.product(coords, repeat=3) if any(beta)], dtype=dtype).T
    n_beta = betas.shape[1]
    b0, b1, b2 = betas
    div = Q._DivisibilityTable((p, *q_primes), m)

    def beta_at(idx):
        return tuple(int(c) for c in betas[:, idx])

    words_beta = div.lookup(np.abs(betas))
    f_beta = div.field(words_beta, p)
    max_jump = pairs = 0
    unequal = np.zeros(n_beta, dtype=np.int64)
    counts = np.zeros(n_beta, dtype=np.int64)
    for alpha, mat in zip(table.all_elements, mats):
        words = div.lookup([np.abs(r[0] * b0 + r[1] * b1 + r[2] * b2) for r in mat])
        f_conj = div.field(words, p)
        pairs += n_beta
        high = f_conj > (f_beta << 2 | 3)
        if high.any():
            idx = int(np.argmax(high))
            raise Q.LemmaSweepError(
                "two-sided v_p bound failed",
                (beta_at(idx), alpha, div.valuation_at(words_beta, p, idx), div.valuation_at(words, p, idx)),
            )
        if max_jump < 2 and (f_conj > (f_beta << 1 | 1)).any():
            max_jump = 2
        elif max_jump < 1 and (f_conj != f_beta).any():
            max_jump = 1
        for q in q_primes:
            bad = div.field(words, q) != div.field(words_beta, q)
            if bad.any():
                idx = int(np.argmax(bad))
                raise Q.LemmaSweepError(
                    f"v_{q} not preserved under conjugation",
                    (beta_at(idx), alpha, div.valuation_at(words_beta, q, idx), div.valuation_at(words, q, idx)),
                )
        if alpha in representatives:
            unequal += f_conj != f_beta
        counts += f_conj > 1
    if int(unequal.max()) > 2:
        idx = int(np.argmax(unequal))
        raise Q.LemmaSweepError("more than two orbits changed v_p", (beta_at(idx), int(unequal[idx])))
    bad = (counts > 16) & (f_beta <= 1)
    if bad.any():
        idx = int(np.argmax(bad))
        raise Q.LemmaSweepError(
            "more than 16 conjugates divisible by p^2 without p^2 | delta", (beta_at(idx), int(counts[idx])))
    small = f_beta == 0
    return Q.ConjugationSweepReport(
        p=p,
        bound=coordinate_bound,
        q_primes=q_primes,
        beta_count=n_beta,
        alpha_count=len(table.all_elements),
        pairs_checked=pairs,
        max_vp_jump=max_jump,
        max_unequal_reps=int(unequal.max()),
        max_exceptional_set=int(unequal.max()),
        squared_divisibility_max_small=int(counts[small].max()) if small.any() else 0,
    )


def cosh_distance(z, w) -> float:
    """cosh of the hyperbolic distance: 1 + |z - w|^2 / (2 y_z y_w)."""
    z, w = as_point(z), as_point(w)
    diff = sum((zc - wc) ** 2 for zc, wc in zip(z.as_tuple(), w.as_tuple()))
    return 1.0 + diff / (2.0 * z.y * w.y)


def vector_coords(x: CliffordElement) -> tuple:
    """The coordinates of a vector of C_n on 1, e_1, ..., e_n."""
    if not x.is_vector:
        raise ValueError("element is not a vector")
    return tuple(x.coeffs.get(b, Fraction(0)) for b in [()] + [(h,) for h in range(1, x.n + 1)])


def write_lambda_table(table, path) -> None:
    """A CSV eigenvalue table with header p,lambda1,lambda2,lambda3, rows in ascending p."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "lambda1", "lambda2", "lambda3"])
        for p in sorted(table):
            lam = table[p]
            writer.writerow([p, repr(lam.lam1), repr(lam.lam2), repr(lam.lam3)])


def write_spectral_form(form, path) -> None:
    """A spectral-form JSON file, entries sorted by norm then coordinates."""
    doc = {
        "schema": SCHEMA_VERSION,
        "r": form.r,
        "entries": [
            {"beta": list(b), "re": c.real, "im": c.imag}
            for b, c in sorted(form.entries, key=lambda e: (lattice_norm(e[0]), e[0]))
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_coefficient_field_json(field, path) -> None:
    """A coefficient-field file through json.dump(indent=1): the reference for ``files.write_coefficient_field``."""
    def scalar(s):
        return [str(s.a)] if field.p is None else [str(s.a), str(s.b)]

    doc = {"schema": SCHEMA_VERSION}
    if field.p is not None:
        doc["p"] = field.p
    doc["entries"] = [{"beta": list(beta), "re": scalar(field.entries[beta].re), "im": scalar(field.entries[beta].im)}
                      for beta in sorted(field.entries, key=lambda b: (lattice_norm(b), b))]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _add(acc: dict, beta, value) -> None:
    if beta is not None:
        acc[beta] = acc[beta] + value if beta in acc else value


def _pair_terms(k, p, terms, mats):
    """(beta, v) for each term (gamma, v) and each representative whose beta = p^(k-2) S_i gamma is
    integral, by one apply_matrix per pair, term-major and then i."""
    shift = p ** abs(k - 2)
    for gamma, v in terms:
        for mat in mats:
            beta = apply_matrix(tuple(zip(*mat)), gamma)
            beta = _scale(beta, shift) if k > 2 else _divide(beta, shift)
            if beta is not None:
                yield beta, v


def pair_conj_sum(k, p, entries, mats, acc=None) -> dict:
    """T_k A by one apply_matrix per (support point, representative) pair: the reference for the
    conjugate-sum scatter of ``hecke`` (``_Pairs.pairs``, ``_conj_sum_rows``).

    Adds A(gamma) at beta = p^(k-2) S_i gamma for every pair whose beta is
    integral, gamma-major and then i, on the domain's own `+`: into a new dict,
    or, given `acc`, term by term into that dict, which is returned.
    """
    acc = {} if acc is None else acc
    for beta, v in _pair_terms(k, p, entries.items(), mats):
        acc[beta] = acc[beta] + v if beta in acc else v
    return acc


def apply_dict(ell: int, p: int, entries, weights, inv_sqrt_p, representatives=None, out=None) -> dict:
    """H_ell on a dict of scalars of one domain, adding each term by the domain's own `+`: every nonzero
    (H_ell A)(beta), in key order.  The terms and term order of ``hecke._terms``, zero signs included.
    Given `out`, the terms are added into that dict after what it holds.

    The hecke module docstring's arranged form, one dict loop per term in the order
    that ``hecke._terms`` groups them.  Weights of gamma (p^(-1/2), -1/p, 1_p(gamma))
    go onto the entries before a pair_conj_sum, which adds each term straight into
    the output.  H_3 moves each T_1 term to p beta, where it is a term of
    (1_p T_2 A)(p beta), and scatters T_0 u with u = 1_p (p^(-1/2) A + p^(-1) T_2 A):
    in doubles p^(-1/2) p^(-1/2) is not 1/p, which would leave rounding residue where
    that term cancels the mid term.  u is a list of terms, the entries that p divides
    and then the T_1 terms one by one, scattered term by term, as the array path
    scatters it.  A shift off the lattice (gamma/p with p not dividing gamma) reaches
    no beta and is skipped.
    """
    if ell not in (1, 2, 3):
        raise ValueError(f"ell must be 1, 2, or 3, got {ell}")
    mats = conjugation_matrices(p) if representatives is None else tuple(map(conjugation_matrix, representatives))
    psq = p * p
    out = {} if out is None else out
    if ell == 1:
        pair_conj_sum(1, p, {gamma: inv_sqrt_p * v for gamma, v in entries.items()}, mats, out)
        for gamma, v in entries.items():
            _add(out, _divide(gamma, p), v)
        for gamma, v in entries.items():
            _add(out, _scale(gamma, p), v)
    elif ell == 2:
        scaled = {gamma: inv_sqrt_p * v for gamma, v in entries.items()}
        pair_conj_sum(2, p, scaled, mats, out)
        pair_conj_sum(0, p, scaled, mats, out)
        for gamma, v in entries.items():
            _add(out, gamma, weights.eps[_epsilon_case(gamma, p)] * v)
    else:
        for gamma, v in entries.items():
            _add(out, _divide(gamma, psq), v)
        for gamma, v in entries.items():
            _add(out, _scale(gamma, psq), v)
        for gamma, v in entries.items():
            _add(out, gamma, weights.mid[_epsilon_case(gamma, p)] * v)
        low = {gamma: inv_sqrt_p * (-weights.inv_p * v) for gamma, v in entries.items()}
        pair_conj_sum(2, p, low, mats, out)
        pair_conj_sum(0, p, low, mats, out)
        u = [(gamma, inv_sqrt_p * v) for gamma, v in entries.items() if _epsilon_case(gamma, p) == 0]
        for beta, v in _pair_terms(1, p, entries.items(), mats):
            beta = _scale(beta, p)
            _add(out, beta, inv_sqrt_p * v)
            u.append((beta, weights.inv_p * v))
        for beta, v in _pair_terms(0, p, u, mats):
            _add(out, beta, v)
    return {beta: value for beta, value in sorted(out.items()) if value}


def relation_residual_by_applies(p, A):
    """H_1(H_1 A) - (1 + 1/p) H_2 A - H_3 A - (1 + 1/p + 1/p^2 + 1/p^3) A from four public apply_hecke calls and
    the field's own + and scale: the reference for ``hecke.verify_hecke_relation``, which runs the three operators
    on one shared scatter of A and merges their terms into one residual."""
    A = A.with_prime(p)
    outer = hecke.apply_hecke(1, p, hecke.apply_hecke(1, p, A))
    return (outer + hecke.apply_hecke(2, p, A).scale(-(1 + Fraction(1, p))) + hecke.apply_hecke(3, p, A).scale(-1)
            + A.scale(-hecke.hecke_relation_constant(p)))


def apply_hecke_float_dict(ell, p, entries, out=None) -> dict:
    """H_ell on a dict of complex doubles through apply_dict: the reference for
    ``hecke.apply_hecke_float``, which adds the same terms in the same order on arrays."""
    quaternions.require_odd_prime(p)
    return apply_dict(ell, p, dict(entries), hecke._hecke_weights(p, float), 1.0 / math.sqrt(p), out=out)


def commutator_dict(p, q, ell, m, A) -> float:
    """Max-abs entry of [H_ell(p), H_m(q)] A on dicts: the reference for ``hecke.verify_commutativity``.

    The terms of H_ell(p) on H_m(q) A, then those of H_m(q) on -H_ell(p) A, are added into one dict,
    so each key sums both orders' terms in the order that the array path merges them."""
    entries = A.as_complex_dict()
    acc = {}
    apply_hecke_float_dict(ell, p, apply_hecke_float_dict(m, q, entries), acc)
    apply_hecke_float_dict(m, q, {k: -v for k, v in apply_hecke_float_dict(ell, p, entries).items()}, acc)
    return max(map(abs, acc.values()), default=0.0)


def symmetrized_dict(A):
    """The average of A over the four coordinate sign patterns by a loop over QComplex values, adding
    quarter shares, keys in key order: the reference for ``CoefficientField.symmetrized`` on numerator rows."""
    out = {}
    for beta, value in A.entries.items():
        for s in ((1, 1, 1), *(flip for _, flip in UNIT_FLIPS.values())):
            _add(out, (s[0] * beta[0], s[1] * beta[1], s[2] * beta[2]), value * Fraction(1, 4))
    return hecke.CoefficientField(A.p, {beta: v for beta, v in sorted(out.items()) if v})


def _parse_scalar_quad(raw, p):
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list) or not 1 <= len(raw) <= 2:
        raise FileFormatError(f"scalar must be a 1- or 2-element list of rationals, got {raw!r}")
    a = _parse_rational(raw[0])
    b = _parse_rational(raw[1]) if len(raw) == 2 else Fraction(0)
    if b != 0 and p is None:
        raise FileFormatError("sqrt component present but no prime p declared")
    return hecke.QuadExt(p if (b != 0 or p is not None) else None, a, b)


def parse_coefficient_field_quad(path):
    """A coefficient file read through Fraction, QuadExt and QComplex into the public constructor: the
    reference for ``files.parse_coefficient_field``, which reads the rationals straight into numerator rows."""
    with open(path) as fh:
        data = json.load(fh)
    rows = _entries(data, "coefficient file")
    p = data.get("p")
    if p is not None:
        if not _is_integer(p):
            raise FileFormatError(f"p must be an integer, got {p!r}")
        p = int(p)
    entries = {}
    for beta, row in rows.items():
        if beta == (0, 0, 0):
            raise FileFormatError("entry at beta = 0 is not allowed")
        re, im = (_parse_scalar_quad(row.get(part, "0"), p) for part in ("re", "im"))
        entries[beta] = hecke.QComplex(re, im)
    return hecke.CoefficientField(p, entries)


def fields_equal_by_entries(A, B) -> bool:
    """A == B as QComplex values key by key, each decoded: the reference for ``CoefficientField.__eq__``."""
    return dict(A.entries.items()) == dict(B.entries.items())


def random_field_quad(rng, *, p=None, support=8, coord_bound=3, entry_bound=10, sqrt_parts=False):
    """A random field drawn as QComplex values into the public constructor: the reference for
    ``CoefficientField.random``, which writes the same draws straight into numerator rows."""
    if sqrt_parts and p is None:
        raise ValueError("sqrt parts require a prime context")
    entries = {}
    while len(entries) < support:
        beta = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(3))
        if beta == (0, 0, 0) or beta in entries:
            continue

        def scalar():
            a = Fraction(rng.randint(-entry_bound, entry_bound))
            b = Fraction(rng.randint(-entry_bound, entry_bound)) if sqrt_parts else Fraction(0)
            return hecke.QuadExt(p if sqrt_parts else None, a, b)

        value = hecke.QComplex(scalar(), scalar())
        if value:
            entries[beta] = value
    return hecke.CoefficientField(p, entries)


def ones_ball_loop(radius, p=None):
    """A(beta) = 1 on the nonzero lattice ball N(beta) <= radius by a loop over the coordinate box, in
    loop order: the reference for ``CoefficientField.ones_ball``."""
    m = math.isqrt(radius)
    box = range(-m, m + 1)
    return hecke.CoefficientField(p, {(b0, b1, b2): hecke.QComplex.of(1, p=p) for b0 in box for b1 in box for b2 in box
                                      if (b0, b1, b2) != (0, 0, 0) and b0 * b0 + b1 * b1 + b2 * b2 <= radius})
