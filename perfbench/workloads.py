"""The benchmark's workloads: seeded inputs, the timed operations and their checks.

Every workload is a closed loop with one client: the runner calls one
operation, waits for its result, then checks it outside the timed
interval.  Operation kinds follow a fixed round-robin order, so a
percentile falls on the same kinds in every run.  All inputs are drawn
from the workload seed during set-up, before the first timed operation.

Operations call the library through module attributes (``lib.hecke.
apply_hecke``, never a captured function object), so the traced run can
replace those attributes with timing wrappers.

Each operation's check returns a ``Verdict``.  ``rel_err`` is the
relative error of a float result against an independent reference
(mpmath, brute-force enumeration, an exact identity); exact checks give 0.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import references

MODULES = ("hecke", "sums", "numerics", "quaternions", "geometry", "asymptotics", "files", "cli")
PRIMES = (3, 5, 7)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    rel_err: float = 0.0
    detail: str = ""
    cross: float = 0.0  # cusp ops: |cusp_sum_I - direct| / |cusp_sum_I|, as the CLI reports it


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    inputs: dict
    vectorized: bool = False  # time spent in numpy kernels rather than the interpreter


@dataclass
class Workload:
    """One set of inputs, built by ``build(lib, rng, tmpdir)`` into a list of Ops.

    ``min_ops`` is reached even when --seconds runs out first; it fixes the
    tail percentile (see run.tail_percentile).  ``max_ops`` is the number of
    inputs drawn at set-up; a run stops early if it uses them all.
    """

    name: str
    build: Callable
    cycle: int
    min_ops: int
    max_ops: int
    reset: Optional[Callable] = None


def fresh_import():
    """Import h4hecke from scratch and return its modules as one namespace.

    Purging the package from sys.modules re-executes every module, so each
    set-up pays the import and rebuilds the first-use tables afresh.
    """
    for name in [m for m in sys.modules if m == "h4hecke" or m.startswith("h4hecke.")]:
        del sys.modules[name]
    importlib.import_module("h4hecke")
    return SimpleNamespace(**{m: importlib.import_module(f"h4hecke.{m}") for m in MODULES})


def _blocked(rng: random.Random, values, n: int) -> list:
    """n draws from values, taken in shuffled blocks that each hold every value once.

    Every run then sees nearly the same mix of input sizes, which keeps
    throughput steady across seeds while each value still comes from the seed.
    """
    out = []
    while len(out) < n:
        block = list(values)
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


def _stratified(rng: random.Random, n: int, strata: int = 16) -> list[float]:
    """n uniforms on [0, 1), one per stratum in each shuffled block of ``strata``."""
    return [(k + rng.random()) / strata for k in _blocked(rng, range(strata), n)]


def _warm_tables(lib, primes=PRIMES):
    for p in primes:
        lib.quaternions.orbit_representatives(p)
        lib.quaternions.conjugation_matrices(p)
        lib.quaternions.star_conjugation_matrices(p)


def witness(obj):
    """JSON form of an input for a failure witness (fields list every entry)."""
    if hasattr(obj, "entries") and isinstance(obj.entries, dict):
        return {"p": obj.p, "entries": [[list(b), str(v.re), str(v.im)]
                                        for b, v in sorted(obj.entries.items())]}
    if hasattr(obj, "as_tuple"):
        return obj.as_tuple()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return str(obj)


# -- hecke_exact ------------------------------------------------------------------

HECKE_FIELDS_PER_PRIME = 40


def build_hecke_exact(lib, rng: random.Random, tmpdir: Path, count: int) -> list[Op]:
    """Exact quadratic relation on random Q(sqrt p) fields; every fifth op is the CLI.

    Fields are drawn as ``hecke verify-relation`` draws them: support 8,
    coordinate bound 3, entries a + b sqrt p with |a|, |b| <= 10.
    """
    hecke = lib.hecke
    pools = {
        p: [hecke.CoefficientField.random(rng, p=p, support=8, coord_bound=3, entry_bound=10,
                                          sqrt_parts=True)
            for _ in range(HECKE_FIELDS_PER_PRIME)]
        for p in PRIMES
    }
    cli_files = {}
    for p in PRIMES:
        for k in range(HECKE_FIELDS_PER_PRIME):
            path = tmpdir / f"field-p{p}-{k}.json"
            lib.files.write_coefficient_field(pools[p][k], path)
            cli_files[(p, k)] = path
    _warm_tables(lib)

    def relation(p, A):
        def run():
            return lib.hecke.verify_hecke_relation(p, A)

        def check(residual):
            if residual.is_zero:
                return Verdict(True)
            beta, value = next(iter(residual.entries.items()))
            return Verdict(False, detail=f"nonzero residual at {beta}: {value}")
        return run, check

    out = tmpdir / "out.json"

    def cli_apply(ell, p, A, k):
        inp = cli_files[(p, k)]
        argv = ["--json", "hecke", "apply", "--op", str(ell), "--p", str(p),
                "--in", str(inp), "--out", str(out)]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = lib.cli.main(argv)
            return code, buf.getvalue()

        def check(result):
            code, stdout = result
            if code != 0:
                return Verdict(False, detail=f"exit code {code}")
            expected = lib.hecke.apply_hecke(ell, p, A)
            report = json.loads(stdout)
            if report.get("support") != len(expected.entries):
                return Verdict(False, detail=f"reported support {report.get('support')} "
                                             f"!= {len(expected.entries)}")
            if lib.files.parse_coefficient_field(out) != expected:
                return Verdict(False, detail="written field differs from apply_hecke")
            return Verdict(True)
        return run, check

    ops = []
    for i in range(count):
        p = PRIMES[i % 3]
        k = (i // 3) % HECKE_FIELDS_PER_PRIME
        A = pools[p][k]
        inputs = {"p": p, "field": A}
        if i % 5 == 4:
            ell = 1 + (i // 5) % 3
            run, check = cli_apply(ell, p, A, k)
            ops.append(Op("cli_apply", run, check, {**inputs, "ell": ell}))
        else:
            run, check = relation(p, A)
            ops.append(Op("relation", run, check, inputs))
    return ops


# -- conj_sums --------------------------------------------------------------------

CONJ_FIELDS = 256  # more than the cycles of a 30 s run, so a run uses each field once
COMMUTE_PARAMS = [(p, q, ell, m) for p, q in ((3, 5), (3, 7), (5, 7)) for ell in (1, 2) for m in (1, 2)]
WINDOW_P = 14
WINDOW_K = 1


def build_conj_sums(lib, rng: random.Random, tmpdir: Path, count: int) -> list[Op]:
    """Conjugate-sum operators over sign-symmetric fields of 48-88 entries.

    Field k has random support points, support size 12 + k % 13 and
    coordinate bound 3 + (k // 2) % 2; the four ops of round-robin cycle j
    share field j.  Every op kind, and each of L6.4a and L6.4b, therefore
    sees the same mix of field sizes in every run, whatever the seed.
    """
    hecke, sums = lib.hecke, lib.sums
    supports = [12 + k % 13 for k in range(CONJ_FIELDS)]
    bounds = [3 + (k // 2) % 2 for k in range(CONJ_FIELDS)]
    fields = [hecke.CoefficientField.random(rng, p=None, support=s, coord_bound=b,
                                            entry_bound=10).symmetrized()
              for s, b in zip(supports, bounds)]
    lams = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(CONJ_FIELDS)]
    window = sums.PrimeWindow.from_bound(WINDOW_P)
    _warm_tables(lib, sorted(set(PRIMES) | set(window.primes)))

    def commute(p, q, ell, m, A):
        def run():
            return lib.hecke.verify_commutativity(p, q, ell, m, A)

        def check(value):
            # The commutator vanishes exactly on sign-symmetric fields; 1e-9 is the CLI's bound.
            return Verdict(value < 1e-9, detail=f"commutator {value:.3e}")
        return run, check

    def eigen(p, lam12, A):
        lam = hecke.EigenvalueTriple.from_lam12(p, *lam12)

        def run():
            return lib.hecke.eigen_residual(A, lam)

        def check(rep):
            if rep.safe_radius != Fraction(A.support_radius, p ** 4):
                return Verdict(False, detail=f"safe radius {rep.safe_radius}")
            if rep.residuals is None:
                ok = rep.empty_safe_support and rep.points_checked == 0
                return Verdict(ok, detail="empty safe ball")
            ok = all(math.isfinite(r) for r in rep.residuals)
            return Verdict(ok, detail=f"residuals {rep.residuals}")
        return run, check

    def shift(p, A):
        radius = A.support_radius

        def run():
            identities = [lib.sums.verify_R_shift_identity(A, p, ell, 1, radius * p ** (2 * ell))
                          for ell in (0, 1, 2)]
            return identities, [lib.sums.sum_R(A, p, ell, 1, radius) for ell in (0, 1, 2)]

        def check(result):
            identities, values = result
            if not all(identities):
                return Verdict(False, detail="shift identity returned False")
            for ell, value in enumerate(values):
                ref = references.brute_sum_R(lib, A, p, ell, radius)
                if value != ref:
                    return Verdict(False, detail=f"sum_R ell={ell}: {value} != brute force {ref}")
            return Verdict(True)
        return run, check

    def inequality(which, A):
        radius = A.support_radius
        z = radius if which == "L6.4a" else radius * (WINDOW_P // 2) ** 2

        def run():
            return lib.sums.inequality_report(which, A=A, z=z, window=window, K=WINDOW_K)

        def check(rep):
            if which == "L6.4a":
                ref = WINDOW_K * float(references.brute_sum_S(A, z))
            else:
                ref = len(window) * float(references.brute_sum_S(A, Fraction(z, (WINDOW_P // 2) ** 2)))
            if not (math.isfinite(rep.left) and rep.left >= 0):
                return Verdict(False, detail=f"left side {rep.left}")
            rel = abs(rep.right - ref) / abs(ref) if ref else abs(rep.right)
            return Verdict(rep.right == ref, rel, detail=f"right {rep.right!r} vs brute force {ref!r}")
        return run, check

    ops = []
    for i in range(count):
        j = i // 4
        k = j % CONJ_FIELDS
        A = fields[k]
        inputs = {"field": A, "support": supports[k], "coord_bound": bounds[k]}
        kind = ("commute", "eigen", "shift", "inequality")[i % 4]
        if kind == "commute":
            params = COMMUTE_PARAMS[j % len(COMMUTE_PARAMS)]
            run, check = commute(*params, A)
            inputs["p,q,ell,m"] = params
        elif kind == "eigen":
            p = PRIMES[j % 3]
            run, check = eigen(p, lams[k], A)
            inputs.update(p=p, lam12=lams[k])
        elif kind == "shift":
            p = PRIMES[j % 3]
            run, check = shift(p, A)
            inputs["p"] = p
        else:
            which = ("L6.4a", "L6.4b")[j % 2]
            run, check = inequality(which, A)
            inputs["which"] = which
        ops.append(Op(kind, run, check, inputs))
    return ops


# -- spectral ---------------------------------------------------------------------

SPECTRAL_BETAS = [(a, b, c) for a in range(-3, 4) for b in range(-3, 4) for c in range(-3, 4)
                  if 0 < a * a + b * b + c * c <= 6]
ROW_POINTS = 16
PARSEVAL_HEIGHTS = (0.5, 1.0, 2.0)
CUSP_T = 1.5
LAPLACE_POINT = (0.1, 0.2, 0.3, 0.3)  # the CLI's default evaluation point
SPECTRAL_REF_CYCLES = 2  # leading cycles whose results are also checked against mpmath


def build_spectral(lib, rng: random.Random, tmpdir: Path, count: int) -> list[Op]:
    """Float spectral layer on forms with r in [0, 3] and 3-6 modes of norm <= 6.

    Each op gets its own form; r is continuous, so the float-keyed K_{ir}
    cache gets no hits across ops.  Library defaults (tolerances, step h)
    are used throughout, as the CLI uses them.
    """
    numerics = lib.numerics
    rs = [3.0 * u for u in _stratified(rng, count)]
    sizes = _blocked(rng, range(3, 7), count)
    forms = []
    for r, k in zip(rs, sizes):
        betas = rng.sample(SPECTRAL_BETAS, k)
        coeffs = {b: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for b in betas}
        forms.append(numerics.SpectralForm.from_dict(r, coeffs))

    def box_point():
        return rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)

    def evaluate(form, points, full):
        def run():
            return [lib.numerics.evaluate_form(form, z) for z in points]

        def check(values):
            if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values):
                return Verdict(False, detail="non-finite value")
            if not full:
                return Verdict(True)
            rel = max(references.form_rel_err(form, z, v) for z, v in zip(points, values))
            return Verdict(rel < 1e-6, rel, detail=f"normwise error vs mpmath {rel:.3e}")
        return run, check

    def parseval(form, y):
        def run():
            return lib.numerics.parseval_check(form, y)

        def check(rep):
            return Verdict(rep.rel_error < 1e-6, detail=f"parseval rel_error {rep.rel_error:.3e}")
        return run, check

    def cusp(form, full):
        def run():
            return lib.numerics.cusp_sum_I(form, CUSP_T), lib.numerics.direct_cusp_integral(form, CUSP_T)

        def check(result):
            value, direct = result
            cross = abs(value - direct) / max(abs(value), 1e-300)  # as `maass cusp --cross-check`
            rel, detail = 0.0, f"cusp_sum_I {value:.6e} direct {direct:.6e} cross {cross:.3e}"
            ok = cross < 1e-3
            if full:
                ref = references.cusp_mass(form, CUSP_T)
                rel = max(abs(value - ref), abs(direct - ref)) / ref
                ok = ok and abs(value - ref) / ref < 1e-3
                detail += f" mpmath {ref:.6e}"
            return Verdict(ok, rel, detail, cross)
        return run, check

    def laplace(beta, r):
        def run():
            return lib.numerics.laplace_eigen_residual(beta, r, LAPLACE_POINT)

        def check(residual):
            # 1e-4 is acceptance 12's bound for N(beta) <= 2 at the default h; central
            # differences err by O(N(beta)^2 h^2), so the bound scales with N^2 beyond that.
            n = sum(b * b for b in beta)
            bound = 1e-4 * max(1.0, (n / 2) ** 2)
            return Verdict(residual < bound, detail=f"residual {residual:.3e} bound {bound:.1e}")
        return run, check

    ops = []
    for i in range(count):
        form = forms[i]
        j = i // 5
        full = j < SPECTRAL_REF_CYCLES
        inputs = {"r": form.r, "entries": form.entries}
        kind = ("row", "scattered", "parseval", "cusp", "laplace")[i % 5]
        if kind == "row":
            y = rng.uniform(0.25, 1.25)
            points = [(*box_point(), y) for _ in range(ROW_POINTS)]
            run, check = evaluate(form, points, full)
            inputs["y"] = y
        elif kind == "scattered":
            points = [(*box_point(), rng.uniform(0.25, 1.25)) for _ in range(ROW_POINTS)]
            run, check = evaluate(form, points, full)
            inputs["points"] = points
        elif kind == "parseval":
            y = PARSEVAL_HEIGHTS[j % 3]
            run, check = parseval(form, y)
            inputs["y"] = y
        elif kind == "cusp":
            run, check = cusp(form, full)
            inputs["T"] = CUSP_T
        else:
            beta = form.entries[rng.randrange(len(form.entries))][0]
            run, check = laplace(beta, form.r)
            inputs["beta"] = beta
        ops.append(Op(kind, run, check, inputs))
    return ops


def _reset_spectral(lib):
    """Empty the K_{ir} cache so a second pass over the same ops repeats its misses."""
    lib.numerics._bessel_cached.cache_clear()


# -- sweep_geometry ---------------------------------------------------------------

LEMMA_BOUND = 12
GEOMETRY_POINTS = 200
GEOMETRY_BATCHES = 40
# Reduction runs twice per cycle, so the median op falls inside the reduction
# cluster rather than on the gap between two kinds, where it would jump.
SWEEP_KINDS = ("lemmas", "reduce", "cusp_decomposition", "compute_R", "reduce")


def build_sweep_geometry(lib, rng: random.Random, tmpdir: Path, count: int) -> list[Op]:
    """Numpy lemma sweeps, float fundamental-domain reduction, cusp tiling and compute_R."""
    geometry, asymptotics = lib.geometry, lib.asymptotics
    # Acceptance 13's distribution: x uniform in [-3, 3]^3, y uniform in [0.05, 50].
    batches = [[geometry.PointH4(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3),
                                 rng.uniform(0.05, 50)) for _ in range(GEOMETRY_POINTS)]
               for _ in range(GEOMETRY_BATCHES)]
    n_r = count // len(SWEEP_KINDS) + 1
    r_params = [(rng.uniform(10, 50), m, 10 ** (-1 - 3 * u))
                for m, u in zip(_blocked(rng, range(4), n_r), _stratified(rng, n_r))]
    cusp_seeds = [rng.randrange(2 ** 31) for _ in range(n_r)]
    _warm_tables(lib)

    def lemmas(p):
        def run():
            return lib.quaternions.verify_conjugation_lemmas(p, LEMMA_BOUND)

        def check(rep):
            betas = (2 * LEMMA_BOUND + 1) ** 3 - 1
            alphas = 8 * (p + 1)  # Jacobi's four-square count at an odd prime
            ok = (rep.beta_count, rep.alpha_count, rep.pairs_checked) == (betas, alphas, betas * alphas)
            return Verdict(ok, detail=f"{rep.beta_count} betas x {rep.alpha_count} alphas, "
                                      f"{rep.pairs_checked} pairs")
        return run, check

    def reduce_batch(points):
        def run():
            out = []
            for z in points:
                word, reduced = lib.geometry.reduce_to_fundamental_domain(z)
                g = lib.geometry.word_to_matrix(word)
                out.append((word, reduced, g, lib.geometry.act(g, z) if word else z))
            return out

        def check(results):
            worst = 0.0
            for z, (word, reduced, g, moved) in zip(points, results):
                if not references.in_fundamental_domain(reduced.as_tuple()):
                    return Verdict(False, detail=f"{z} reduced to {reduced}, outside F")
                if not lib.geometry.is_integral_sv2(g):
                    return Verdict(False, detail=f"word {word} for {z} is not in SV2(Z)")
                diff = max(abs(a - b) for a, b in zip(moved.as_tuple(), reduced.as_tuple()))
                if not diff < 1e-9:
                    return Verdict(False, detail=f"round trip of {z} off by {diff:.3e}")
                worst = max(worst, diff / max(abs(c) for c in reduced.as_tuple()))
            return Verdict(True, worst)
        return run, check

    def cusp_decomposition(seed):
        def run():
            return lib.geometry.verify_cusp_decomposition(2.0, 1000, seed=seed)

        def check(rep):
            ok = (rep.interior_checked + rep.boundary_ties == 1000
                  and rep.interior_checked == sum(rep.matches_by_matrix.values()))
            return Verdict(ok, detail=f"interior {rep.interior_checked} ties {rep.boundary_ties}")
        return run, check

    def compute_r(A, M, eps):
        def run():
            return lib.asymptotics.compute_R(A, M, eps)

        def check(R):
            holds = lib.asymptotics.r_conditions_hold
            ok = holds(A, M, eps, R) and not holds(A, M, eps, R - 1)
            return Verdict(ok, detail=f"R = {R}")
        return run, check

    ops = []
    for i in range(count):
        j = i // len(SWEEP_KINDS)
        kind = SWEEP_KINDS[i % len(SWEEP_KINDS)]
        if kind == "lemmas":
            p = PRIMES[j % 3]
            run, check = lemmas(p)
            inputs = {"p": p, "bound": LEMMA_BOUND}
        elif kind == "reduce":
            b = (2 * j + (i % len(SWEEP_KINDS) == 4)) % GEOMETRY_BATCHES
            run, check = reduce_batch(batches[b])
            inputs = {"batch": b, "points": batches[b]}
        elif kind == "cusp_decomposition":
            run, check = cusp_decomposition(cusp_seeds[j])
            inputs = {"T": 2.0, "samples": 1000, "seed": cusp_seeds[j]}
        else:
            A, M, eps = r_params[j]
            run, check = compute_r(A, M, eps)
            inputs = {"A": A, "M": M, "eps": eps}
        ops.append(Op(kind, run, check, inputs, vectorized=kind == "lemmas"))
    return ops


WORKLOADS = {
    w.name: w for w in (
        Workload("hecke_exact", build_hecke_exact, cycle=15, min_ops=100, max_ops=2000),
        Workload("conj_sums", build_conj_sums, cycle=4, min_ops=200, max_ops=4000),
        Workload("spectral", build_spectral, cycle=5, min_ops=100, max_ops=2000,
                 reset=_reset_spectral),
        Workload("sweep_geometry", build_sweep_geometry, cycle=5, min_ops=100, max_ops=2000),
    )
}
