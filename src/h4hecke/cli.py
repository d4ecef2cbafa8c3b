"""Command-line front end: one entry point dispatching to every subsystem.

Subcommand groups: quat (quaternion tables and lemma sweeps), geom
(actions, reduction, cusp tiling), hecke (operators on coefficient
files), sums (lattice sums, reports, prime partition), asym (recursion
constants and decay checks), maass (spectral-mode numerics).  All
randomized verifications take an explicit --seed (default 0) so runs
are reproducible; --json switches to machine-readable reports tagged
with a schema version.  Exit codes: 0 success/verified, 1 verification
failure (witness printed), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import random
import sys
from fractions import Fraction
from typing import Optional

from . import asymptotics, files, geometry, hecke, numerics, sums
from .files import SCHEMA_VERSION
from .quaternions import enumerate_norm, orbit_representatives, verify_conjugation_lemmas


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        payload = {"schema": SCHEMA_VERSION, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _parse_point(text: str):
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("point must be x0,x1,x2,y")
    if not all(map(math.isfinite, parts)):
        raise argparse.ArgumentTypeError(f"point coordinates must be finite, got {text}")
    return geometry.PointH4(*parts)


def _parse_finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _parse_positive(text: str) -> float:
    value = _parse_finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _parse_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _parse_beta(text: str):
    parts = [int(t) for t in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("beta must be b0,b1,b2")
    return tuple(parts)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


# -- quat ------------------------------------------------------------------


def _cmd_quat_enum(args) -> int:
    for q in enumerate_norm(args.norm):
        print(f"{q.a} {q.b} {q.c} {q.d}")
    return 0


def _cmd_quat_reps(args) -> int:
    for q in orbit_representatives(args.p).representatives:
        print(f"{q.a} {q.b} {q.c} {q.d}")
    return 0


def _cmd_quat_verify(args) -> int:
    report = verify_conjugation_lemmas(args.p, args.bound, args.q or None)
    _emit(args, dataclasses.asdict(report),
          f"OK p={report.p} bound={report.bound}: {report.pairs_checked} (beta, alpha) pairs, "
          f"0 violations; max v_p jump {report.max_vp_jump}, max |I(beta)| {report.max_exceptional_set}, "
          f"max squared-divisibility count {report.squared_divisibility_max_small}")
    return 0


# -- geom ------------------------------------------------------------------


def _cmd_geom_reduce(args) -> int:
    word, point = geometry.reduce_to_fundamental_domain(args.point)
    tokens = [f"translate{t[1]}" if t[0] == "translate" else t[0] for t in word]
    _emit(args, {"word": word, "point": point.as_tuple()},  # a translation is ["translate", [s0, s1, s2]]
          f"word: [{', '.join(tokens)}]\n"
          f"point: {point.x0:.12g},{point.x1:.12g},{point.x2:.12g},{point.y:.12g}")
    return 0


def _cmd_geom_act(args) -> int:
    vals = args.matrix
    if any(abs(v) > sys.float_info.max for v in vals):  # act works in doubles
        raise ValueError(f"matrix entries must lie within the double range, +-{sys.float_info.max:g}")
    quats = [geometry.Quaternion(*vals[i:i + 4]) for i in range(0, 16, 4)]
    g = geometry.IsometryMatrix(*quats)
    if not geometry.is_similitude(g):
        raise ValueError("matrix is not a similitude: it needs a real pseudo-determinant "
                         "a d^* - b c^* > 0 and a b^*, d c^* without k-component")
    try:
        z = geometry.act(g, args.point)
    except ArithmeticError as exc:  # c z + d vanishes in doubles: the point is too close to a pole of g
        raise ValueError(f"cannot act on {args.point.as_tuple()}: {exc}") from exc
    _emit(args, {"point": z.as_tuple()},
          f"{z.x0:.12g},{z.x1:.12g},{z.x2:.12g},{z.y:.12g}")
    return 0


def _cmd_geom_verify_cusp(args) -> int:
    report = geometry.verify_cusp_decomposition(args.T, args.samples, seed=args.seed)
    _emit(args, dataclasses.asdict(report),
          f"OK T={report.T}: {report.interior_checked} interior samples each matched exactly once "
          f"({report.boundary_ties} boundary ties); matches {report.matches_by_matrix}")
    return 0


# -- hecke -----------------------------------------------------------------


def _cmd_hecke_apply(args) -> int:
    field = files.parse_coefficient_field(args.infile)
    out = hecke.apply_hecke(args.op, args.p, field)
    files.write_coefficient_field(out, args.outfile)
    _emit(args, {"support": len(out.entries), "radius": out.support_radius},
          f"wrote H_{args.op} output: {len(out.entries)} entries, support radius {out.support_radius}")
    return 0


def _cmd_hecke_verify_relation(args) -> int:
    rng = random.Random(args.seed)
    for trial in range(args.trials):
        field = hecke.CoefficientField.random(
            rng, p=args.p, support=args.support, coord_bound=3, entry_bound=10, sqrt_parts=True)
        residual = hecke.verify_hecke_relation(args.p, field)
        if not residual.is_zero:
            print(f"FAIL trial {trial}: nonzero residual with {len(residual.entries)} entries; "
                  f"witness {next(iter(residual.entries.items()))}", file=sys.stderr)
            return 1
    _emit(args, {"p": args.p, "trials": args.trials, "residual": "zero"},
          f"OK p={args.p}: residual zero (exact) on {args.trials} random fields")
    return 0


# The bound of acceptance 5 on the commutator residual in doubles.  The command draws its own fields,
# with entries up to 10, so the one bound serves every input it admits.
COMMUTE_BOUND = 1e-9


def _cmd_hecke_commute(args) -> int:
    rng = random.Random(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        # sign-symmetric fields: the subspace where cross-prime commutativity holds
        field = hecke.CoefficientField.random(rng, p=None, support=args.support,
                                              coord_bound=3, entry_bound=10).symmetrized()
        for ell in (1, 2):
            for m in (1, 2):
                worst = max(worst, hecke.verify_commutativity(args.p, args.q, ell, m, field))
    payload = {"p": args.p, "q": args.q, "trials": args.trials, "max_residual": worst}
    if worst >= COMMUTE_BOUND:
        print(f"FAIL: commutator residual {worst} >= {COMMUTE_BOUND}", file=sys.stderr)
        return 1
    _emit(args, payload, f"OK p={args.p} q={args.q}: max commutator residual {worst:.3e}")
    return 0


# -- sums ------------------------------------------------------------------


def _cmd_sums_compute(args) -> int:
    field = files.parse_coefficient_field(args.infile)
    if args.kind == "S":
        value = sums.sum_S_d(field, args.d, args.z)
        name = f"S_{args.d}({args.z})"
    else:
        if args.p is None:
            raise ValueError("sums compute --kind R requires --p")
        value = sums.sum_R(field, args.p, args.ell, args.d, args.z)
        name = f"R^({args.p},{args.ell})_{args.d}({args.z})"
    try:
        approx = float(value)
    except OverflowError:  # the int / int divisions of _quad_float past the double range
        approx = math.inf
    if not math.isfinite(approx):
        raise ValueError(f"{name} leaves the double range")
    _emit(args, {"value": approx, "exact": str(value)}, f"{name} = {approx}")
    return 0


# the option that supplies each keyword of sums.inequality_report
_REPORT_FLAGS = {"p": "--p", "d": "--d", "c": "--c", "k": "--k", "ell": "--ell", "K": "--K", "window": "--window-P",
                 "lam_table": "--lambda-table", "lam": "--lambda-table with a row for --p"}


def _cmd_sums_report(args) -> int:
    field = files.parse_coefficient_field(args.infile)
    table = files.parse_lambda_table(args.lambda_table) if args.lambda_table else None
    kw: dict = {"A": field, "z": args.z}
    if args.p is not None:
        kw["p"] = args.p
        if table is not None and args.p in table:
            kw["lam"] = table[args.p]
    for name in ("d", "c", "k", "ell", "K"):
        val = getattr(args, name)
        if val is not None:
            kw[name] = val
    if table is not None:
        kw["lam_table"] = table
    if args.window_P is not None:
        kw["window"] = sums.PrimeWindow.from_bound(args.window_P)
    kw["const_A"] = args.const_A
    kw["const_B"] = args.const_B
    try:
        report = sums.inequality_report(args.which, **kw)
    except KeyError as exc:
        if exc.args and exc.args[0] in _REPORT_FLAGS:  # a keyword the inequality reads was not given
            raise ValueError(f"sums report --which {args.which} needs {_REPORT_FLAGS[exc.args[0]]}") from None
        raise
    if args.assert_with_constant:
        report.asserted()
    ratio = "n/a (vacuous)" if report.ratio is None else f"{report.ratio:.6g}"
    _emit(args, dataclasses.asdict(report),
          f"{report.name}: left={report.left:.6g} right={report.right:.6g} ratio={ratio}")
    return 0


def _cmd_sums_partition(args) -> int:
    table = files.parse_lambda_table(args.lambda_table)
    part = sums.partition_primes(table, args.y)
    _emit(args, {"P": part.P, "J": part.J, "Q": part.Q, "best": part.best,
                 "best_cell": part.best_cell,
                 "cells": {"-".join(map(str, k)): v for k, v in part.cells.items()}},
          f"P={part.P:.6g} |Q|={len(part.Q)} J={part.J} best cell {part.best} "
          f"with {len(part.best_cell)} primes {part.best_cell}")
    return 0


# -- asym ------------------------------------------------------------------


def _cmd_asym_compute_R(args) -> int:
    R = asymptotics.compute_R(args.A, args.M, args.eps)
    _emit(args, {"R": R}, f"R = {R}")
    return 0


def _cmd_asym_verify(args) -> int:
    f = files.parse_sampled_function(args.f)
    params = files.parse_decay_params(args.params)
    hyp = asymptotics.check_recursive_hypothesis(f, params)
    R = asymptotics.compute_R(params.A, params.M, params.eps)
    conclusion = asymptotics.check_decay_conclusion(f, R, params.delta)
    payload = {
        "hypothesis_passed": hyp.passed,
        "worst_margin": hyp.worst_margin,
        "worst_y": hyp.worst_y,
        "R": R,
        "minimal_C": conclusion.minimal_C,
    }
    _emit(args, payload,
          f"hypothesis {'PASS' if hyp.passed else 'FAIL'} (worst margin {hyp.worst_margin:.6g} "
          f"at y={hyp.worst_y:.6g}); R={R}; minimal C={conclusion.minimal_C:.6g}")
    return 0 if hyp.passed else 1


# -- maass -----------------------------------------------------------------


def _cmd_maass_eval(args) -> int:
    form = files.parse_spectral_form(args.form)
    value = numerics.evaluate_form(form, args.point)
    _emit(args, {"value": {"re": value.real, "im": value.imag}}, f"phi(z) = {value.real:.12g} + {value.imag:.12g}i")
    return 0


def _cmd_maass_parseval(args) -> int:
    form = files.parse_spectral_form(args.form)
    report = numerics.parseval_check(form, args.y)
    _emit(args, dataclasses.asdict(report),
          f"box integral {report.box_integral:.12g} vs coefficient sum "
          f"{report.coefficient_sum:.12g}; relative error {report.rel_error:.3e}")
    return 0 if report.rel_error < 1e-6 else 1


def _cmd_maass_cusp(args) -> int:
    form = files.parse_spectral_form(args.form)
    value = numerics.cusp_sum_I(form, args.T)
    payload = {"T": args.T, "coefficient_side": value}
    human = f"cusp mass (coefficient side, T={args.T}): {value:.12g}"
    if args.cross_check:
        if not value >= sys.float_info.min:
            raise ValueError(f"the coefficient side at T = {args.T} is {value:g}, 0 or subnormal: nothing to compare")
        direct = numerics.direct_cusp_integral(form, args.T)
        rel = abs(value - direct) / value
        payload.update({"direct": direct, "rel_error": rel})
        human += f"\ndirect 4-d quadrature: {direct:.12g} (relative difference {rel:.3e})"
        if rel >= 1e-3:
            print(human, file=sys.stderr)
            return 1
    _emit(args, payload, human)
    return 0


# h r / y at and past which laplace-check reports its stencil as unresolved
_UNRESOLVED_H_R_OVER_Y = 0.1


def _cmd_maass_laplace(args) -> int:
    """The relative residual of one mode at h and at h/2, their ratio, and h r / y.

    From h r / y = 0.1 up the report says `unresolved`, and the default h = 1e-3 stays: h is not
    scaled to y/r.  The residual reported there measures the unresolved stencil, not the mode, and
    a smaller --h resolves it.
    """
    point = args.point or geometry.PointH4(0.1, 0.2, 0.3, 0.3)
    residual = numerics.laplace_eigen_residual(args.beta, args.r, point, args.h)
    # Halving h divides an O(h^2) error by about 4; rounding noise, about 1e-16 |u| / h^2,
    # grows instead, and an unresolved stencil gives no fixed ratio.
    payload = {"residual": residual, "h": args.h, "residual_half_h": None, "order_ratio": None,
               "half_h_refusal": None}
    human = f"relative residual of Delta u + (9/4 + r^2) u at h={args.h}: {residual:.3e}"
    try:
        half = numerics.laplace_eigen_residual(args.beta, args.r, point, args.h / 2)
    except ValueError as exc:
        payload["half_h_refusal"] = str(exc)
        human += f"; at h/2 refused: {exc}"
    else:
        payload["residual_half_h"] = half
        human += f"; at h/2: {half:.3e}"
        if half > 0:
            payload["order_ratio"] = residual / half
            human += f"; ratio {residual / half:.5g} (4 for an O(h^2) error)"
    # The mode oscillates in y on a scale of about y/r, which a step of h r / y past 0.1 does not resolve.
    payload["h_r_over_y"] = ratio = args.h * abs(args.r) / point.y
    human += f"; h r / y = {ratio:.2g}"
    if ratio >= _UNRESOLVED_H_R_OVER_Y:
        human += " (unresolved: the mode oscillates on the scale y/r)"
    _emit(args, payload, human)
    return 0


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="h4hecke", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json", action="store_true", help="emit machine-readable reports")
    # every command also takes --json after its own arguments; the suppressed
    # default leaves the top-level value alone when the flag is not repeated there
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                           help="emit machine-readable reports")
    common = [json_flag]
    top = parser.add_subparsers(dest="group", required=True)

    quat = top.add_parser("quat", help="integral quaternion tables and lemma sweeps").add_subparsers(
        dest="cmd", required=True)
    p = quat.add_parser("enum", help="list quaternions of a given norm", parents=common)
    p.add_argument("--norm", type=int, required=True)
    p.set_defaults(func=_cmd_quat_enum)
    p = quat.add_parser("reps", help="list the p+1 orbit representatives", parents=common)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_quat_reps)
    p = quat.add_parser("verify-lemmas", help="exhaustive conjugation-valuation sweep", parents=common)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--q", type=int, action="append", help="odd prime(s) != p for the v_q check")
    p.set_defaults(func=_cmd_quat_verify)

    geom = top.add_parser("geom", help="hyperbolic actions and fundamental domain").add_subparsers(
        dest="cmd", required=True)
    p = geom.add_parser("reduce", help="reduce a point into the fundamental domain", parents=common)
    p.add_argument("--point", type=_parse_point, required=True)
    p.set_defaults(func=_cmd_geom_reduce)
    p = geom.add_parser("act", help="apply a 2x2 quaternion matrix to a point", parents=common)
    p.add_argument("--matrix", type=int, nargs=16, required=True,
                   help="entries a b c d as four quaternion 4-tuples")
    p.add_argument("--point", type=_parse_point, required=True)
    p.set_defaults(func=_cmd_geom_act)
    p = geom.add_parser("verify-cusp", help="sample the four-fold cusp tiling", parents=common)
    p.add_argument("--T", type=_parse_finite, default=2.0)
    p.add_argument("--samples", type=_parse_count, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_geom_verify_cusp)

    hk = top.add_parser("hecke", help="coefficient operators").add_subparsers(dest="cmd", required=True)
    p = hk.add_parser("apply", help="apply H_1, H_2, or H_3 to a coefficient file", parents=common)
    p.add_argument("--op", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_hecke_apply)
    p = hk.add_parser("verify-relation", help="exact quadratic-relation residual on random fields",
                      parents=common)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--trials", type=_parse_count, default=10)
    p.add_argument("--support", type=_parse_count, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_hecke_verify_relation)
    p = hk.add_parser("commute", help="cross-prime commutator residual in doubles", parents=common)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--trials", type=_parse_count, default=5)
    p.add_argument("--support", type=_parse_count, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_hecke_commute)

    sm = top.add_parser("sums", help="lattice sums and inequality reports").add_subparsers(
        dest="cmd", required=True)
    p = sm.add_parser("compute", help="evaluate S_d(z) or R^(p,ell)_d(z)", parents=common)
    p.add_argument("--kind", choices=("S", "R"), required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--p", type=int)
    p.add_argument("--ell", type=int, default=0, help=f"at most sums.MAX_EXPONENT = {sums.MAX_EXPONENT}")
    p.add_argument("--z", type=_parse_fraction, required=True)
    p.set_defaults(func=_cmd_sums_compute)
    p = sm.add_parser("report", help="two-sided inequality report", parents=common)
    p.add_argument("--which", required=True,
                   choices=("Prop6.1", "Cor6.2", "L6.3i", "L6.3ii", "L6.3iii", "L6.4a", "L6.4b", "L6.5"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--z", type=_parse_fraction, required=True)
    p.add_argument("--lambda-table", dest="lambda_table")
    p.add_argument("--p", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--k", type=int, help=f"at most sums.MAX_EXPONENT = {sums.MAX_EXPONENT}")
    p.add_argument("--ell", type=int, help=f"at most sums.MAX_EXPONENT = {sums.MAX_EXPONENT}")
    p.add_argument("--K", type=_parse_finite, help="cutoff of M_ell(K), at least 0")
    p.add_argument("--window-P", type=_parse_finite, help="prime window upper bound P")
    p.add_argument("--const-A", type=_parse_finite, default=1.0)
    p.add_argument("--const-B", type=_parse_finite, default=1.0)
    p.add_argument("--assert-with-constant", action="store_true")
    p.set_defaults(func=_cmd_sums_report)
    p = sm.add_parser("partition", help="dyadic eigenvalue partition of the prime window", parents=common)
    p.add_argument("--y", type=_parse_finite, required=True)
    p.add_argument("--lambda-table", dest="lambda_table", required=True)
    p.set_defaults(func=_cmd_sums_partition)

    asym = top.add_parser("asym", help="recursion constants and decay checks").add_subparsers(
        dest="cmd", required=True)
    p = asym.add_parser("compute-R", help="smallest admissible recursion exponent", parents=common)
    p.add_argument("--A", type=_parse_finite, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--eps", type=_parse_finite, required=True)
    p.set_defaults(func=_cmd_asym_compute_R)
    p = asym.add_parser("verify", help="check hypothesis and decay bound for a sampled function",
                        parents=common)
    p.add_argument("--f", required=True, help="CSV of y,value rows")
    p.add_argument("--params", required=True, help="JSON with delta, eps, A, a, b")
    p.set_defaults(func=_cmd_asym_verify)

    ms = top.add_parser("maass", help="spectral-mode numerics").add_subparsers(dest="cmd", required=True)
    p = ms.add_parser("eval", help="evaluate the Fourier sum at a point", parents=common)
    p.add_argument("--form", required=True)
    p.add_argument("--point", type=_parse_point, required=True)
    p.set_defaults(func=_cmd_maass_eval)
    p = ms.add_parser("parseval", help="fixed-height orthogonality check", parents=common)
    p.add_argument("--form", required=True)
    p.add_argument("--y", type=_parse_finite, required=True)
    p.set_defaults(func=_cmd_maass_parseval)
    p = ms.add_parser("cusp", help="cusp mass above height T", parents=common)
    p.add_argument("--form", required=True)
    p.add_argument("--T", type=_parse_finite, required=True)
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(func=_cmd_maass_cusp)
    p = ms.add_parser("laplace-check", help="finite-difference mode annihilation", parents=common)
    p.add_argument("--beta", type=_parse_beta, required=True)
    p.add_argument("--r", type=_parse_finite, required=True)
    p.add_argument("--point", type=_parse_point)
    p.add_argument("--h", type=_parse_positive, default=1e-3,
                   help="difference step; refused when a stencil coordinate c + h or c - h rounds back to c")
    p.set_defaults(func=_cmd_maass_laplace)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser tree, built on first use and shared by every later call of main."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (files.FileFormatError, KeyError, ValueError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        print(f"usage error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # LemmaSweepError and ShiftIdentityError among them
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
