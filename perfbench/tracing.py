"""The traced run: timing wrappers around h4hecke's public functions.

``Tracer.install`` replaces module attributes at run time with wrappers
that record a span (name, start, end, parent span, op index, count).
Each wrapper is installed in the namespace of every module that makes
the call, so calls between library modules pass through it too: for
example ``numerics.bessel_k_imag_order`` is looked up by the K_{ir}
cache in ``numerics``, so only cache misses reach its wrapper, and
``conjugation_matrices`` is wrapped where ``hecke`` and ``sums`` imported
it.  Spans are kept in memory and written out when the run ends.  Counts
come from results and arguments, never from private helpers.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from time import perf_counter


# (module, function, modules whose namespace makes the call, count taken from (result, args)).
LAYERS = (
    ("hecke", "apply_hecke", ("hecke",), lambda out, a: len(out.entries)),
    ("hecke", "verify_hecke_relation", ("hecke",), None),
    ("hecke", "apply_hecke_float", ("hecke",), lambda out, a: len(out)),
    ("hecke", "verify_commutativity", ("hecke",), None),
    ("hecke", "eigen_residual", ("hecke",), None),
    ("sums", "sum_R", ("sums",), None),
    ("sums", "sum_S_d", ("sums",), None),
    ("sums", "inequality_report", ("sums",), None),
    ("quaternions", "conjugation_matrices", ("quaternions", "hecke", "sums"), None),
    ("quaternions", "verify_conjugation_lemmas", ("quaternions",), lambda out, a: out.pairs_checked),
    ("numerics", "bessel_k_imag_order", ("numerics",), lambda out, a: (float(a[0]), float(a[1]), out)),
    ("numerics", "evaluate_form", ("numerics",), None),
    ("numerics", "parseval_check", ("numerics",), None),
    ("numerics", "direct_cusp_integral", ("numerics",), None),
    ("numerics", "cusp_sum_I", ("numerics",), None),
    ("numerics", "laplace_eigen_residual", ("numerics",), None),
    ("geometry", "reduce_to_fundamental_domain", ("geometry",), lambda out, a: len(out[0])),
    ("geometry", "act", ("geometry",), None),
    ("geometry", "word_to_matrix", ("geometry",), None),
    ("geometry", "verify_cusp_decomposition", ("geometry",), None),
    ("asymptotics", "compute_R", ("asymptotics",), lambda out, a: out - math.ceil(a[0]) + 1),
    ("files", "write_coefficient_field", ("files",), lambda out, a: os.path.getsize(a[1])),
    ("files", "parse_coefficient_field", ("files",), lambda out, a: os.path.getsize(a[0])),
    ("cli", "main", ("cli",), None),
)

OP_SPAN = "op"
SPAN_FIELDS = ["name", "start", "end", "parent", "op", "kind", "count"]

# name, unit, better, home workload.  A traced run of any workload measures each
# layer on its home workload, the one whose end-to-end figures the layer moves, so
# every figure is a real measurement; the last two (home None) describe the
# traced workload itself.
PER_LAYER = (
    ("hecke.apply_hecke.ms_per_op", "ms", "lower", "hecke_exact"),
    ("hecke.apply_hecke.calls_per_op", "count", "lower", "hecke_exact"),
    ("hecke.apply_hecke.out_support", "count", "lower", "hecke_exact"),
    ("hecke.verify_hecke_relation.self_ms_per_op", "ms", "lower", "hecke_exact"),
    ("hecke.apply_hecke_float.ms_per_op", "ms", "lower", "conj_sums"),
    ("hecke.apply_hecke_float.calls_per_op", "count", "lower", "conj_sums"),
    ("hecke.apply_hecke_float.out_support", "count", "lower", "conj_sums"),
    ("hecke.verify_commutativity.ms_per_call", "ms", "lower", "conj_sums"),
    ("hecke.eigen_residual.ms_per_call", "ms", "lower", "conj_sums"),
    ("sums.sum_R.ms_per_op", "ms", "lower", "conj_sums"),
    ("sums.sum_R.calls_per_op", "count", "lower", "conj_sums"),
    ("sums.sum_S_d.ms_per_op", "ms", "lower", "conj_sums"),
    ("sums.inequality_report.self_ms_per_call", "ms", "lower", "conj_sums"),
    ("quaternions.conjugation_matrices.calls_per_op", "count", "lower", "hecke_exact"),
    ("quaternions.verify_conjugation_lemmas.ms_per_call", "ms", "lower", "sweep_geometry"),
    ("quaternions.sweep_pairs_per_s", "1/s", "higher", "sweep_geometry"),
    ("numerics.bessel_k_imag_order.evals_per_op", "count", "lower", "spectral"),
    ("numerics.bessel_k_imag_order.us_per_eval", "us", "lower", "spectral"),
    ("numerics.bessel_k_imag_order.ms_per_op", "ms", "lower", "spectral"),
    ("numerics.evaluate_form.us_per_point.row", "us", "lower", "spectral"),
    ("numerics.evaluate_form.us_per_point.scattered", "us", "lower", "spectral"),
    ("numerics.parseval_check.self_ms_per_call", "ms", "lower", "spectral"),
    ("numerics.direct_cusp_integral.self_ms_per_call", "ms", "lower", "spectral"),
    ("numerics.cusp_sum_I.ms_per_call", "ms", "lower", "spectral"),
    ("numerics.laplace_eigen_residual.ms_per_call", "ms", "lower", "spectral"),
    ("numerics.kir_max_rel_err", "ratio", "lower", "spectral"),
    ("numerics.cusp_cross_rel_diff_max", "ratio", "lower", "spectral"),
    ("geometry.reduce_to_fundamental_domain.us_per_call", "us", "lower", "sweep_geometry"),
    ("geometry.word_len_mean", "count", "lower", "sweep_geometry"),
    ("geometry.act.us_per_call", "us", "lower", "sweep_geometry"),
    ("geometry.word_to_matrix.us_per_call", "us", "lower", "sweep_geometry"),
    ("geometry.verify_cusp_decomposition.ms_per_call", "ms", "lower", "sweep_geometry"),
    ("asymptotics.compute_R.ms_per_call", "ms", "lower", "sweep_geometry"),
    ("asymptotics.compute_R.steps_per_call", "count", "lower", "sweep_geometry"),
    ("files.write_coefficient_field.ms_per_call", "ms", "lower", "hecke_exact"),
    ("files.parse_coefficient_field.ms_per_call", "ms", "lower", "hecke_exact"),
    ("files.bytes_per_call", "bytes", "lower", "hecke_exact"),
    ("cli.main.self_ms_per_call", "ms", "lower", "hecke_exact"),
    ("process.cpu_ms_per_op", "ms", "lower", None),
    ("trace.overhead_frac", "ratio", "lower", None),
)


class Tracer:
    """Spans in memory, one list per span with the SPAN_FIELDS."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: tuple | None = None
        self._installed: list[tuple] = []

    def begin_op(self, index: int, kind: str) -> None:
        self._op = (index, kind)
        self._open(OP_SPAN)

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._op = None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._op[0], self._op[1], None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count):
        def wrapper(*args, **kwargs):
            if self._op is None:  # a check or set-up call, outside every op
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][6] = count(out, args)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, lib) -> None:
        for module, func, callers, count in LAYERS:
            wrapper = self.wrap(f"{module}.{func}", getattr(getattr(lib, module), func), count)
            for caller in callers:
                namespace = getattr(lib, caller)
                self._installed.append((namespace, func, getattr(namespace, func)))
                setattr(namespace, func, wrapper)

    def uninstall(self) -> None:
        for namespace, func, original in reversed(self._installed):
            setattr(namespace, func, original)
        self._installed.clear()

    def bessel_args(self) -> list[tuple[float, float, float]]:
        """(r, x, value) of every K_{ir} quadrature the traced ops ran."""
        return [s[6] for s in self.spans if s[0] == "numerics.bessel_k_imag_order"]


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer figures from spans; self time is a span minus the time its children cover."""
    child_time = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    counts = defaultdict(list)
    for idx, (name, start, end, parent, op, kind, count) in enumerate(spans):
        for key in (name, f"{name}@{kind}"):
            calls[key] += 1
            total[key] += end - start
            self_total[key] += end - start - child_time[idx]
        if isinstance(count, (int, float)):
            counts[name].append(count)

    def per_op(value):
        return value / n_ops if n_ops else 0.0

    def per_call(key, table, scale):
        return table[key] * scale / calls[key] if calls[key] else 0.0

    def mean(name):
        return sum(counts[name]) / len(counts[name]) if counts[name] else 0.0

    lemma_s = total["quaternions.verify_conjugation_lemmas"]
    io_sizes = counts["files.write_coefficient_field"] + counts["files.parse_coefficient_field"]
    out = {
        "hecke.apply_hecke.ms_per_op": per_op(total["hecke.apply_hecke"] * 1e3),
        "hecke.apply_hecke.calls_per_op": per_op(calls["hecke.apply_hecke"]),
        "hecke.apply_hecke.out_support": mean("hecke.apply_hecke"),
        "hecke.verify_hecke_relation.self_ms_per_op": per_op(self_total["hecke.verify_hecke_relation"] * 1e3),
        "hecke.apply_hecke_float.ms_per_op": per_op(total["hecke.apply_hecke_float"] * 1e3),
        "hecke.apply_hecke_float.calls_per_op": per_op(calls["hecke.apply_hecke_float"]),
        "hecke.apply_hecke_float.out_support": mean("hecke.apply_hecke_float"),
        "hecke.verify_commutativity.ms_per_call": per_call("hecke.verify_commutativity", total, 1e3),
        "hecke.eigen_residual.ms_per_call": per_call("hecke.eigen_residual", total, 1e3),
        "sums.sum_R.ms_per_op": per_op(total["sums.sum_R"] * 1e3),
        "sums.sum_R.calls_per_op": per_op(calls["sums.sum_R"]),
        "sums.sum_S_d.ms_per_op": per_op(total["sums.sum_S_d"] * 1e3),
        "sums.inequality_report.self_ms_per_call": per_call("sums.inequality_report", self_total, 1e3),
        "quaternions.conjugation_matrices.calls_per_op": per_op(calls["quaternions.conjugation_matrices"]),
        "quaternions.verify_conjugation_lemmas.ms_per_call":
            per_call("quaternions.verify_conjugation_lemmas", total, 1e3),
        "quaternions.sweep_pairs_per_s":
            sum(counts["quaternions.verify_conjugation_lemmas"]) / lemma_s if lemma_s else 0.0,
        "numerics.bessel_k_imag_order.evals_per_op": per_op(calls["numerics.bessel_k_imag_order"]),
        "numerics.bessel_k_imag_order.us_per_eval": per_call("numerics.bessel_k_imag_order", total, 1e6),
        "numerics.bessel_k_imag_order.ms_per_op": per_op(total["numerics.bessel_k_imag_order"] * 1e3),
        "numerics.evaluate_form.us_per_point.row": per_call("numerics.evaluate_form@row", total, 1e6),
        "numerics.evaluate_form.us_per_point.scattered":
            per_call("numerics.evaluate_form@scattered", total, 1e6),
        "numerics.parseval_check.self_ms_per_call": per_call("numerics.parseval_check", self_total, 1e3),
        "numerics.direct_cusp_integral.self_ms_per_call":
            per_call("numerics.direct_cusp_integral", self_total, 1e3),
        "numerics.cusp_sum_I.ms_per_call": per_call("numerics.cusp_sum_I", total, 1e3),
        "numerics.laplace_eigen_residual.ms_per_call": per_call("numerics.laplace_eigen_residual", total, 1e3),
        "geometry.reduce_to_fundamental_domain.us_per_call":
            per_call("geometry.reduce_to_fundamental_domain", total, 1e6),
        "geometry.word_len_mean": mean("geometry.reduce_to_fundamental_domain"),
        "geometry.act.us_per_call": per_call("geometry.act", total, 1e6),
        "geometry.word_to_matrix.us_per_call": per_call("geometry.word_to_matrix", total, 1e6),
        "geometry.verify_cusp_decomposition.ms_per_call":
            per_call("geometry.verify_cusp_decomposition", total, 1e3),
        "asymptotics.compute_R.ms_per_call": per_call("asymptotics.compute_R", total, 1e3),
        "asymptotics.compute_R.steps_per_call": mean("asymptotics.compute_R"),
        "files.write_coefficient_field.ms_per_call": per_call("files.write_coefficient_field", total, 1e3),
        "files.parse_coefficient_field.ms_per_call": per_call("files.parse_coefficient_field", total, 1e3),
        "files.bytes_per_call": sum(io_sizes) / len(io_sizes) if io_sizes else 0.0,
        "cli.main.self_ms_per_call": per_call("cli.main", self_total, 1e3),
    }
    return out
