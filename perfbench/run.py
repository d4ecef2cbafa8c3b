"""Benchmark for h4hecke: one seeded workload per run, timed or traced.

    python3 perfbench/run.py --workload hecke_exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ./src.
With --trace 0 the run times its operations (closed loop, one client)
and reports the end-to-end metrics, its timings restated at a reference
machine speed (speed.py; the run record keeps the wall-clock figures).
With --trace 1 it runs the ops once untraced and once through the
timing wrappers of tracing.py, traces a short pass of each other
layer's home workload, and reports the per-layer metrics and the
tracing overhead.  Every op's result is checked outside its timed
interval; a failed check is counted and logged with its witness, never
fatal.  Human-readable lines go first;
the last line of stdout is one JSON object.  A run record (and, traced,
the spans) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import mpmath
import numpy

import references
import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 7
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
# Relative errors below this are rounding noise whose digits change with the
# inputs; the end-to-end figure reports at least this much, so it is never 0.
REL_ERR_FLOOR = 1e-12
KIR_PROBE_SAMPLE = 16
KIR_PROBE_LARGEST = 4

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "max_rel_err": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Workloads the command runs that BENCHMARK.json does not list, and why.
UNLISTED = {
    "spectral": "not listed in BENCHMARK.json: its cusp_sum_I cross-check fails at baseline "
                "(known defect of the absolute Simpson tolerance), and the benchmark's listed "
                "workloads must run without failed operations",
}


@dataclass
class Record:
    kind: str
    seconds: float
    cpu_seconds: float
    ok: bool
    rel_err: float
    cross: float
    vectorized: bool
    probe: dict


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it."""
    for q in TAIL_LADDER:
        if n - math.ceil(q / 100 * n) >= 10:
            return q
    return 50.0


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_ops(ops, seconds: float, min_ops: int, *, tracer=None, log=None, pauses=([], None)):
    """Closed loop: each op waits for its result; checks run outside the timed interval.

    Stops once the summed operation time reaches ``seconds`` and at least
    ``min_ops`` ops have run, or when the inputs run out.  ``pauses`` is
    (marks, action): the action runs, untimed, once the operation time
    passes each mark.
    """
    marks, action = list(pauses[0]), pauses[1]
    records, busy = [], 0.0
    for index, op in enumerate(ops):
        if busy >= seconds and index >= min_ops:
            break
        if tracer is not None:
            tracer.begin_op(index, op.kind)
        error = None
        c0, t0 = process_time(), perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            result, error = None, exc
        t1, c1 = perf_counter(), process_time()
        if tracer is not None:
            tracer.end_op()
        busy += t1 - t0
        probe = speed.probe()
        if error is not None:
            verdict = workloads.Verdict(False, detail="".join(traceback.format_exception_only(error)).strip())
        else:
            try:
                verdict = op.check(result)
            except Exception as exc:
                verdict = workloads.Verdict(False, detail="check raised " + "".join(
                    traceback.format_exception_only(exc)).strip())
        if not verdict.ok and log is not None:
            log(index, op, verdict)
        records.append(Record(op.kind, t1 - t0, c1 - c0, verdict.ok, verdict.rel_err, verdict.cross, op.vectorized, probe))
        while marks and busy >= marks[0]:
            marks.pop(0)
            action()
    return records


def traced_pass(workload, lib, ops, seconds: float, min_ops: int):
    """Run ops through the timing wrappers; returns the tracer and the op records."""
    if workload.reset is not None:
        workload.reset(lib)
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        return tracer, run_ops(ops, seconds, min_ops, tracer=tracer)
    finally:
        tracer.uninstall()


def at_reference(records: list[Record]) -> list[float]:
    return speed.at_reference([r.seconds for r in records], [r.probe for r in records],
                              [r.vectorized for r in records])


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__}


def kir_probe(bessel_args, seed: int) -> tuple[float, list]:
    """Worst relative error of K_{ir} against mpmath on a seeded sample of the evaluated (r, x)."""
    by_x = sorted(set(bessel_args), key=lambda t: t[1])
    sample = set(by_x[-KIR_PROBE_LARGEST:])
    rest = by_x[:-KIR_PROBE_LARGEST]
    sample.update(random.Random(seed).sample(rest, min(KIR_PROBE_SAMPLE, len(rest))))
    rows = []
    for r, x, value in sorted(sample, key=lambda t: t[1]):
        ref = references.bessel_k(r, x)
        rows.append({"r": r, "x": x, "value": value, "mpmath": ref, "rel_err": abs(value - ref) / abs(ref)})
    return max(row["rel_err"] for row in rows), rows


def run(name: str, seed: int, seconds: float, trace: bool, *, min_ops: int | None = None,
        out_dir: Path = OUT_DIR) -> dict:
    workload = workloads.WORKLOADS[name]
    min_ops = workload.min_ops if min_ops is None else min_ops
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = []

    def log(index, op, verdict):
        witness = {"seed": seed, "op": index, "kind": op.kind, "detail": verdict.detail,
                   "inputs": op.inputs}
        failures.append(witness)
        print(f"FAILED {name} seed={seed} op={index} kind={op.kind}: {verdict.detail}", file=sys.stderr)

    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        setups, setup_probes = [], []

        def set_up():
            gc.collect()  # start each set-up from a collected heap, not amid the last one's garbage
            probes = [speed.probe()["python"] for _ in range(3)]
            t0 = perf_counter()
            lib = workloads.fresh_import()
            ops = workload.build(lib, random.Random(seed), Path(tmp), workload.max_ops)
            setups.append(perf_counter() - t0)
            probes += [speed.probe()["python"] for _ in range(2)]
            setup_probes.append(statistics.median(probes))
            return lib, ops

        lib, ops = set_up()
        if not Path(lib.hecke.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"h4hecke was imported from {lib.hecke.__file__}, not from {SRC}")

        if not trace:
            # The other set-ups are spread over the run, between ops, so their median
            # samples the machine's speed over the whole run as the timed ops do.
            marks = [seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
            records = run_ops(ops, seconds, min_ops, log=log, pauses=(marks, set_up))
        else:
            # In thirds of --seconds: this workload untraced (its checks give the verdict),
            # the same ops traced, then the home workloads of the other layers traced.
            records = run_ops(ops, seconds / 3, min(min_ops, 2 * workload.cycle), log=log)
            passes = {name: traced_pass(workload, lib, ops[:len(records)], 0.0, len(records))}
            homes = sorted({home for *_, home in tracing.PER_LAYER} - {None, name})
            for home in homes:
                home_wl = workloads.WORKLOADS[home]
                home_lib = workloads.fresh_import()
                home_ops = home_wl.build(home_lib, random.Random(seed), Path(tmp), home_wl.max_ops)
                passes[home] = traced_pass(home_wl, home_lib, home_ops, seconds / 3 / len(homes),
                                           home_wl.cycle)

    durations = [r.seconds for r in records]
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r.seconds)
    raw_rel_err = max(r.rel_err for r in records)
    q = tail_percentile(min_ops)
    summary = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_record(), "ops": len(records),
        "op_counts": {kind: len(v) for kind, v in by_kind.items()},
        "op_p50_ms_by_kind": {kind: statistics.median(v) * 1e3 for kind, v in by_kind.items()},
        "failed": sum(not r.ok for r in records), "busy_s": sum(durations),
        "tail_percentile": q, "tail_samples": len(records), "setup_repeats_s": setups,
        "raw_max_rel_err": raw_rel_err, "failures": failures,
        "op_seconds": [[r.kind, r.seconds] for r in records],
    }
    if not trace:
        def timings(op_s, setup_s):
            return {"ops_per_s": len(op_s) / sum(op_s), "op_p50_ms": statistics.median(op_s) * 1e3,
                    "op_tail_ms": nearest_rank(op_s, q) * 1e3, "setup_s": statistics.median(setup_s)}

        summary["wall_clock"] = timings(durations, setups)
        summary["speed"] = {"reference_probe_s": speed.REFERENCE_S,
                            "median_probe_s": {k: statistics.median(r.probe[k] for r in records)
                                               for k in speed.REFERENCE_S}}
        metrics = timings(at_reference(records),
                          [s * speed.REFERENCE_S["python"] / p for s, p in zip(setups, setup_probes)])
        metrics.update({
            "max_rel_err": max(raw_rel_err, REL_ERR_FLOOR),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        metrics = {k: metrics[k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    else:
        layers = {home: tracing.layer_metrics(tracer.spans, len(recs))
                  for home, (tracer, recs) in passes.items()}
        metrics = {metric: layers[home][metric] for metric, _, _, home in tracing.PER_LAYER
                   if metric in layers.get(home, {})}
        spectral_tracer, spectral_records = passes["spectral"]
        kir_err, summary["kir_probe"] = kir_probe(spectral_tracer.bessel_args(), seed)
        metrics.update({
            "numerics.kir_max_rel_err": kir_err,
            "numerics.cusp_cross_rel_diff_max": max(r.cross for r in spectral_records),
            "process.cpu_ms_per_op": sum(r.cpu_seconds for r in records) / len(records) * 1e3,
            "trace.overhead_frac": sum(at_reference(passes[name][1])) / sum(at_reference(records)) - 1.0,
        })
        metrics = {metric: metrics[metric] for metric, *_ in tracing.PER_LAYER}
        units = {metric: unit for metric, unit, *_ in tracing.PER_LAYER}
        summary["traced_ops"] = {home: len(recs) for home, (_, recs) in passes.items()}
        with open(out_dir / f"{name}-seed{seed}-spans.json", "w") as fh:
            json.dump({"fields": tracing.SPAN_FIELDS,
                       "spans": {home: tracer.spans for home, (tracer, _) in passes.items()}}, fh)
    summary["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    with open(out_dir / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(summary, fh, indent=1, default=workloads.witness)
    return summary


def print_report(summary: dict) -> None:
    name, n = summary["workload"], summary["ops"]
    print(f"{name} seed {summary['seed']}: {n} ops in {summary['busy_s']:.2f} s of operation time "
          f"(closed loop, one client); ops per kind {summary['op_counts']}")
    if name in UNLISTED:
        print(f"  note: {name} is {UNLISTED[name]}")
    metrics = summary["metrics"]
    if not summary["trace"]:
        wall = ", ".join(f"{k} {v:.6g}" for k, v in summary["wall_clock"].items())
        probes = ", ".join(f"{k} {v * 1e3:.3f} ms (reference {speed.REFERENCE_S[k] * 1e3:g})"
                           for k, v in summary["speed"]["median_probe_s"].items())
        print(f"  timings below are at the reference machine speed (speed.py); wall clock: {wall}; "
              f"median speed probes: {probes}")
        print(f"  failed_ops_frac {summary['failed'] / n:.4g} ({summary['failed']} of {n})")
        print(f"  max_rel_err raw {summary['raw_max_rel_err']:.3e} (reported with floor {REL_ERR_FLOOR:g})")
        print(f"  op_tail_ms is p{summary['tail_percentile']:g} over {n} samples")
        print(f"  setup_s is the median of {SETUP_REPEATS} set-ups: "
              + ", ".join(f"{s:.3f}" for s in summary["setup_repeats_s"]))
    for key, m in metrics.items():
        print(f"  {key:<52} {m['value']:.6g} {m['unit']}")
    for f in summary["failures"][:5]:
        print(f"  witness: op {f['op']} ({f['kind']}): {f['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "h4hecke" / "__init__.py").is_file():
        print(f"error: no h4hecke sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(summary)
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["ops"],
                      "failed": summary["failed"], "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
