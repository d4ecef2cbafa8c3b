"""Self-test of the benchmark: short runs emit every named metric, and a wrong
reference is counted as a failed op instead of ending the run.

    python3 -m pytest -q perfbench/test_selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import references  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KINDS = {
    "hecke_exact": {"relation", "cli_apply"},
    "conj_sums": {"commute", "eigen", "shift", "inequality"},
    "spectral": {"row", "scattered", "parseval", "cusp", "laplace"},
    "sweep_geometry": {"lemmas", "reduce", "cusp_decomposition", "compute_R"},
}


def short_run(name, tmp_path, trace=False):
    cycle = workloads.WORKLOADS[name].cycle
    return run.run(name, seed=3, seconds=0.1, trace=trace, min_ops=cycle, out_dir=tmp_path)


def test_spec_matches_emitted_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [row[:3] for row in tracing.PER_LAYER]
    listed = {w["name"] for w in SPEC["workloads"]}
    assert listed | set(run.UNLISTED) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_run_emits_every_end_to_end_metric(name, tmp_path):
    summary = short_run(name, tmp_path)
    assert summary["metrics"] == {k: {"value": summary["metrics"][k]["value"], "unit": u}
                                  for k, u in run.END_TO_END_UNITS.items()}
    assert summary["metrics"]["max_rel_err"]["value"] > 0
    assert set(summary["op_counts"]) == KINDS[name]
    if name != "spectral":
        assert summary["failed"] == 0, summary["failures"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_traced_run_emits_every_per_layer_metric(name, tmp_path):
    summary = short_run(name, tmp_path, trace=True)
    assert {k: m["unit"] for k, m in summary["metrics"].items()} == {n: u for n, u, *_ in tracing.PER_LAYER}
    assert all(m["value"] > 0 for k, m in summary["metrics"].items() if m["unit"] in ("ms", "us")), summary
    assert (tmp_path / f"{name}-seed3-spans.json").is_file()


def test_spectral_shows_cusp_defect_with_witness(tmp_path):
    summary = short_run("spectral", tmp_path)
    cusp = [f for f in summary["failures"] if f["kind"] == "cusp"]
    assert cusp and "cross" in cusp[0]["detail"] and cusp[0]["seed"] == 3
    assert summary["metrics"]["max_rel_err"]["value"] > 1e-3


def test_wrong_reference_is_a_failed_op_not_a_crash(tmp_path, monkeypatch):
    real = references.brute_sum_S
    monkeypatch.setattr(references, "brute_sum_S", lambda A, z: real(A, z) + 1)
    summary = short_run("conj_sums", tmp_path)
    assert summary["ops"] >= workloads.WORKLOADS["conj_sums"].cycle
    assert summary["failed"] == summary["op_counts"]["inequality"] >= 1
    witness = summary["failures"][0]
    assert witness["kind"] == "inequality" and "brute force" in witness["detail"]
    assert set(witness) == {"seed", "op", "kind", "detail", "inputs"}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "hecke_exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
