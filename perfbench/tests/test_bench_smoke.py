"""Reduced-size runs of every workload through the full command path."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Layers each workload must reach, and layers it must leave alone.
CALLED = {
    "verify-all-n16": ("cli.main_s", "suites.orthonormality_self_s", "torus.sample_calls",
                       "torus.chart_consistency_s", "report.to_json_s"),
    "physical-n64": ("suites.table1_s", "finite.table1_verify_self_s", "torus.grid_shift_calls",
                     "finite.physical_grid_overlaps_s", "torus.inner_product_calls",
                     "symbolic.evaluate_points", "finite.weyl_commutation_s"),
    "algebra-large": ("symbolic.build_calls", "symbolic.build_terms_in", "symbolic.apply_operator_s",
                      "symbolic.exp_operator_apply_s", "symbolic.commutator_apply_s",
                      "symbolic.json_s"),
}
NOT_CALLED = {
    "verify-all-n16": (),
    "physical-n64": ("cli.main_s", "symbolic.commutator_apply_s"),
    "algebra-large": ("torus.sample_calls", "finite.table1_verify_s", "suites.dft_s", "cli.main_s"),
}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_small_run(workload, trace):
    summary = run.measure(workload, 7, 0, trace, size="small")["summary"]
    assert summary["correct"] is True
    assert summary["attempted"] > 0 and summary["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(summary["metrics"]) == names
    assert all(isinstance(m["value"], (int, float)) for m in summary["metrics"].values())
    values = {name: m["value"] for name, m in summary["metrics"].items()}
    if trace:
        assert all(values[name] > 0 for name in CALLED[workload])
        assert all(values[name] == 0 for name in NOT_CALLED[workload])
    else:
        assert all(v > 0 for v in values.values())


def test_spec_lists_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == tracer.metric_names()
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_refuses_without_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "physical-n64",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
