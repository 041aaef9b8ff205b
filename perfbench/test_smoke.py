"""Smoke test of the benchmark at toy size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload shrunk by its `toy` overrides, traced and untraced, and
checks that every metric of BENCHMARK.json is emitted with its unit and that
the correctness gate runs and can fail.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TABLE_NAMES = {
    "train_small": ("grad_evals_per_s", "run_s_p50", "failed_share"),
    "probe_small": ("slice_points_per_s", "probe_s_p50", "failed_share"),
    "train_wide": ("grad_evals_per_s", "run_s_p50", "failed_share"),
}

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from samlab import harness  # noqa: E402


def run_bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--toy"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
    table = "\n".join(lines[:-1])
    assert "# correctness gate: pass" in table
    for name in TABLE_NAMES[workload]:
        assert f" {name}" in table


def test_gate_flags_bad_runs_and_probe_values(tmp_path):
    ready = workloads.setup(workloads.load("train_small", 3, toy=True), tmp_path)
    suites = harness.compare_optimizers(ready.config, ready.config.optimizer_sweep[:1])
    assert workloads.check_suites(ready, suites) == []

    record = suites[0].records[0]
    record.grad_evals += 1
    record.final_test_accuracy = 0.0
    errors = workloads.check_suites(ready, suites)
    assert any("grad_evals" in e for e in errors)
    assert any("below the floor" in e for e in errors)

    report = record.report
    low = dataclasses.replace(report, l_max_estimate=report.l_asc - 1.0)
    assert any("l_max_estimate" in e for e in workloads.check_report(low, "probe"))
    nan = dataclasses.replace(report, l_avg_mean=float("nan"))
    assert any("non-finite l_avg_mean" in e for e in workloads.check_report(nan, "probe"))


def _copy_checkout(dest, with_sources):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_failed_gate_exits_nonzero_with_a_result(tmp_path):
    _copy_checkout(tmp_path, with_sources=True)
    config = tmp_path / "perfbench" / "configs" / "train_small.json"
    spec = json.loads(config.read_text(encoding="utf-8"))
    spec["bench"]["accuracy_floor"] = 1.01
    config.write_text(json.dumps(spec), encoding="utf-8")
    proc = run_bench(tmp_path, "train_small", 0)
    assert proc.returncode == 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
    assert "below the floor" in proc.stderr


def test_without_sources_exits_nonzero_without_a_result(tmp_path):
    _copy_checkout(tmp_path, with_sources=False)
    proc = run_bench(tmp_path, "train_small", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
