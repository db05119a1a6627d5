"""The benchmark's own tests, on reduced inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_program()

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from bct import coherence, kernels, serial  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "3",
                           "--seconds", "0", "--small", *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


def _result(*args: str) -> dict:
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return result


def _units(metrics: dict, prefix: str = "") -> dict[str, str]:
    return {k[len(prefix):]: v["unit"] for k, v in metrics.items() if k.startswith(prefix)}


def test_benchmark_file_lists_the_metrics_the_code_emits():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        tracer.per_layer_metrics()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert _units(_result("--workload", "tomography", "--trace", "0")["metrics"]) == expected
    metrics = _result("--workload", "all", "--trace", "0")["metrics"]
    for name in run.WORKLOADS:
        assert _units(metrics, f"{name}.") == expected
        assert all(metrics[f"{name}.{m}"]["value"] > 0 for m in expected)


def test_every_per_layer_metric_is_emitted_with_its_unit():
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = _result("--workload", "all", "--trace", "1")["metrics"]
    for name in run.WORKLOADS:
        assert _units(metrics, f"{name}.") == expected


def test_coherence_items_give_the_reports_of_run_suite():
    for config in workloads.suite_configs(seed=5, small=True):
        reports = [item.call() for item in workloads.suite_items(config)]
        reports.sort(key=lambda r: (r.name, str(r.params)))
        assert [serial.dumps(r.to_json()) for r in reports] == \
            [serial.dumps(r.to_json()) for r in coherence.run_suite(config)]


def test_digests_are_stable_for_two_seeds():
    for seed in (0, 1):
        for name in run.WORKLOADS:
            first = worker.run(name, seed, time.monotonic(), small=True)
            second = worker.run(name, seed, time.monotonic(), small=True)
            assert first["failed"] == second["failed"] == []
            assert first["digest"] == second["digest"]


def test_item_times_are_scaled_by_the_calibration_around_each_item():
    assert gc.isenabled()
    worker.calibration_s()
    assert gc.isenabled()
    result = worker.run("tomography", 0, time.monotonic(), small=True)
    calibrations = result["calibration_s"][2 * worker.SETUP_CALIBRATIONS - 1:]
    assert len(calibrations) == len(result["item_s"]) + 1
    for i, (scaled, cpu) in enumerate(zip(result["item_s"], result["item_cpu_s"])):
        gauge = (calibrations[i] + calibrations[i + 1]) / 2
        assert scaled == pytest.approx(cpu * worker.NOMINAL_CALIBRATION_S / gauge)


def _bindings() -> dict:
    out = {(name, key): value for name, module in sys.modules.items()
           if name == "bct" or name.startswith("bct.")
           for key, value in vars(module).items() if callable(value)}
    out[("Kernel", "__post_init__")] = kernels.Kernel.__post_init__
    return out


def test_traced_run_restores_the_program_and_repeats_its_counts():
    before = _bindings()
    for name in run.WORKLOADS:
        plain = worker.run(name, 2, time.monotonic(), small=True)
        traced = [worker.run(name, 2, time.monotonic(), traced=True, small=True)
                  for _ in range(2)]
        assert _bindings() == before
        assert {t["digest"] for t in traced} == {plain["digest"]}
        counts = [{k: v for k, v in t["layers"].items() if tracer.is_count(k)}
                  for t in traced]
        assert counts[0] == counts[1]
    assert not any("Tracer." in getattr(v, "__qualname__", "") for v in before.values())


def test_a_tree_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "coherence", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
