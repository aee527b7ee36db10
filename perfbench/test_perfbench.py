"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They run the real command at tiny sizes (``--smoke``), so they take
about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

import pytest

from common import MIN_TAIL, BenchError, HostSpeed, TooFewSamples, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(spec_metrics) -> dict:
    return {m["name"]: m["unit"] for m in spec_metrics}


# -- percentile guard ----------------------------------------------------------------


def test_percentile_interpolates_and_counts_the_tail():
    values = list(range(1, 101))            # 1..100
    value, beyond = percentile(values, 90)
    assert value == pytest.approx(90.1)
    assert beyond == 10


def test_percentile_refuses_an_undersampled_tail():
    with pytest.raises(TooFewSamples):
        percentile(list(range(90)), 90)     # 9 samples beyond p90
    with pytest.raises(TooFewSamples):
        percentile(list(range(2 * MIN_TAIL - 1)), 50)
    with pytest.raises(TooFewSamples):
        percentile([], 50)


# -- host speed ----------------------------------------------------------------------


def test_host_speed_scales_by_the_median_of_nearby_samples():
    host = HostSpeed()
    ref = HostSpeed.REF_UNIT_S
    host.t_end = [1.0, 1.2, 1.4, 5.0]
    host.unit_s = [2 * ref, 2 * ref, 100 * ref, 0.5 * ref]
    # an interrupted sample is outvoted; a distant one is not consulted
    assert host.factor(1.2) == pytest.approx(0.5)
    assert host.factor(5.0) == pytest.approx(2.0)
    with pytest.raises(BenchError):
        host.factor(3.0)


def test_host_speed_around_scales_a_duration():
    host = HostSpeed()
    value = host.around(lambda: 1.0)
    assert len(host.unit_s) == 6
    assert value == pytest.approx(HostSpeed.REF_UNIT_S
                                  / median(host.unit_s))


# -- the command ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units(SPEC["end_to_end"])
    for name in ("throughput_per_s", "setup_s", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0


def test_traced_smoke_run_reports_every_layer_metric_and_repeats_counts():
    runs = [run("--workload", WORKLOADS[0], "--seed", seed, "--seconds",
                "1", "--trace", "1", "--smoke") for seed in ("3", "4")]
    results = []
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        results.append(result_of(proc))
        got = {name: m["unit"] for name, m in results[-1]["metrics"].items()}
        assert got == units(SPEC["per_layer"])
        assert "Tracing overhead" in proc.stdout
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if m["unit"] == "count"} for r in results]
    assert counts[0] == counts[1]
    assert all(v > 0 for name, v in counts[0].items()
               if not name.endswith(("fallbacks", "cache_misses")))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_flipped_output_bit_is_a_failed_operation(workload):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", "0", "--smoke", "--flip-bit")
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "CHECK FAILED" in proc.stdout


def test_refuses_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
