"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest bench/test_bench.py
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Metrics that are counts of work, not times: equal for equal seeds.
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] not in ("s", "ratio")]


def _run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    summary, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return summary, result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    summary, result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert summary["failed_frac"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_digest_and_counts(workload):
    (s1, r1), (s2, r2) = (_result(_run(workload, 1, seed=5)) for _ in range(2))
    untraced, _ = _result(_run(workload, 0, seed=5))
    assert s1["digest"] == s2["digest"] == untraced["digest"]
    assert r1["correct"] and r2["correct"]  # tracing left every output unchanged
    assert {n: r1["metrics"][n]["value"] for n in COUNTS} == \
        {n: r2["metrics"][n]["value"] for n in COUNTS}


def test_other_seed_gives_other_inputs():
    first, _ = _result(_run("transfer_box", 0, seed=5))
    second, _ = _result(_run("transfer_box", 0, seed=6))
    assert first["digest"] != second["digest"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("transfer_box", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_binding():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import diotrans
        from diotrans import geometry, radicals
        from spans import Tracer

        originals = (geometry.floor_within, radicals.floor_within, radicals.Radical.__le__,
                     diotrans.best_approx_table, diotrans.PRESETS["golden"])
        tracer = Tracer()
        tracer.bind(diotrans)
        tracer.install()
        try:
            # the copy of floor_within bound into geometry is traced too
            assert geometry.floor_within is not originals[0]
            assert geometry.floor_within is radicals.floor_within
            diotrans.get_preset("golden").build()
        finally:
            tracer.uninstall()
        assert (geometry.floor_within, radicals.floor_within, radicals.Radical.__le__,
                diotrans.best_approx_table, diotrans.PRESETS["golden"]) == originals
        assert tracer.self_ns["presets"] > 0
    finally:
        del sys.path[:2]


def test_scaled_times_follow_the_nearest_kernel_samples():
    sys.path.insert(0, str(HERE))
    try:
        import calibrate

        speed = calibrate.Speedometer(every_s=0.05)
        speed.at = [float(i) for i in range(20)]
        # the machine runs at half the reference speed for the first ten
        # samples and at the reference speed after them
        speed.ratios = [0.5] * 10 + [1.0] * 10
        assert speed.scale_over(0.5, 1.5) == 0.5  # too few inside: nearest seven
        assert speed.scale_over(16.5, 17.5) == 1.0
        assert speed.scale_over(5.0, 14.0) == 0.75  # the ten samples inside
        assert speed.scale_recent() == 1.0
        assert speed.scale() == 0.75
        with calibrate.Speedometer(every_s=0.01) as timed:
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                pass
        assert len(timed.ratios) >= 5 and timed.paused > 0
        assert calibrate.sample() > 0
    finally:
        sys.path.remove(str(HERE))


def test_summary_gives_the_raw_figures_beside_the_scaled_ones():
    summary, result = _result(_run("transfer_box", 0))
    assert set(summary["raw"]) == {"items_per_s", "item_p50_ms", "item_tail_ms", "setup_s"}
    assert summary["speed"]["samples"] >= 2 and summary["speed"]["scale"] > 0
