"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the root of a source checkout::

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs once per tracing mode at its smallest useful length
(``log_check`` needs a few seconds of passes for its p99 tail): every
metric named in ``BENCHMARK.json`` must be emitted with its unit, and no
operation may fail on the primary seed.  Allow a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PRIMARY_SEED = 2014
#: Seconds per run: one pass, or enough for 10 latency samples beyond p99.
SECONDS = {"campaign": 1, "log_check": 8, "fleet_replay": 1}


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_benchmark(workload, trace, cwd=ROOT, seed=PRIMARY_SEED):
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(SECONDS[workload]),
            "--trace",
            str(trace),
        ],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_every_metric_and_matches_reference(workload, trace):
    spec = benchmark_spec()
    assert workload in {entry["name"] for entry in spec["workloads"]}
    completed = run_benchmark(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], completed.stdout
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in wanted
    }
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def test_primary_seed_references_match_committed_results():
    ref = run.load_ref(PRIMARY_SEED)
    with open(ROOT / "results" / "robustness_table1.json", encoding="utf-8") as handle:
        table = {row["label"]: row["letters"] for row in json.load(handle)["rows"]}
    for label, letters in ref["campaign"]["outputs"].items():
        assert letters == table[label], label
    logs = {}
    for line in (ROOT / "results" / "vehicle_logs.txt").read_text().splitlines():
        fields = line.split()
        if fields and fields[0].startswith("vehicle:"):
            logs[fields[0]] = (fields[1], fields[2])
    outputs = ref["log_check"]["outputs"]
    assert len(outputs) == 2 * len(logs)
    for name, (strict, relaxed) in logs.items():
        assert outputs["strict " + name] == strict
        assert outputs["relaxed " + name] == relaxed == "SSSSSSS"


def test_runs_a_seed_without_a_stored_reference():
    unknown = 987654321
    assert run.load_ref(unknown) == {}
    completed = run_benchmark("campaign", 0, seed=unknown)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    # Six rows checked against the batched re-check, plus the counters.
    assert result["attempted"] == len(workloads.CAMPAIGN_ROWS) + 1
    assert result["failed"] == 0 and result["correct"], completed.stdout


def test_an_output_must_match_every_reference():
    result = workloads.PassResult(
        start=0.0,
        end=1.0,
        rows=1,
        events=1,
        latency_from=np.zeros(1),
        latency_to=np.zeros(1),
        counters={"n": 3},
        outputs={"a": "SV", "b": "SS"},
    )
    result.check([{"a": "SV", "b": "SS"}, {"a": "SV", "b": "SV", "c": "S"}], {"n": 3})
    assert (result.attempted, result.failed) == (4, 2)
    assert [line.split(":")[0] for line in result.mismatches] == ["b", "c"]


def test_tail_gate_counts_samples_not_weights():
    values = np.arange(1.0, 201.0)
    assert run.percentile(values, 0.50) == (100.0, 100)
    assert run.percentile(values, 0.99) == (198.0, 2)


def test_reference_clock_follows_the_sampled_host_speed():
    calibration = workloads.Calibration()
    ref = workloads.CAL_REFERENCE_S
    # At the reference speed, then at half of it from t=1 on.
    calibration.times = [0.0, 1.0, 3.0]
    calibration.loops = [ref, ref, 2 * ref]
    reference = calibration.reference_clock()
    assert reference(1.0) - reference(0.0) == pytest.approx(1.0)
    assert reference(3.0) - reference(1.0) == pytest.approx(2.0 / 1.5)
    assert reference(2.0) - reference(0.5) == pytest.approx(0.5 + 1.0 / 1.5)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark("log_check", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert "metrics" not in completed.stdout


def test_self_times_partition_the_traced_pass(tmp_path, monkeypatch):
    clock = iter([0.0, 2.0, 10.0, 10.5, 10.6, 11.0, 11.2, 11.3, 12.0, 13.0])
    monkeypatch.setattr(spans, "perf_counter", lambda: next(clock))
    tracer = spans.Tracer("synthetic")
    with tracer.span(spans.UNTRACED_PASS):
        pass
    with tracer.span(spans.TRACED_PASS):
        with tracer.span("can.bus"):
            with tracer.span("can.encode"):
                pass
            with tracer.span("can.encode"):
                pass
    path = str(tmp_path / "spans.npz")
    tracer.write(path)
    metrics = spans.layer_metrics(path)
    assert metrics["can.encode_s"] == pytest.approx(0.5)
    assert metrics["can.bus_self_s"] == pytest.approx(1.0)
    assert metrics["other_s"] == pytest.approx(1.5)
    assert metrics["trace_overhead_frac"] == pytest.approx(0.5)
    layer_total = sum(v for k, v in metrics.items() if k.endswith("_s"))
    assert layer_total == pytest.approx(3.0)
