"""The CI bench gate's decision (``benchmarks/gate.py``), on canned
snapshots: no bench runs and nothing is timed."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", ROOT / "benchmarks" / "gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


def committed(name):
    path = ROOT / "results" / gate.BENCHES[name].baseline
    return json.loads(path.read_text(encoding="utf-8"))


def failures(name, edit=None, baseline_edit=None, baseline=True):
    fresh = committed(name)
    if edit is not None:
        edit(fresh)
    base = committed(name) if baseline else None
    if baseline_edit is not None:
        baseline_edit(base)
    return gate.gate_failures(name, fresh, base)


def test_table_holds_the_four_benches():
    assert sorted(gate.BENCHES) == ["batch", "monitor", "online", "robustness"]
    assert gate.REGRESSION_FACTOR == 2.0


@pytest.mark.parametrize("name", sorted(gate.BENCHES))
def test_committed_baseline_passes_against_itself(name):
    assert failures(name) == []
    assert failures(name, baseline=False) == []


@pytest.mark.parametrize(
    "name, section, ratio",
    [
        ("monitor", "speedups", "w1000"),
        ("monitor", "speedups", "memo"),
        ("batch", "ratios", "pickle_collapse"),
        ("online", "ratios", "throughput_flatness"),
    ],
)
def test_ratio_below_half_the_committed_one_fails(name, section, ratio):
    value = committed(name)[section][ratio]

    def scaled(factor):
        def edit(fresh):
            fresh[section][ratio] = value / factor

        return failures(name, edit)

    assert scaled(1.99) == []
    found = scaled(2.01)
    assert len(found) == 1 and "%s regressed" % ratio in found[0]


@pytest.mark.parametrize("ratio", ["overhead_widest", "overhead_flatness"])
def test_robustness_overhead_above_twice_the_committed_one_fails(ratio):
    value = committed("robustness")["ratios"][ratio]

    def scaled(factor):
        def edit(fresh):
            fresh["ratios"][ratio] = value * factor

        return failures("robustness", edit)

    assert scaled(1.99) == []
    assert any("%s regressed" % ratio in f for f in scaled(2.01))


def test_baseline_ratio_missing_from_fresh_run_fails():
    found = failures("monitor", lambda fresh: fresh["speedups"].pop("w1000"))
    assert found == ["baseline speedups 'w1000' missing from fresh run"]


def test_online_compares_only_throughput_flatness():
    def inflate(baseline):
        baseline["ratios"]["buffer_flatness"] = 1000.0

    assert failures("online", baseline_edit=inflate) == []


def _set_rows_per_second(kernel, value):
    def edit(fresh):
        for entry in fresh["sweep"]:
            if entry["kernel"] == kernel:
                entry["rows_per_second"] = value

    return edit


def _set_ratio(ratio, value):
    def edit(fresh):
        fresh["ratios"][ratio] = value

    return edit


def _set_events_per_second(value):
    def edit(fresh):
        fresh["runs"][0]["events_per_second"] = value

    return edit


def _set_robust_rows_per_second(value):
    def edit(fresh):
        fresh["runs"][-1]["robust_rows_per_second"] = value

    return edit


@pytest.mark.parametrize(
    "name, label, holds, breaks",
    [
        (
            "monitor",
            "block rows/s, widest window",
            _set_rows_per_second("block", 50_000.0),
            _set_rows_per_second("block", 49_999.0),
        ),
        (
            "batch",
            "batched speedup",
            _set_ratio("speedup", 5.0),
            _set_ratio("speedup", 4.99),
        ),
        (
            "batch",
            "payload collapse",
            _set_ratio("pickle_collapse", 1_000.0),
            _set_ratio("pickle_collapse", 999.0),
        ),
        (
            "online",
            "peak buffer growth",
            _set_ratio("buffer_flatness", 1.05),
            _set_ratio("buffer_flatness", 1.06),
        ),
        (
            "online",
            "feed events/s",
            _set_events_per_second(20_000.0),
            _set_events_per_second(19_999.0),
        ),
        (
            "robustness",
            "overhead growth",
            _set_ratio("overhead_flatness", 5.0),
            _set_ratio("overhead_flatness", 5.01),
        ),
        (
            "robustness",
            "robustness pass rows/s",
            _set_robust_rows_per_second(20_000.0),
            _set_robust_rows_per_second(19_999.0),
        ),
    ],
)
def test_each_absolute_floor_fires(name, label, holds, breaks):
    # Floors apply with or without a baseline; without one only they do.
    assert failures(name, holds, baseline=False) == []
    found = failures(name, breaks, baseline=False)
    assert len(found) == 1 and label in found[0]


def test_invalid_snapshots_fail_by_schema():
    found = failures("batch", lambda fresh: fresh.update(identical=False))
    assert found and all(f.startswith("fresh identical") for f in found)

    def corrupt(baseline):
        del baseline["ratios"]

    found = failures("robustness", baseline_edit=corrupt)
    assert found == ["baseline ratios is missing"]


def test_schema_problems_are_reported_not_raised():
    for name in gate.BENCHES:
        assert gate.gate_failures(name, [], None)
        assert gate.gate_failures(name, copy.deepcopy(committed(name)), {})
