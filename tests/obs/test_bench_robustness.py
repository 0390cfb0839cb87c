"""The ``repro.bench.robustness/v1`` snapshot schema and sweep."""

import pytest

from repro.obs import (
    ROBUSTNESS_BENCH_SCHEMA,
    ROBUSTNESS_BENCH_SCHEMA_VERSION,
    bench_robustness,
    format_robustness_bench,
)
from repro.schema import require_valid, validate


@pytest.fixture(scope="module")
def snapshot():
    return bench_robustness(rows=2000, widths=(5, 25), repeats=1)


class TestSweep:
    def test_snapshot_is_valid(self, snapshot):
        assert require_valid(snapshot, ROBUSTNESS_BENCH_SCHEMA) is snapshot
        assert snapshot["schema"] == ROBUSTNESS_BENCH_SCHEMA_VERSION

    def test_one_run_per_width_in_order(self, snapshot):
        assert [run["width_rows"] for run in snapshot["runs"]] == [5, 25]

    def test_ratios_derive_from_runs(self, snapshot):
        narrowest, widest = snapshot["runs"]
        ratios = snapshot["ratios"]
        assert ratios["overhead_widest"] == widest["overhead"]
        assert ratios["overhead_flatness"] == pytest.approx(
            widest["overhead"] / narrowest["overhead"]
        )

    def test_format_renders_every_width(self, snapshot):
        text = format_robustness_bench(snapshot)
        assert "5 rows" in text and "25 rows" in text
        assert "overhead_flatness" in text


class TestValidator:
    def test_rejects_non_object(self):
        assert validate([], ROBUSTNESS_BENCH_SCHEMA) != []

    def test_rejects_wrong_schema(self, snapshot):
        bad = dict(snapshot, schema="repro.bench.monitor/v1")
        assert any(
            "schema" in problem
            for problem in validate(bad, ROBUSTNESS_BENCH_SCHEMA)
        )

    def test_rejects_single_width(self, snapshot):
        bad = dict(snapshot, runs=snapshot["runs"][:1])
        assert validate(bad, ROBUSTNESS_BENCH_SCHEMA)

    def test_rejects_unsorted_widths(self, snapshot):
        bad = dict(snapshot, runs=list(reversed(snapshot["runs"])))
        assert any(
            "increasing" in problem
            for problem in validate(bad, ROBUSTNESS_BENCH_SCHEMA)
        )

    def test_rejects_nonpositive_timing(self, snapshot):
        runs = [dict(run) for run in snapshot["runs"]]
        runs[0]["robust_seconds"] = 0.0
        assert validate(dict(snapshot, runs=runs), ROBUSTNESS_BENCH_SCHEMA)

    def test_rejects_missing_ratios(self, snapshot):
        bad = {key: value for key, value in snapshot.items() if key != "ratios"}
        assert validate(bad, ROBUSTNESS_BENCH_SCHEMA)

    def test_require_valid_raises_with_reasons(self):
        with pytest.raises(ValueError, match="schema"):
            require_valid({"schema": "nope"}, ROBUSTNESS_BENCH_SCHEMA)
