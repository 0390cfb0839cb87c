"""Publish the batched-checking benchmark (``BENCH_batch.json``).

Reduced-scale by default so the tier-2 bench suite stays quick; CI's
``bench-gate`` job reruns the same bench through
``benchmarks/gate.py batch`` and gates the ratios against the
committed baseline.
"""

import json

import pytest

from repro.obs import (
    BATCH_BENCH_SCHEMA,
    BATCH_BENCH_SCHEMA_VERSION,
    bench_batch,
    format_batch_bench,
)
from repro.schema import require_valid, validate


@pytest.fixture(scope="module")
def snapshot():
    return bench_batch(replicas=1, repeats=2)


class TestSnapshotShape:
    def test_schema_and_validation(self, snapshot):
        assert snapshot["schema"] == BATCH_BENCH_SCHEMA_VERSION
        assert validate(snapshot, BATCH_BENCH_SCHEMA) == []
        assert require_valid(snapshot, BATCH_BENCH_SCHEMA) is snapshot

    def test_letters_were_audited_identical(self, snapshot):
        assert snapshot["identical"] is True

    def test_workload_is_nontrivial(self, snapshot):
        assert snapshot["traces"] >= 6  # one full drive-log replica
        assert snapshot["rows_total"] > 10_000
        assert snapshot["rules"] >= 7

    def test_ratios_are_consistent_with_runs(self, snapshot):
        runs, ratios = snapshot["runs"], snapshot["ratios"]
        assert ratios["speedup"] == pytest.approx(
            runs["per_trace_seconds"] / runs["batch_seconds"]
        )
        sizes = snapshot["bytes"]
        assert ratios["pickle_collapse"] == pytest.approx(
            sizes["trace_pickle"] / sizes["store_handle"]
        )

    def test_batched_is_faster_even_at_reduced_scale(self, snapshot):
        assert snapshot["ratios"]["speedup"] > 1.0

    def test_handle_is_o_config(self, snapshot):
        assert snapshot["bytes"]["store_handle"] < 1_000
        assert snapshot["ratios"]["pickle_collapse"] > 1_000

    def test_snapshot_is_json_round_trippable(self, snapshot):
        assert json.loads(json.dumps(snapshot)) == snapshot


class TestValidatorRejects:
    def test_non_dict(self):
        assert validate([], BATCH_BENCH_SCHEMA) != []

    def test_wrong_schema(self, snapshot):
        bad = dict(snapshot, schema="repro.bench.batch/v0")
        assert any("schema" in p for p in validate(bad, BATCH_BENCH_SCHEMA))

    def test_divergent_letters_rejected(self, snapshot):
        bad = dict(snapshot, identical=False)
        problems = validate(bad, BATCH_BENCH_SCHEMA)
        assert any("identical" in p for p in problems)
        with pytest.raises(ValueError):
            require_valid(bad, BATCH_BENCH_SCHEMA)

    def test_missing_ratio_rejected(self, snapshot):
        bad = dict(snapshot, ratios={"speedup": 2.0})
        assert any(
            "pickle_collapse" in p for p in validate(bad, BATCH_BENCH_SCHEMA)
        )


class TestPublish:
    def test_publish_summary(self, snapshot, publish):
        publish("batch_bench.txt", format_batch_bench(snapshot))
