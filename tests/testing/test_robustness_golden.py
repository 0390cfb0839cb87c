"""Golden margin determinism for robustness campaigns.

Three byte-level contracts:

* a margin campaign serializes identically whether run serially or
  fanned out to worker processes (``margins_json`` is canonical by
  construction — rows in campaign order, infinities string-encoded);
* turning robustness on changes no boolean letter and no byte of the
  rendered Table I;
* ``±inf`` margins survive ``to_dict``/``from_dict``/JSON round-trips
  with no NaN leakage (RFC 8259 JSON has no spelling for them, so the
  digests carry ``"inf"``/``"-inf"`` strings).

The full-fidelity golden fixture (``results/robustness_table1.json``,
campaign seed 2014) is regenerated and byte-compared by
``benchmarks/test_bench_robustness.py``; this file keeps the
determinism property in the fast tier on a reduced campaign.
"""

import json
import math

import pytest

from repro.core.robustness import (
    RuleRobustness,
    float_from_json,
    float_to_json,
)
from repro.core.violations import NearMiss
from repro.errors import ReproError
from repro.schema import SchemaError
from repro.testing.campaign import RobustnessCampaign, single_signal_tests

SUBSET = single_signal_tests()[:4]


def quick_campaign(**kwargs):
    defaults = dict(
        seed=11,
        hold_time=1.0,
        gap_time=0.25,
        settle_time=5.0,
        robustness=True,
        near_miss_threshold=5.0,
    )
    defaults.update(kwargs)
    return RobustnessCampaign(**defaults)


def canonical(table) -> str:
    return json.dumps(table.margins_json(), indent=2, sort_keys=True) + "\n"


class TestMarginDeterminism:
    def test_serial_and_parallel_margins_byte_identical(self):
        serial = quick_campaign().run_table1(tests=SUBSET)
        parallel = quick_campaign().run_table1(tests=SUBSET, jobs=4)
        assert canonical(serial) == canonical(parallel)

    def test_letters_and_table_bytes_unchanged_by_robustness(self):
        plain = quick_campaign(
            robustness=False, near_miss_threshold=None
        ).run_table1(tests=SUBSET)
        margined = quick_campaign().run_table1(tests=SUBSET)
        assert plain.format() == margined.format()
        for left, right in zip(plain.rows, margined.rows):
            assert left.letter_string() == right.letter_string()
        assert plain.rows[0].margins is None
        assert margined.has_margins()

    def test_margins_json_embeds_letters(self):
        table = quick_campaign().run_table1(tests=SUBSET)
        document = table.margins_json()
        assert document["schema"] == "repro.robustness.table1/v1"
        for doc_row, row in zip(document["rows"], table.rows):
            assert doc_row["letters"] == row.letter_string()

    def test_heatmap_renders_for_margin_campaign(self):
        table = quick_campaign().run_table1(tests=SUBSET)
        heatmap = table.margin_heatmap()
        assert heatmap.splitlines()[0] == "FAULT INJECTION MARGINS"
        assert len(heatmap.splitlines()) == len(table.rows) + 3

    def test_heatmap_requires_margins(self):
        table = quick_campaign(
            robustness=False, near_miss_threshold=None
        ).run_table1(tests=SUBSET)
        with pytest.raises(ValueError):
            table.margin_heatmap()
        with pytest.raises(ValueError):
            table.margins_json()


class TestInfinityJson:
    def test_float_json_codec(self):
        assert float_to_json(math.inf) == "inf"
        assert float_to_json(-math.inf) == "-inf"
        assert float_to_json(1.5) == 1.5
        assert float_to_json(None) is None
        assert float_from_json("inf") == math.inf
        assert float_from_json("-inf") == -math.inf
        assert float_from_json(1.5) == 1.5
        assert float_from_json(None) is None

    def test_nan_is_rejected_not_leaked(self):
        with pytest.raises(ValueError):
            float_to_json(math.nan)

    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), math.nan, "nan", "1.5", [], True]
    )
    def test_undecodable_bound_is_a_schema_error(self, value):
        # Typed for the ReproError boundary, and still a ValueError for
        # callers that catch that.
        with pytest.raises(SchemaError) as caught:
            float_from_json(value)
        assert isinstance(caught.value, ReproError)
        assert isinstance(caught.value, ValueError)

    @pytest.mark.parametrize(
        "robustness",
        [
            RuleRobustness(-math.inf, math.inf),
            RuleRobustness(math.inf, math.inf),
            RuleRobustness(-2.5, -2.5, worst_row=7, worst_time=0.14),
            RuleRobustness(-math.inf, 3.25, worst_row=0, worst_time=0.0),
        ],
    )
    def test_rule_robustness_roundtrip(self, robustness):
        encoded = json.dumps(robustness.to_dict())
        assert "NaN" not in encoded
        decoded = RuleRobustness.from_dict(json.loads(encoded))
        assert decoded == robustness

    def test_near_miss_roundtrip(self):
        near = NearMiss(
            rule_id="rule5",
            margin=-0.25,
            time=35.02,
            row=1751,
            threshold=5.0,
            crossed=True,
        )
        encoded = json.dumps(near.to_dict())
        assert "NaN" not in encoded
        assert NearMiss.from_dict(json.loads(encoded)) == near
