"""E18 — quantitative robustness margins beside the boolean Table I.

Regenerates the margin-annotated campaign artifacts and checks the
differential guarantee at full campaign scale:

* the margin heatmap variant of Table I (``results/robustness_table1.txt``)
  and its canonical JSON, byte-compared against the committed golden
  fixture ``results/robustness_table1.json`` — serial and ``jobs=4``
  regenerations must both reproduce it exactly;
* the boolean letters are bit-identical with robustness on (the golden
  fixture embeds them, so the byte comparison pins this too);
* campaign-level sign consistency: a certainly-positive margin implies
  S, a V letter implies a non-positive margin bound;
* near-miss margins over the §IV-A vehicle drive
  (``results/near_misses.txt``) — the E18 finding is that the relaxed
  rules report every drive log clean while the margins expose cells
  where the intent filters dismissed a real crossing;
* the ``repro.bench.robustness/v1`` sweep validates against its schema.
"""

import json
from pathlib import Path

from repro.core.monitor import Monitor
from repro.core.robustness import float_from_json
from repro.obs import (
    ROBUSTNESS_BENCH_SCHEMA,
    bench_robustness,
    format_robustness_bench,
)
from repro.rules.safety_rules import RULE_IDS, paper_rules
from repro.schema import require_valid
from repro.testing.campaign import RobustnessCampaign

GOLDEN = (
    Path(__file__).resolve().parent.parent / "results" / "robustness_table1.json"
)

#: Must match the session ``table1`` fixture (benchmarks/conftest.py).
SEED = 2014
NEAR_MISS_THRESHOLD = 5.0


def canonical_json(table) -> str:
    """The byte-stable serialization the golden fixture is stored in
    (same call the CLI's ``table1 --margins-out`` makes)."""
    return json.dumps(table.margins_json(), indent=2, sort_keys=True) + "\n"


def test_margin_heatmap_matches_golden(table1, publish):
    publish("robustness_table1.txt", table1.margin_heatmap())
    assert GOLDEN.exists(), "run this campaign once and commit the fixture"
    assert canonical_json(table1) == GOLDEN.read_text(encoding="utf-8"), (
        "margin table drifted from the committed fixture; re-validate "
        "the campaign before re-pinning results/robustness_table1.json"
    )


def test_parallel_regeneration_is_byte_identical():
    table = RobustnessCampaign(
        seed=SEED, robustness=True, near_miss_threshold=NEAR_MISS_THRESHOLD
    ).run_table1(jobs=4)
    assert canonical_json(table) == GOLDEN.read_text(encoding="utf-8")


def test_campaign_differential_guarantee(table1):
    """Sign consistency between every letter and its margin digest."""
    checked = 0
    for row in table1.rows:
        letters = row.letter_string()
        for index, rule_id in enumerate(RULE_IDS):
            digest = row.margins[rule_id]
            if digest is None:
                # Statically pruned cell: audit proved it satisfied.
                assert letters[index] == "S", (row.label, rule_id)
                continue
            lower = float_from_json(digest["lower"])
            upper = float_from_json(digest["upper"])
            assert lower <= upper, (row.label, rule_id)
            if lower > 0:
                assert letters[index] == "S", (row.label, rule_id)
            if letters[index] == "V":
                assert upper <= 0, (row.label, rule_id)
            checked += 1
    assert checked > 100  # the guarantee was exercised at scale


def test_drive_log_near_misses(drive_logs, publish):
    """§IV-A margins: letters say clean, margins say how close."""
    monitor = Monitor(paper_rules(relaxed=True))
    lines = [
        "SECTION IV-A NEAR-MISS MARGINS (relaxed rules, threshold %g)"
        % NEAR_MISS_THRESHOLD,
        "",
    ]
    crossed_cells = 0
    zero_margin_cells = 0
    for trace in drive_logs:
        report = monitor.check(
            trace,
            robustness=True,
            near_miss_threshold=NEAR_MISS_THRESHOLD,
        )
        assert report.all_satisfied, trace.name
        lines.append("%s" % trace.name)
        for near in report.near_misses():
            lines.append("  %s" % near)
            crossed_cells += near.crossed
            zero_margin_cells += near.margin == 0
        if not report.near_misses():
            lines.append("  -")
    publish("near_misses.txt", "\n".join(lines))

    # The E18 finding: triage dismissed real crossings somewhere on the
    # drive — invisible in the letters, explicit in the margins...
    assert crossed_cells > 0
    # ...and rule #5 rides its bound at exactly zero margin.
    assert zero_margin_cells > 0


def test_robustness_bench_schema(publish):
    snapshot = require_valid(
        bench_robustness(rows=20000, repeats=2),
        ROBUSTNESS_BENCH_SCHEMA,
    )
    publish("robustness_bench.txt", format_robustness_bench(snapshot))
    # Same-machine scaling: overhead must not grow with window width.
    assert snapshot["ratios"]["overhead_flatness"] < 5.0
