"""E7 — §V-B: specification complexity vs monitoring cost.

The paper notes the simplicity/expressiveness trade-off "affects the
efficiency of the monitor", whose ultimate goal is to keep up with the
system in real time.  This bench measures the offline evaluator's
throughput (trace rows per second) as rule complexity grows, plus the
parser's cost — quantifying how much headroom the simple bounded logic
leaves over the vehicle's 50 Hz data rate.
"""

import json

import pytest

from repro.core.monitor import Monitor
from repro.core.parser import parse_formula
from repro.core.windows import active_kernel
from repro.obs import (
    BENCH_SCHEMA,
    MetricsRegistry,
    bench_monitor,
    format_bench,
    use_registry,
)
from repro.rules.safety_rules import paper_rules
from repro.schema import require_valid

PROPOSITIONAL = "BrakeRequested -> RequestedDecel <= 0"
SHORT_WINDOW = (
    "Velocity > ACCSetSpeed -> eventually[0, 400ms] "
    "not rising(RequestedTorque)"
)
LONG_WINDOW = (
    "TargetRange / Velocity < 1.0 -> "
    "eventually[0, 5s] TargetRange / Velocity > 1.0"
)


def make_monitor(formula: str) -> Monitor:
    from repro.core.monitor import Rule

    return Monitor([Rule.from_text("r", "perf", formula, gate="ACCEnabled")])


@pytest.mark.parametrize(
    "label,formula",
    [
        ("propositional", PROPOSITIONAL),
        ("window-400ms", SHORT_WINDOW),
        ("window-5s", LONG_WINDOW),
    ],
)
def test_rule_complexity_throughput(benchmark, long_trace, label, formula):
    monitor = make_monitor(formula)
    view = long_trace.to_view(0.02, signals=monitor.required_signals())

    result = benchmark(monitor.check_view, view)

    rows = view.n_rows
    seconds = benchmark.stats["mean"]
    rows_per_second = rows / seconds
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["rows_per_second"] = round(rows_per_second)
    benchmark.extra_info["realtime_factor"] = round(rows_per_second / 50.0)
    # Even the widest window must beat the vehicle's 50 Hz data rate by
    # a wide margin (the premise of eventually monitoring online).
    assert rows_per_second > 50 * 20
    assert "r" in result.letters()


def test_full_rule_set_throughput(benchmark, long_trace, publish):
    monitor = Monitor(paper_rules())
    view = long_trace.to_view(0.02, signals=monitor.required_signals())
    benchmark(monitor.check_view, view)
    rows_per_second = view.n_rows / benchmark.stats["mean"]

    # One instrumented pass for the memoization counters (the timed
    # passes above run with the default no-op registry).
    registry = MetricsRegistry()
    with use_registry(registry):
        monitor.check_view(view)
    counters = registry.snapshot()["counters"]
    hits = counters.get("eval.memo.formula.hits", 0) + counters.get(
        "eval.memo.expr.hits", 0
    )
    misses = counters.get("eval.memo.formula.misses", 0) + counters.get(
        "eval.memo.expr.misses", 0
    )

    publish(
        "monitor_perf.txt",
        "\n".join(
            [
                "SECTION V-B: MONITORING COST (all 7 rules)",
                "%-36s %d" % ("trace rows", view.n_rows),
                "%-36s %.0f" % ("rows checked per second", rows_per_second),
                "%-36s %.0fx" % ("headroom over 50 Hz real time", rows_per_second / 50.0),
                "%-36s %s" % ("window kernel", active_kernel()),
                "%-36s %d hits / %d misses (%.0f%%)"
                % (
                    "memoized subformula lookups",
                    hits,
                    misses,
                    100.0 * hits / (hits + misses) if hits + misses else 0.0,
                ),
            ]
        ),
    )
    assert rows_per_second > 50 * 10


def test_window_width_sweep(publish):
    """Width x kernel sweep plus memo ablation -> BENCH_monitor.json.

    The machine-readable snapshot is the committed baseline CI's
    bench gate compares against (``benchmarks/gate.py monitor``).
    """
    snapshot = require_valid(
        bench_monitor(rows=15000, widths=(10, 100, 1000), repeats=3),
        BENCH_SCHEMA,
    )
    publish("BENCH_monitor.json", json.dumps(snapshot, indent=2))
    publish("monitor_sweep.txt", format_bench(snapshot))
    # The O(n) kernel must beat the O(n*w) reference by a wide margin at
    # the widest window — the point of the rewrite.
    assert snapshot["speedups"]["w1000"] >= 5.0
    assert snapshot["speedups"]["w100"] > 1.0
    # Memoizing the shared subformulas must pay for itself.
    assert snapshot["speedups"]["memo"] > 1.2


def test_parser_cost(benchmark):
    # Parsing is an offline, per-rule cost; it just needs to be trivial
    # relative to evaluation.
    benchmark(parse_formula, LONG_WINDOW)
