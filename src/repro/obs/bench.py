"""Machine-readable monitor benchmarks — the window-kernel sweep.

One snapshot format (``repro.bench.monitor/v1``) shared by the full
benchmark suite (``benchmarks/test_bench_monitor_perf.py`` publishes
``results/BENCH_monitor.json``) and the CI bench gate
(``benchmarks/gate.py monitor`` reruns a reduced-scale sweep and
compares against the committed baseline)::

    {
      "schema": "repro.bench.monitor/v1",
      "rows": <int>,                 # trace rows per measurement
      "period": <number>,            # seconds per row
      "sweep": [                     # width x kernel grid
        {"width_rows": <int>, "kernel": "block"|"strided",
         "seconds": <number>, "rows_per_second": <number>}, ...
      ],
      "memo": [                      # cross-rule memoization ablation
        {"memo": <bool>, "seconds": <number>,
         "rows_per_second": <number>}, ...
      ],
      "speedups": {                  # derived ratios (same machine)
        "w<width>": <number>,        # block vs strided per width
        "memo": <number>             # memo on vs off
      }
    }

Speedups are same-machine ratios, which is what makes them comparable
across hosts: absolute rows/s varies wildly between laptops and CI
runners, but "the O(n) kernel is k-times the O(n*w) kernel on identical
input" does not.  :data:`BENCH_SCHEMA` declares the layout for
:func:`repro.schema.validate`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from repro.schema import POSITIVE, POSITIVE_INT, Field, tag

#: Schema tag carried by every bench snapshot.
BENCH_SCHEMA_VERSION = "repro.bench.monitor/v1"

#: The ``repro.bench.monitor/v1`` layout (see the module docstring).
BENCH_SCHEMA = Field(
    "object",
    {
        "schema": tag(BENCH_SCHEMA_VERSION),
        "rows": POSITIVE_INT,
        "period": POSITIVE,
        "sweep": Field(
            "array",
            of=Field(
                "object",
                {
                    "width_rows": POSITIVE_INT,
                    "kernel": Field("str", enum=("block", "strided")),
                    "seconds": POSITIVE,
                    "rows_per_second": POSITIVE,
                },
            ),
            min_items=1,
        ),
        "memo": Field(
            "array",
            of=Field(
                "object",
                {
                    "memo": Field("bool"),
                    "seconds": POSITIVE,
                    "rows_per_second": POSITIVE,
                },
            ),
            min_items=1,
        ),
        "speedups": Field("map", of=POSITIVE, min_items=1),
    },
    title="bench snapshot",
)

#: The paper's fast message period.
_PERIOD = 0.02

#: Rules sharing one windowed subformula, for the memoization ablation.
_MEMO_RULE_COUNT = 6


def _bench_trace(rows: int, period: float, seed: int):
    """A uniform two-signal trace with benign values (no violations).

    Values stay below every threshold the bench rules use, so both
    kernels run the common all-satisfied path and the window aggregation
    dominates the measurement.
    """
    # Imported here, not at module scope: the monitor core itself pulls
    # in repro.obs for instrumentation.
    from repro.logs.trace import Trace

    rng = np.random.default_rng(seed)
    trace = Trace("bench")
    for name in ("x", "y"):
        values = rng.uniform(0.0, 1.0, size=rows)
        for index in range(rows):
            trace.record(name, index * period, float(values[index]))
    return trace


def _width_rule(width_rows: int, period: float):
    from repro.core.monitor import Rule

    # All four bounded operators over shared comparisons: the window
    # aggregation dominates the measurement (the comparisons are
    # memoized), and both the future and the past kernels are exercised.
    window = "%gms" % (width_rows * period * 1000.0)
    formula = (
        "(always[0, %(w)s] x < 2.0) and (eventually[0, %(w)s] y < 2.0) "
        "and (historically[0, %(w)s] x < 2.0) and (once[0, %(w)s] y < 2.0)"
        % {"w": window}
    )
    return Rule.from_text("w%d" % width_rows, "sweep", formula)


def _memo_rules(period: float) -> List[object]:
    from repro.core.monitor import Rule

    formula = "always[0, 2s] (x < 2.0 and eventually[0, 1s] y < 2.0)"
    return [
        Rule.from_text("m%d" % index, "memo", formula, gate="x < 3.0")
        for index in range(_MEMO_RULE_COUNT)
    ]


def _time_check(monitor, view, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one ``check_view`` call."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        monitor.check_view(view)
        best = min(best, time.perf_counter() - started)
    return best


def bench_monitor(
    rows: int = 15000,
    widths: Sequence[int] = (10, 100, 1000),
    repeats: int = 3,
    period: float = _PERIOD,
    seed: int = 2014,
) -> Dict[str, object]:
    """Run the width x kernel sweep plus the memo ablation.

    Returns a ``repro.bench.monitor/v1`` snapshot (see module docstring).
    """
    from repro.core.monitor import Monitor
    from repro.core.windows import use_kernel

    trace = _bench_trace(rows, period, seed)

    sweep: List[Dict[str, object]] = []
    per_width: Dict[int, Dict[str, float]] = {}
    for width in widths:
        monitor = Monitor([_width_rule(width, period)], period=period)
        view = trace.to_view(period, signals=monitor.required_signals())
        per_width[width] = {}
        for kernel in ("block", "strided"):
            with use_kernel(kernel):
                seconds = _time_check(monitor, view, repeats)
            per_width[width][kernel] = seconds
            sweep.append(
                {
                    "width_rows": int(width),
                    "kernel": kernel,
                    "seconds": seconds,
                    "rows_per_second": rows / seconds,
                }
            )

    memo_monitors = {
        flag: Monitor(_memo_rules(period), period=period, memo=flag)
        for flag in (True, False)
    }
    view = trace.to_view(
        period, signals=memo_monitors[True].required_signals()
    )
    memo: List[Dict[str, object]] = []
    memo_seconds: Dict[bool, float] = {}
    for flag in (True, False):
        seconds = _time_check(memo_monitors[flag], view, repeats)
        memo_seconds[flag] = seconds
        memo.append(
            {
                "memo": flag,
                "seconds": seconds,
                "rows_per_second": rows / seconds,
            }
        )

    speedups: Dict[str, float] = {
        "w%d" % width: kernels["strided"] / kernels["block"]
        for width, kernels in per_width.items()
    }
    speedups["memo"] = memo_seconds[False] / memo_seconds[True]

    return {
        "schema": BENCH_SCHEMA_VERSION,
        "rows": int(rows),
        "period": float(period),
        "sweep": sweep,
        "memo": memo,
        "speedups": speedups,
    }


def format_bench(snapshot: Dict[str, object]) -> str:
    """A human-readable table for a bench snapshot."""
    lines = [
        "WINDOW KERNEL SWEEP (%d rows at %.0f ms)"
        % (snapshot["rows"], snapshot["period"] * 1000.0),
        "",
        "%-12s %-9s %12s %16s"
        % ("width", "kernel", "seconds", "rows/second"),
    ]
    for entry in snapshot["sweep"]:
        lines.append(
            "%-12s %-9s %12.5f %16.0f"
            % (
                "%d rows" % entry["width_rows"],
                entry["kernel"],
                entry["seconds"],
                entry["rows_per_second"],
            )
        )
    lines.append("")
    for entry in snapshot["memo"]:
        lines.append(
            "%-22s %12.5f %16.0f"
            % (
                "memo %s" % ("on" if entry["memo"] else "off"),
                entry["seconds"],
                entry["rows_per_second"],
            )
        )
    lines.append("")
    for name in sorted(snapshot["speedups"]):
        lines.append(
            "speedup %-14s %.2fx" % (name, snapshot["speedups"][name])
        )
    return "\n".join(lines)
