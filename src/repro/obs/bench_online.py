"""Machine-readable online-monitor benchmarks (``repro.bench.online/v1``).

One snapshot format, declared as :data:`ONLINE_BENCH_SCHEMA`, shared by
the committed baseline (``results/BENCH_online.json``) and the CI bench
gate (``benchmarks/gate.py online``)::

    {
      "schema": "repro.bench.online/v1",
      "period": <number>,
      "rows_base": <int>,            # rows at scale 1
      "runs": [                      # stream-length scaling sweep
        {"scale": <int>, "events": <int>, "seconds": <number>,
         "events_per_second": <number>,
         "peak_span_rows": <int>,    # max per-signal buffer row span seen
         "max_buffer_rows": <int>},  # the bounded-memory invariant
        ...
      ],
      "fleet": {                     # multi-stream service replay
        "streams": <int>, "events": <int>, "seconds": <number>,
        "events_per_second": <number>, "peak_buffer_rows": <int>
      },
      "ratios": {
        "throughput_flatness": <number>,  # eps(longest)/eps(shortest)
        "buffer_flatness": <number>       # peak(longest)/peak(shortest)
      }
    }

The two ratios are the regression signal, and both are same-machine
quantities (absolute events/s varies wildly between hosts; "doubling the
stream does not change throughput or peak buffer" does not):

* ``throughput_flatness`` ~ 1.0 means feeding is O(1) amortized per
  event.  The pre-ring-buffer trim re-recorded the whole retained window
  into a fresh trace each chunk, which shows up here immediately.
* ``buffer_flatness`` = 1.0 means peak buffer occupancy is set by the
  retention/horizon/chunk bound, not by stream length — the
  bounded-memory property measured rather than asserted.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.schema import COUNT, POSITIVE, Field, tag

#: Schema tag carried by every online bench snapshot.
ONLINE_BENCH_SCHEMA_VERSION = "repro.bench.online/v1"


def _memory_bound(entry: Any, where: str) -> List[str]:
    if entry["peak_span_rows"] > entry["max_buffer_rows"]:
        return [
            "%s breaks the memory bound: peak span %d > %d"
            % (where, entry["peak_span_rows"], entry["max_buffer_rows"])
        ]
    return []


#: The ``repro.bench.online/v1`` layout (see the module docstring).
ONLINE_BENCH_SCHEMA = Field(
    "object",
    {
        "schema": tag(ONLINE_BENCH_SCHEMA_VERSION),
        "period": POSITIVE,
        "rows_base": COUNT,
        "runs": Field(
            "array",
            of=Field(
                "object",
                {
                    **dict.fromkeys(
                        ("scale", "events", "peak_span_rows", "max_buffer_rows"),
                        COUNT,
                    ),
                    **dict.fromkeys(("seconds", "events_per_second"), POSITIVE),
                },
                check=_memory_bound,
            ),
            min_items=2,
        ),
        "fleet": Field(
            "object",
            {
                **dict.fromkeys(("streams", "events", "peak_buffer_rows"), COUNT),
                **dict.fromkeys(("seconds", "events_per_second"), POSITIVE),
            },
        ),
        "ratios": Field(
            "object",
            {"throughput_flatness": POSITIVE, "buffer_flatness": POSITIVE},
        ),
    },
    title="online bench snapshot",
)

_PERIOD = 0.02


def _bench_rules():
    from repro.core.monitor import Rule

    # Propositional + future-temporal + past-temporal: the mix drives
    # the chunking/trim machinery through every emission path while the
    # benign values keep the all-satisfied fast path hot.
    return [
        Rule.from_text("prop", "bench", "x < 2.0"),
        Rule.from_text("fut", "bench", "always[0, 400ms] x < 2.0"),
        Rule.from_text("past", "bench", "once[0, 400ms] y < 2.0"),
    ]


def _bench_events(rows: int, period: float, seed: int) -> List:
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, size=rows)
    ys = rng.uniform(0.0, 1.0, size=rows)
    events = []
    for index in range(rows):
        timestamp = index * period
        events.append((timestamp, "x", float(xs[index])))
        events.append((timestamp, "y", float(ys[index])))
    return events


def _monitor(period: float, min_chunk_rows: int, retention: float):
    from repro.core.online import OnlineMonitor

    return OnlineMonitor(
        _bench_rules(),
        period=period,
        min_chunk_rows=min_chunk_rows,
        retention=retention,
    )


def bench_online(
    rows: int = 6000,
    scales: Sequence[int] = (1, 2),
    repeats: int = 2,
    period: float = _PERIOD,
    min_chunk_rows: int = 50,
    retention: float = 0.5,
    fleet_streams: int = 8,
    seed: int = 2014,
) -> Dict[str, object]:
    """Run the stream-length scaling sweep plus a fleet service replay.

    Returns a ``repro.bench.online/v1`` snapshot (see module docstring).
    Each scale gets an untimed audit pass that checks the buffer row
    span after every feed (the bounded-memory invariant, measured) and a
    separate best-of-``repeats`` timing pass.
    """
    runs: List[Dict[str, object]] = []
    for scale in scales:
        events = _bench_events(rows * scale, period, seed)

        # Audit pass: bound checked at every single feed return.
        audit = _monitor(period, min_chunk_rows, retention)
        peak_span = 0
        for timestamp, signal, value in events:
            audit.feed(timestamp, signal, value)
            span = audit.buffer_row_span()
            if span > peak_span:
                peak_span = span
            if span > audit.max_buffer_rows:
                raise AssertionError(
                    "bounded-memory invariant broken at scale %d: "
                    "span %d > bound %d" % (scale, span, audit.max_buffer_rows)
                )
        audit.finish()

        best = float("inf")
        for _ in range(repeats):
            online = _monitor(period, min_chunk_rows, retention)
            started = time.perf_counter()
            for timestamp, signal, value in events:
                online.feed(timestamp, signal, value)
            online.finish()
            best = min(best, time.perf_counter() - started)

        runs.append(
            {
                "scale": int(scale),
                "events": len(events),
                "seconds": best,
                "events_per_second": len(events) / best,
                "peak_span_rows": int(peak_span),
                "max_buffer_rows": int(audit.max_buffer_rows),
            }
        )

    fleet = _bench_fleet(
        rows, period, min_chunk_rows, retention, fleet_streams, seed
    )

    shortest, longest = runs[0], runs[-1]
    ratios = {
        "throughput_flatness": (
            longest["events_per_second"] / shortest["events_per_second"]
        ),
        "buffer_flatness": (
            longest["peak_span_rows"] / max(shortest["peak_span_rows"], 1)
        ),
    }
    return {
        "schema": ONLINE_BENCH_SCHEMA_VERSION,
        "period": float(period),
        "rows_base": int(rows),
        "runs": runs,
        "fleet": fleet,
        "ratios": ratios,
    }


def _bench_fleet(
    rows: int,
    period: float,
    min_chunk_rows: int,
    retention: float,
    streams: int,
    seed: int,
) -> Dict[str, object]:
    from repro.fleet import replay_traces
    from repro.logs.trace import Trace

    rng = np.random.default_rng(seed + 1)
    traces = []
    for index in range(4):
        trace = Trace("bench%d" % index)
        xs = rng.uniform(0.0, 1.0, size=rows)
        ys = rng.uniform(0.0, 1.0, size=rows)
        for row in range(rows):
            timestamp = row * period
            trace.record("x", timestamp, float(xs[row]))
            trace.record("y", timestamp, float(ys[row]))
        traces.append(trace)

    started = time.perf_counter()
    report = replay_traces(
        traces,
        _bench_rules(),
        streams=streams,
        period=period,
        min_chunk_rows=min_chunk_rows,
        retention=retention,
    )
    seconds = time.perf_counter() - started
    fleet = report.rollup["fleet"]
    return {
        "streams": int(fleet["streams"]),
        "events": int(fleet["events"]),
        "seconds": seconds,
        "events_per_second": fleet["events"] / seconds,
        "peak_buffer_rows": int(fleet["peak_buffer_rows"]),
    }


def format_online_bench(snapshot: Dict[str, object]) -> str:
    """A human-readable table for an online bench snapshot."""
    lines = [
        "ONLINE MONITOR SCALING (base %d rows at %.0f ms)"
        % (snapshot["rows_base"], snapshot["period"] * 1000.0),
        "",
        "%-8s %10s %10s %16s %10s %10s"
        % ("scale", "events", "seconds", "events/second", "peak rows", "bound"),
    ]
    for entry in snapshot["runs"]:
        lines.append(
            "%-8s %10d %10.4f %16.0f %10d %10d"
            % (
                "%dx" % entry["scale"],
                entry["events"],
                entry["seconds"],
                entry["events_per_second"],
                entry["peak_span_rows"],
                entry["max_buffer_rows"],
            )
        )
    fleet = snapshot["fleet"]
    lines.append("")
    lines.append(
        "fleet replay: %d streams, %d events, %.0f events/s, peak %d rows"
        % (
            fleet["streams"],
            fleet["events"],
            fleet["events_per_second"],
            fleet["peak_buffer_rows"],
        )
    )
    lines.append("")
    for name in sorted(snapshot["ratios"]):
        lines.append("ratio %-22s %.3f" % (name, snapshot["ratios"][name]))
    return "\n".join(lines)
