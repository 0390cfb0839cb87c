"""Machine-readable batched-checking benchmarks
(``repro.bench.batch/v1``).

One snapshot format, declared as :data:`BATCH_BENCH_SCHEMA`, shared by
the committed baseline (``results/BENCH_batch.json``) and the CI bench
gate (``benchmarks/gate.py batch``)::

    {
      "schema": "repro.bench.batch/v1",
      "period": <number>,
      "traces": <int>,              # traces in the workload
      "rows_total": <int>,          # resampled rows across all traces
      "rules": <int>,               # rules checked per trace
      "runs": {
        "per_trace_seconds": <number>,  # median per-trace loop
        "batch_seconds": <number>,      # median store-backed check_batch
        "pack_seconds": <number>        # one-time grid pack cost
      },
      "bytes": {
        "trace_pickle": <int>,      # pickling every trace (old payload)
        "store_handle": <int>       # pickling the store handle (new)
      },
      "ratios": {
        "speedup": <number>,        # per_trace_seconds / batch_seconds
        "pickle_collapse": <number> # trace_pickle / store_handle
      },
      "identical": true             # letters byte-identical either way
    }

Both ratios are same-machine quantities — absolute seconds vary wildly
between hosts, the two headline properties do not:

* ``speedup`` is the price of the per-trace loop relative to one
  batched pass over a grid-packed columnar store: the store amortizes
  resampling at pack time and the batch evaluates each rule once over
  2-D ``(trace, row)`` columns instead of once per trace.
* ``pickle_collapse`` is the process-boundary claim: what used to cross
  as pickled trace data now crosses as a store *handle* (a path or
  SharedMemory name), so the payload is O(config) regardless of how
  much trace data the campaign produced.

The workload replicates the synthetic paper drive logs ``replicas``
times with distinct seeds — equal-duration traces form groups exactly
like Table I's repeated test rows, which is the shape
:meth:`~repro.core.monitor.Monitor.check_batch` stacks.  The bench
*audits itself*: it refuses to report a timing unless the batched
reports are byte-identical to the per-trace loop's — a bench that gets
wrong answers fast must not pass.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import time
from typing import Dict, List

from repro.schema import POSITIVE, POSITIVE_INT, Field, tag

#: Schema tag carried by every batch bench snapshot.
BATCH_BENCH_SCHEMA_VERSION = "repro.bench.batch/v1"

#: The ``repro.bench.batch/v1`` layout (see the module docstring).
BATCH_BENCH_SCHEMA = Field(
    "object",
    {
        "schema": tag(BATCH_BENCH_SCHEMA_VERSION),
        "period": POSITIVE,
        **dict.fromkeys(("traces", "rows_total", "rules"), POSITIVE_INT),
        "runs": Field(
            "object",
            dict.fromkeys(
                ("per_trace_seconds", "batch_seconds", "pack_seconds"), POSITIVE
            ),
        ),
        "bytes": Field(
            "object", dict.fromkeys(("trace_pickle", "store_handle"), POSITIVE_INT)
        ),
        "ratios": Field(
            "object", dict.fromkeys(("speedup", "pickle_collapse"), POSITIVE)
        ),
        # A batch bench whose letters diverge from the per-trace loop is
        # meaningless.
        "identical": Field("bool", enum=(True,)),
    },
    title="batch bench snapshot",
)

_PERIOD = 0.02


def _workload(replicas: int, seed: int) -> List[object]:
    """Equal-duration trace groups, Table I shaped: each replica of a
    drive scenario has the same row count as its siblings."""
    from repro.logs.vehicle_logs import generate_drive_logs

    traces = []
    for replica in range(replicas):
        for trace in generate_drive_logs(seed=seed + replica):
            trace.name = "%s#%d" % (trace.name, replica)
            traces.append(trace)
    return traces


def _median(samples: List[float]) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def _report_bytes(reports) -> bytes:
    """Canonical byte serialization of a report list (NaN-safe — dict
    equality is not, because ``nan != nan`` in witness values)."""
    return json.dumps([report.to_dict() for report in reports]).encode()


def bench_batch(
    replicas: int = 4,
    repeats: int = 5,
    period: float = _PERIOD,
    seed: int = 2014,
) -> Dict[str, object]:
    """Time the per-trace loop against store-backed batched checking.

    Returns a ``repro.bench.batch/v1`` snapshot (see module docstring).
    Each side is timed median-of-``repeats`` with a fresh
    :class:`~repro.core.monitor.Monitor` per run; the grid pack is timed
    once (it is a one-time cost the store amortizes over every
    subsequent check).  Raises ``AssertionError`` if the batched reports
    are not byte-identical to the per-trace loop's.
    """
    from repro.core.monitor import Monitor
    from repro.logs.store import TraceStore
    from repro.rules.safety_rules import paper_rules

    traces = _workload(replicas, seed)

    def per_trace_run():
        monitor = Monitor(paper_rules())
        return [monitor.check(trace) for trace in traces]

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        path = os.path.join(tmp, "bench.rtc")
        started = time.perf_counter()
        TraceStore.pack(traces, path, grid=period)
        pack_seconds = time.perf_counter() - started
        store = TraceStore.open(path)
        try:

            def batch_run():
                monitor = Monitor(paper_rules())
                return monitor.check_batch(store)

            baseline_reports = per_trace_run()
            batch_reports = batch_run()
            identical = _report_bytes(baseline_reports) == _report_bytes(
                batch_reports
            )
            if not identical:
                raise AssertionError(
                    "batched reports diverged from the per-trace loop"
                )

            per_trace_samples = []
            batch_samples = []
            for _ in range(repeats):
                started = time.perf_counter()
                per_trace_run()
                per_trace_samples.append(time.perf_counter() - started)
                started = time.perf_counter()
                batch_run()
                batch_samples.append(time.perf_counter() - started)

            rows_total = sum(
                trace.to_view(period).n_rows for trace in traces
            )
            handle_bytes = len(pickle.dumps(store.source))
        finally:
            store.close()

    trace_pickle = sum(len(pickle.dumps(trace)) for trace in traces)
    per_trace_seconds = _median(per_trace_samples)
    batch_seconds = _median(batch_samples)
    return {
        "schema": BATCH_BENCH_SCHEMA_VERSION,
        "period": float(period),
        "traces": len(traces),
        "rows_total": int(rows_total),
        "rules": len(paper_rules()),
        "runs": {
            "per_trace_seconds": per_trace_seconds,
            "batch_seconds": batch_seconds,
            "pack_seconds": pack_seconds,
        },
        "bytes": {
            "trace_pickle": int(trace_pickle),
            "store_handle": int(handle_bytes),
        },
        "ratios": {
            "speedup": per_trace_seconds / batch_seconds,
            "pickle_collapse": trace_pickle / handle_bytes,
        },
        "identical": identical,
    }


def format_batch_bench(snapshot: Dict[str, object]) -> str:
    """A human-readable summary for a batch bench snapshot."""
    runs = snapshot["runs"]
    sizes = snapshot["bytes"]
    ratios = snapshot["ratios"]
    lines = [
        "BATCHED CHECKING vs PER-TRACE LOOP (%d traces, %d rows, %d rules)"
        % (snapshot["traces"], snapshot["rows_total"], snapshot["rules"]),
        "",
        "per-trace loop   %10.3f s" % runs["per_trace_seconds"],
        "batched (store)  %10.3f s" % runs["batch_seconds"],
        "grid pack (once) %10.3f s" % runs["pack_seconds"],
        "",
        "trace pickle     %10d bytes" % sizes["trace_pickle"],
        "store handle     %10d bytes" % sizes["store_handle"],
        "",
        "ratio speedup           %10.2fx" % ratios["speedup"],
        "ratio pickle_collapse   %10.0fx" % ratios["pickle_collapse"],
        "letters byte-identical: %s" % snapshot["identical"],
    ]
    return "\n".join(lines)
