"""The fleet rollup JSON format (``repro.fleet/v1``) — docs and validation.

A rollup is one JSON object::

    {
      "schema": "repro.fleet/v1",
      "streams": {
        "<stream id>": {
          "stream": "<stream id>",
          "events": <int>,                # events fed to the shard
          "chunks": <int>,                # chunk emissions so far
          "rows_emitted": <int>,
          "violations": <int>,
          "late_events": <int>,           # dropped behind the frontier
          "emit_waits": <int>,            # emissions deferred on missing signals
          "peak_buffer_rows": <int>,      # fullest per-signal buffer seen
          "max_buffer_rows": <int>,       # the bounded-memory invariant
          "decision_latency": <number>,   # worst-case verdict delay, seconds
          "finished": <bool>,
          "letters": {"<rule id>": "S"|"V", ...} | null,   # null while live
          "margins": {"<rule id>": {"lower": <json float>,
                                    "upper": <json float>}, ...} | null,
          "observability": {"referenced": [<signal>, ...],
                            "required": [<signal>, ...],
                            "droppable": [<signal>, ...],
                            "bandwidth_hint": <number in [0, 1]>} | null,
          "metrics": <repro.obs/v1 snapshot>
        }, ...
      },
      "fleet": {
        "streams": <int>,
        "events": <int>,
        "chunks": <int>,
        "violations": <int>,
        "late_events": <int>,
        "peak_buffer_rows": <int>,        # max over streams
        "margins": {...} | null,          # per-rule pointwise min over streams
        "observability": {...} | null,    # union over reporting streams
        "backpressure": {"dropped": <int>, "blocked": <int>},
        "metrics": <repro.obs/v1 snapshot> # all shards + service, merged
      }
    }

Per-stream ``margins`` is null unless the shard runs with
``robustness=True``; bounds are JSON-safe floats (``"-inf"``/``"inf"``
strings for the infinities, per ``repro.core.robustness.float_to_json``)
with ``lower <= upper``.  The fleet-level block is the per-rule
pointwise minimum over reporting streams — the fleet's worst margin.

Per-stream ``observability`` is null unless the shard runs with
``observability=True``: the symbolic automata pass's minimal
observable-signal set unioned over the shard's rules
(``required`` and ``droppable`` partition ``referenced``;
``bandwidth_hint`` is the droppable fraction).  The fleet-level block
unions the reporting streams — a signal is fleet-droppable only when no
stream requires it.

Per-stream ``metrics`` are full ``repro.obs/v1`` snapshots (the
declaration nests :data:`repro.obs.schema.SNAPSHOT_SCHEMA`); the
fleet-level ``metrics`` object is their associative merge plus the
service's own counters, so totals are independent of the order streams
were rolled up in.  Check a rollup with
``repro.schema.validate(rollup, FLEET_SCHEMA)``.
"""

from __future__ import annotations

from typing import Any, List

from repro.obs.schema import SNAPSHOT_SCHEMA
from repro.schema import (
    BOUND,
    COUNT,
    POSITIVE,
    SIGNAL_SETS,
    Field,
    ordered_bounds,
    partition,
    tag,
)

#: Rollup format identifier; bump when the JSON layout changes.
FLEET_SCHEMA_VERSION = "repro.fleet/v1"

_MARGINS = Field(
    "map",
    of=Field("object", {"lower": BOUND, "upper": BOUND}, check=ordered_bounds),
    nullable=True,
    optional=True,
)

_OBSERVABILITY = Field(
    "object",
    dict(SIGNAL_SETS, bandwidth_hint=Field("num", ge=0.0, le=1.0)),
    nullable=True,
    optional=True,
    check=partition,
)

#: Counters carried by every stream entry and by the fleet section.
_COUNTS = ("events", "chunks", "violations", "late_events", "peak_buffer_rows")

_STREAM = Field(
    "object",
    {
        **dict.fromkeys(
            _COUNTS + ("rows_emitted", "emit_waits", "max_buffer_rows"), COUNT
        ),
        "stream": Field("str"),
        "decision_latency": POSITIVE,
        "finished": Field("bool"),
        "letters": Field(
            "map", of=Field("str", enum=("S", "V")), nullable=True, optional=True
        ),
        "margins": _MARGINS,
        "observability": _OBSERVABILITY,
        "metrics": SNAPSHOT_SCHEMA,
    },
)


def _echo(streams: Any, where: str) -> List[str]:
    return [
        "stream %r 'stream' field is %r (must echo its key)"
        % (stream_id, entry["stream"])
        for stream_id, entry in streams.items()
        if entry["stream"] != stream_id
    ]


def _stream_count(rollup: Any, where: str) -> List[str]:
    fleet, streams = rollup["fleet"], rollup["streams"]
    if fleet["streams"] != len(streams):
        return [
            "fleet 'streams' is %d but %d stream entries are present"
            % (fleet["streams"], len(streams))
        ]
    return []


#: The ``repro.fleet/v1`` rollup (layout in the module docstring).
FLEET_SCHEMA = Field(
    "object",
    {
        "schema": tag(FLEET_SCHEMA_VERSION),
        "streams": Field("map", of=_STREAM, check=_echo),
        "fleet": Field(
            "object",
            {
                **dict.fromkeys(("streams",) + _COUNTS, COUNT),
                "margins": _MARGINS,
                "observability": _OBSERVABILITY,
                "backpressure": Field("object", {"dropped": COUNT, "blocked": COUNT}),
                "metrics": SNAPSHOT_SCHEMA,
            },
        ),
    },
    check=_stream_count,
    title="fleet rollup",
)
