"""The metrics snapshot JSON format — documentation and validation.

A snapshot is one JSON object::

    {
      "schema": "repro.obs/v1",
      "counters":   {"<name>": <int>, ...},
      "gauges":     {"<name>": {"value": <number>, "updates": <int>}, ...},
      "histograms": {"<name>": {"count": <int>, "sum": <number>,
                                "min": <number>, "max": <number>,
                                "buckets": {"<bucket index>": <int>, ...}},
                     ...}
    }

Histogram buckets are log-scale (see :mod:`repro.obs.metrics`); bucket
keys are stringified integer indices because JSON object keys must be
strings.  Merging two snapshots adds counters, merges histograms
bucket-wise, and keeps the last gauge value — see
:meth:`repro.obs.MetricsRegistry.merge_snapshot`.

The declaration is :data:`SNAPSHOT_SCHEMA`; check a document with
``repro.schema.validate(snapshot, SNAPSHOT_SCHEMA)`` (a list of
problems) or ``repro.schema.require_valid`` (raises
:class:`repro.schema.SchemaError`) — the CI table1-smoke step calls the
latter.
"""

from __future__ import annotations

from typing import Any, List

from repro.obs.metrics import SCHEMA_VERSION
from repro.schema import COUNT, Field, tag


def _buckets(dump: Any, where: str) -> List[str]:
    """Bucket keys are integer indices whose counts sum to ``count``."""
    problems = []
    for index in dump["buckets"]:
        try:
            int(index)
        except (TypeError, ValueError):
            problems.append("%s bucket key %r is not an integer index" % (where, index))
    total = sum(dump["buckets"].values())
    if total != dump["count"]:
        problems.append(
            "%s bucket counts sum to %d but 'count' is %d"
            % (where, total, dump["count"])
        )
    return problems


_HISTOGRAM = Field(
    "object",
    {
        "count": COUNT,
        **dict.fromkeys(("sum", "min", "max"), Field("num")),
        "buckets": Field("map", of=COUNT),
    },
    check=_buckets,
)

#: The ``repro.obs/v1`` metrics snapshot (layout in the module docstring).
SNAPSHOT_SCHEMA = Field(
    "object",
    {
        "schema": tag(SCHEMA_VERSION),
        "counters": Field("map", of=COUNT),
        "gauges": Field(
            "map", of=Field("object", {"value": Field("num"), "updates": COUNT})
        ),
        "histograms": Field("map", of=_HISTOGRAM),
    },
    title="metrics snapshot",
)
