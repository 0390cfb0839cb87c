"""Fleet-scale online monitoring: many vehicle streams, one service.

The package turns the single-stream :class:`~repro.core.online.OnlineMonitor`
into a service: one bounded-memory monitor shard per vehicle stream
(:mod:`repro.fleet.shard`), asyncio ingestion with explicit backpressure
(:mod:`repro.fleet.service`), mergeable fleet-wide metric rollups
(:mod:`repro.fleet.rollup`, format in :mod:`repro.fleet.schema`), a live
HTTP status endpoint (:mod:`repro.fleet.status`), and a log-replay driver
that fans a directory of drive logs across N streams
(:mod:`repro.fleet.replay`).
"""

from repro.fleet.replay import (
    assign_streams,
    interleave,
    load_log_directory,
    replay_directory,
    replay_traces,
    replay_traces_async,
)
from repro.fleet.rollup import fleet_rollup
from repro.fleet.schema import FLEET_SCHEMA, FLEET_SCHEMA_VERSION
from repro.fleet.service import POLICIES, FleetReport, FleetService
from repro.fleet.shard import StreamEvent, StreamShard

__all__ = [
    "FLEET_SCHEMA",
    "FLEET_SCHEMA_VERSION",
    "POLICIES",
    "FleetReport",
    "FleetService",
    "StreamEvent",
    "StreamShard",
    "assign_streams",
    "fleet_rollup",
    "interleave",
    "load_log_directory",
    "replay_directory",
    "replay_traces",
    "replay_traces_async",
]
