"""The fleet monitoring service — many streams, one process.

A :class:`FleetService` runs one stateful
:class:`~repro.fleet.shard.StreamShard` per vehicle stream.  Ingestion is
asynchronous: :meth:`FleetService.submit` enqueues an event into the
stream's **bounded inbox** (an :class:`asyncio.Queue`) and a per-stream
worker task drains the inbox in batches, feeding the shard's online
monitor.  Monitor evaluation is CPU-bound and runs inline on the event
loop — batching is what keeps the interleave efficient: each worker
turn evaluates up to ``batch_events`` events (at most a few monitor
chunks) before yielding to the other streams.

Backpressure
------------

Inboxes are bounded (``inbox_events``); what happens when one fills is
the service's explicit, counted policy:

* ``"block"`` (default) — ``submit`` awaits free space.  The await *is*
  the backpressure: a producer outrunning its stream's monitor is slowed
  to the monitor's pace.  Each submit that found the inbox full first
  increments ``fleet.backpressure_blocked``.
* ``"drop"`` — a full inbox drops the incoming event and increments
  ``fleet.backpressure_dropped``.  The shard's monitor then simply never
  sees the event; for the monitor this is indistinguishable from frame
  loss on the bus.

Either way the service's memory stays bounded: per stream, at most
``inbox_events`` queued events plus the shard monitor's own
``max_buffer_rows``-bounded buffer.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.monitor import DEFAULT_PERIOD, MonitorReport, Rule
from repro.core.statemachine import StateMachine
from repro.errors import TraceError
from repro.fleet.rollup import fleet_rollup
from repro.fleet.shard import StreamShard
from repro.obs import MetricsRegistry

#: Inbox sentinel telling a worker its stream is complete.
_EOF = object()

#: Allowed backpressure policies.
POLICIES = ("block", "drop")


@dataclass
class FleetReport:
    """Final state of a drained fleet: per-stream reports plus rollup."""

    reports: Dict[str, MonitorReport] = field(default_factory=dict)
    rollup: Dict[str, object] = field(default_factory=dict)

    def violated_streams(self) -> List[str]:
        """Stream ids with at least one post-filter violation."""
        return [
            stream_id
            for stream_id, report in self.reports.items()
            if report.violated_rules()
        ]

    def summary(self) -> str:
        """Per-stream table: events, chunks, peak buffer, letters."""
        fleet = self.rollup.get("fleet", {})
        lines = [
            "fleet: %d stream(s), %d event(s), %d chunk(s), %d violation(s)"
            % (
                fleet.get("streams", len(self.reports)),
                fleet.get("events", 0),
                fleet.get("chunks", 0),
                fleet.get("violations", 0),
            ),
            "%-28s %10s %8s %10s %8s  %s"
            % ("stream", "events", "chunks", "peak rows", "late", "letters"),
        ]
        streams = self.rollup.get("streams", {})
        for stream_id in sorted(streams):
            entry = streams[stream_id]
            letters = entry.get("letters") or {}
            lines.append(
                "%-28s %10d %8d %10d %8d  %s"
                % (
                    stream_id,
                    entry.get("events", 0),
                    entry.get("chunks", 0),
                    entry.get("peak_buffer_rows", 0),
                    entry.get("late_events", 0),
                    "".join(letters[rule_id] for rule_id in sorted(letters)),
                )
            )
        backpressure = fleet.get("backpressure", {})
        if backpressure.get("dropped") or backpressure.get("blocked"):
            lines.append(
                "backpressure: %d dropped, %d blocked submit(s)"
                % (backpressure.get("dropped", 0), backpressure.get("blocked", 0))
            )
        for stream_id in sorted(self.reports):
            for note in self.reports[stream_id].notes:
                lines.append("note [%s]: %s" % (stream_id, note))
        return "\n".join(lines)


class FleetService:
    """Sharded online monitoring over many concurrent streams.

    Create the service inside a running event loop (workers are spawned
    lazily per stream), ``await submit(...)`` for every bus event, then
    ``await close()`` to drain the inboxes, flush every monitor, and get
    the :class:`FleetReport`.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        machines: Sequence[StateMachine] = (),
        period: float = DEFAULT_PERIOD,
        min_chunk_rows: int = 50,
        retention: float = 1.0,
        memo: bool = True,
        inbox_events: int = 1024,
        policy: str = "block",
        batch_events: int = 256,
        robustness: bool = False,
        observability: bool = False,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                "backpressure policy must be one of %s, got %r"
                % ("/".join(POLICIES), policy)
            )
        if inbox_events < 1:
            raise ValueError("inbox_events must be >= 1, got %d" % inbox_events)
        self.rules = list(rules)
        self.machines = list(machines)
        self.period = period
        self.min_chunk_rows = min_chunk_rows
        self.retention = retention
        self.memo = memo
        self.inbox_events = inbox_events
        self.policy = policy
        self.batch_events = max(1, batch_events)
        #: Also stream per-rule robustness margins (each shard's rollup
        #: entry gains a ``margins`` block — see ``StreamShard.margins``).
        self.robustness = robustness
        #: Attach the automata pass's minimal-observable-set bandwidth
        #: hint to every shard (``StreamShard.observability_hint``).
        self.observability = observability
        #: Service-level instruments (submissions, backpressure, batches).
        self.registry = MetricsRegistry()
        self._shards: Dict[str, StreamShard] = {}
        self._inboxes: Dict[str, asyncio.Queue] = {}
        self._workers: Dict[str, asyncio.Task] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    @property
    def stream_ids(self) -> List[str]:
        """Ids of every stream seen so far, sorted."""
        return sorted(self._shards)

    def shard(self, stream_id: str) -> StreamShard:
        """The shard for ``stream_id`` (created on first use)."""
        shard = self._shards.get(stream_id)
        if shard is None:
            shard = self._shards[stream_id] = StreamShard(
                stream_id,
                self.rules,
                machines=self.machines,
                period=self.period,
                min_chunk_rows=self.min_chunk_rows,
                retention=self.retention,
                memo=self.memo,
                robustness=self.robustness,
                observability=self.observability,
            )
            self.registry.counter("fleet.streams_opened").inc()
        return shard

    def _ensure_worker(self, stream_id: str) -> asyncio.Queue:
        inbox = self._inboxes.get(stream_id)
        if inbox is None:
            self._loop = asyncio.get_running_loop()
            shard = self.shard(stream_id)
            inbox = self._inboxes[stream_id] = asyncio.Queue(
                maxsize=self.inbox_events
            )
            self._workers[stream_id] = self._loop.create_task(
                self._worker(inbox, shard)
            )
        return inbox

    async def submit(
        self, stream_id: str, timestamp: float, signal: str, value: float
    ) -> None:
        """Enqueue one bus event for ``stream_id``.

        Applies the backpressure policy when the stream's inbox is full:
        ``block`` awaits space, ``drop`` discards the event (counted).
        A non-finite or non-numeric timestamp raises :class:`TraceError`
        here, before the event reaches (and would kill) the stream's
        worker.
        """
        if self._closed:
            raise RuntimeError("fleet service already closed")
        try:
            if not math.isfinite(timestamp):
                raise TraceError("non-finite event timestamp %r" % (timestamp,))
        except TypeError:
            raise TraceError(
                "non-numeric event timestamp %r" % (timestamp,)
            ) from None
        inbox = self._ensure_worker(stream_id)
        event = (timestamp, signal, value)
        self.registry.counter("fleet.events_submitted").inc()
        if self.policy == "drop":
            try:
                inbox.put_nowait(event)
            except asyncio.QueueFull:
                self.registry.counter("fleet.backpressure_dropped").inc()
            return
        if inbox.full():
            self.registry.counter("fleet.backpressure_blocked").inc()
        await inbox.put(event)

    async def _worker(self, inbox: asyncio.Queue, shard: StreamShard) -> None:
        """Drain one stream's inbox in batches until its EOF sentinel."""
        while True:
            event = await inbox.get()
            stop = event is _EOF
            batch = []
            if not stop:
                batch.append(event)
                while len(batch) < self.batch_events:
                    try:
                        queued = inbox.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if queued is _EOF:
                        stop = True
                        break
                    batch.append(queued)
            if batch:
                shard.feed_batch(batch)
                self.registry.counter("fleet.batches").inc()
            if stop:
                return
            # Yield so the other streams' workers interleave fairly even
            # when this inbox never runs dry.
            await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # Rollup / shutdown
    # ------------------------------------------------------------------

    def rollup(self) -> Dict[str, object]:
        """A live ``repro.fleet/v1`` rollup of every shard.

        Only safe from the service's own event loop thread; other
        threads (the status endpoint) must use
        :meth:`rollup_threadsafe`.
        """
        return fleet_rollup(self._shards.values(), self.registry)

    def rollup_threadsafe(self, timeout: float = 5.0) -> Dict[str, object]:
        """Build a rollup from any thread.

        Schedules the build on the service's event loop (between worker
        batches), so shard registries are never read mid-mutation.
        Falls back to a direct build when no loop is running (the
        service is idle or already closed).
        """
        loop = self._loop
        if loop is not None and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(self._rollup_async(), loop)
            return future.result(timeout=timeout)
        return self.rollup()

    async def _rollup_async(self) -> Dict[str, object]:
        return self.rollup()

    async def close(self) -> FleetReport:
        """Drain every inbox, flush every monitor, return the report."""
        if self._closed:
            raise RuntimeError("fleet service already closed")
        self._closed = True
        for inbox in self._inboxes.values():
            await inbox.put(_EOF)
        if self._workers:
            await asyncio.gather(*self._workers.values())
        reports = {
            stream_id: shard.finish()
            for stream_id, shard in sorted(self._shards.items())
        }
        return FleetReport(reports=reports, rollup=self.rollup())
