"""The benchmark's three workloads over the ``repro`` oracle.

Each workload has a set-up (input generation from the seed, timed and
repeated by the runner) and a *pass*: one timed unit of work whose every
output is checked against a reference.

* ``campaign`` — a serial Table I campaign over a fixed row subset, with
  the paper's hold/gap/settle times: simulation does almost all the work.
* ``log_check`` — the §IV-A oracle over stored evidence: the six drive
  logs packed into an ``.rtc`` store, checked by ``check_batch`` with the
  strict and then the relaxed rule set; no simulation in the pass.
* ``fleet_replay`` — the same drive logs replayed across eight streams in
  global timestamp order through ``FleetService.submit``: ingest,
  buffering, chunked online evaluation and rollup.

A pass reports when it started and ended, how much it simulated and how
long that took where it simulates, the work it did (trace rows checked, signal events handled), verdict latency
samples, the program's own deterministic counters, and how many of its
operations matched the reference.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro.core.monitor import DEFAULT_PERIOD, Monitor
from repro.fleet import replay as replay_mod
from repro.fleet.service import FleetService
from repro.hil.simulator import PHYSICS_DT, HilSimulator
from repro.logs.store import TraceStore
from repro.logs.vehicle_logs import generate_drive_logs, representative_scenarios
from repro.obs import MetricsRegistry, use_registry
from repro.obs.metrics import Span
from repro.rules.safety_rules import paper_rules, paper_specset
from repro.testing.campaign import RobustnessCampaign, table1_tests

from spans import patched

#: Table I rows of the ``campaign`` workload: every injection kind, critical
#: (Velocity, TargetRange) and quiet (SelHeadway) single targets, and the
#: multi-signal rows; Random SelHeadway and mRandom All also exercise the
#: HIL type checker's rejections.
CAMPAIGN_ROWS = (
    "Random SelHeadway",
    "Ballista Velocity",
    "Bitflips TargetRange",
    "mRandom All",
    "mBallista Range+",
    "mBitflip2 Range+",
)
#: Fleet replay shape: the ``repro fleet replay`` CLI defaults.
FLEET_STREAMS = 8
FLEET_INBOX = 1024
FLEET_MIN_CHUNK_ROWS = 50
FLEET_RETENTION = 1.0
#: One latency sample per this many events (deterministic sampling); in
#: the simulator, one stamp per this many steps.  A prime, so that the
#: samples do not keep one phase of the fleet's power-of-two batches.
SAMPLE_EVERY = 61

#: Entries the calibration loop stores, and loops per calibration sample.
CAL_ENTRIES = 8000
CAL_REPEATS = 3
#: The calibration loop's time on the reference host; reported times are
#: host seconds scaled to a host that runs the loop this fast.
CAL_REFERENCE_S = 0.003
#: Fleet events submitted, or simulator steps run, between two
#: calibration samples.
CAL_EVERY_EVENTS = 65536
CAL_EVERY_STEPS = 4096

#: The program's counters each workload must reproduce exactly per seed.
CHECKED_COUNTERS = {
    "campaign": ("frames_sent", "injections", "rejections", "collisions"),
    "log_check": ("monitor.rows_checked", "monitor.batch.groups"),
    "fleet_replay": ("online.chunks", "fleet.batches", "rows_emitted"),
}


def letter_string(letters: Dict[str, str]) -> str:
    """Rule letters as one string in rule-id order (``SVVSSVS``)."""
    return "".join(letters[rule_id] for rule_id in sorted(letters))


@dataclass
class PassResult:
    """What one pass did, measured and checked.

    Times are readings of :meth:`Calibration.clock`; the runner converts
    them to reference seconds.
    """

    start: float
    end: float
    rows: int
    events: int
    #: Verdict latency samples: when each sampled event entered, and when
    #: its verdict was emitted.
    latency_from: np.ndarray
    latency_to: np.ndarray
    counters: Dict[str, float]
    #: Outputs per operation label, compared against the reference.
    outputs: Dict[str, str]
    #: Simulated seconds, and the host seconds spent simulating them, when
    #: the pass simulates.
    simulated_s: Optional[float] = None
    simulating_s: Optional[float] = None
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def check(
        self, references: List[Dict[str, str]], checked_counters: Dict[str, int]
    ) -> None:
        """Count operations: each output, plus the counter set as one.

        An output must equal its value in every one of ``references``; a
        label that a reference names and the pass did not output fails.
        """
        labels = sorted(set(self.outputs).union(*references))
        for label in labels:
            self.attempted += 1
            output = self.outputs.get(label)
            wants = [reference.get(label) for reference in references]
            if any(output != want for want in wants):
                self.failed += 1
                self.mismatches.append("%s: got %s, want %s" % (label, output, wants))
        self.attempted += 1
        got = {key: self.counters.get(key) for key in checked_counters}
        if got != checked_counters:
            self.failed += 1
            self.mismatches.append("counters: got %s, want %s" % (got, checked_counters))


def calibration_loop() -> float:
    """One run of the calibration loop; returns its duration.

    It allocates, hashes and looks up small objects, as the program does,
    so that neighbours crowding the caches slow it much as they slow the
    program; a loop of arithmetic alone tracks that poorly.
    """
    start = perf_counter()
    table = {}
    for i in range(CAL_ENTRIES):
        table[(i * 7919) % 100003] = [i, float(i), str(i)]
    total = 0.0
    for key in range(0, 100003, 7):
        entry = table.get(key)
        if entry is not None:
            total += entry[1]
    return perf_counter() - start


class Calibration:
    """Times of a fixed pure-Python loop, a gauge of the host's speed.

    Other processes on a shared host change its speed by up to 2x over
    seconds to minutes.  The loop uses nothing of the program, so timing
    it next to the program's work tells how fast the host was then
    without looking at the program's own times.  :meth:`clock` leaves out
    the time spent in the loop and in :meth:`excluded` blocks, so samples
    may be taken inside a timed region.  A disabled calibration takes no
    samples.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: Per sample: the clock reading, and the median loop time.
        self.times: List[float] = []
        self.loops: List[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        """Time the loop :data:`CAL_REPEATS` times."""
        if not self.enabled:
            return
        self.times.append(self.clock())
        with self.excluded():
            self.loops.append(
                float(np.median([calibration_loop() for _ in range(CAL_REPEATS)]))
            )

    @contextlib.contextmanager
    def excluded(self):
        """A block whose time :meth:`clock` leaves out."""
        began = perf_counter()
        try:
            yield
        finally:
            self.spent += perf_counter() - began

    def clock(self) -> float:
        """``perf_counter()`` less the time spent sampling."""
        return perf_counter() - self.spent

    def reference_clock(self):
        """A function from clock readings to reference seconds.

        Between two samples the host is taken to run at the mean of their
        speeds; a clock second there counts as :data:`CAL_REFERENCE_S`
        over the mean loop time.  Readings must lie within the samples.
        """
        times = np.asarray(self.times)
        loops = np.asarray(self.loops)
        rate = CAL_REFERENCE_S / ((loops[1:] + loops[:-1]) / 2)
        reference = np.concatenate([[0.0], np.cumsum(np.diff(times) * rate)])
        return lambda readings: np.interp(readings, times, reference)


#: For runs that do not calibrate (the traced run).
NO_CALIBRATION = Calibration(enabled=False)


def _counter_values(registry: MetricsRegistry) -> Dict[str, float]:
    return {name: counter.value for name, counter in registry.counters.items()}


class _StepSampler:
    """Samples the host's speed every :data:`CAL_EVERY_STEPS` simulator
    steps, and keeps the time spent doing so."""

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration
        self.steps = 0
        self.sampling_s = 0.0

    def wrap(self, step):
        def sampled(simulator):
            step(simulator)
            self.steps += 1
            if self.steps % CAL_EVERY_STEPS == 0:
                self._sample()

        return sampled

    def _sample(self) -> None:
        spent = self.calibration.spent
        self.calibration.sample()
        self.sampling_s += self.calibration.spent - spent


class _StepProbe(_StepSampler):
    """A step sampler that also stamps every ``SAMPLE_EVERY``-th step.

    The frames a step puts on the bus are recorded during that step, so a
    stamp marks when those bus events reached the captured trace.  The
    probe also keeps the current simulator so its frame counter can be
    read when a row finishes.
    """

    def __init__(self, calibration: Calibration) -> None:
        super().__init__(calibration)
        self.stamps: List[float] = []
        self.simulator: Optional[HilSimulator] = None

    def wrap(self, step):
        clock = self.calibration.clock

        def probed(simulator):
            step(simulator)
            self.steps += 1
            if self.steps % SAMPLE_EVERY == 0:
                self.simulator = simulator
                self.stamps.append(clock())
            if self.steps % CAL_EVERY_STEPS == 0:
                self._sample()

        return probed


class _VerdictSpan(Span):
    """A program span that also stamps when it ends."""

    __slots__ = ()

    def __exit__(self, *exc_info: object) -> None:
        super().__exit__(*exc_info)
        self.registry.verdicts.append(self.registry.clock())


class _VerdictRegistry(MetricsRegistry):
    """A metrics registry that stamps the end of every rule verdict.

    ``Monitor`` evaluates each rule inside its own ``monitor.rule.<id>``
    span; when that span ends, the rule's verdicts for the traces it
    covered are final.
    """

    def __init__(self, clock) -> None:
        super().__init__()
        self.clock = clock
        self.verdicts: List[float] = []

    def span(self, name: str) -> Span:
        if name.startswith("monitor.rule."):
            return _VerdictSpan(self, name)
        return super().span(name)


class _ViewTrace:
    """A trace-like that gives ``Monitor.check_batch`` a view made before."""

    def __init__(self, name: str, view) -> None:
        self.name = name
        self.view = view

    def to_view(self, period: float, signals=None):
        return self.view


def _drive_logs(seed: int, calibration: Calibration):
    """The six drive logs, and how long simulating them took."""
    start = calibration.clock()
    with patched(HilSimulator, "step", _StepSampler(calibration).wrap):
        logs = generate_drive_logs(seed=seed)
    simulation = {
        "simulated_s": sum(s.duration for s in representative_scenarios()),
        "from": start,
        "to": calibration.clock(),
    }
    return logs, simulation


class CampaignWorkload:
    """Serial per-trace Table I campaign over :data:`CAMPAIGN_ROWS`."""

    name = "campaign"

    def setup(self, seed: int, calibration: Calibration = NO_CALIBRATION) -> Dict[str, float]:
        by_label = {test.label: test for test in table1_tests()}
        self.tests = [by_label[label] for label in CAMPAIGN_ROWS]
        # The campaign hands each row's trace to ``progress``, which keeps
        # the first pass's resampled views for the reference.
        self.campaign = RobustnessCampaign(seed=seed, keep_traces=True)
        self.views: Optional[Dict[str, _ViewTrace]] = None
        return {}

    def reference(self) -> Dict[str, str]:
        """The first pass's traces checked again by ``check_batch``.

        Rows of equal length (five of the six) are stacked into 2-D
        columns and evaluated together: another code path than the
        per-trace ``Monitor.check`` that gave every pass its letters.
        """
        labels = list(self.views)
        reports = self.campaign.make_monitor().check_batch(
            [self.views[label] for label in labels]
        )
        return {
            label: letter_string(report.letters())
            for label, report in zip(labels, reports)
        }

    def run_pass(self, calibration: Calibration = NO_CALIBRATION) -> PassResult:
        """One campaign; the host's speed is sampled inside the rows (by
        the step probe) and after each."""
        clock = calibration.clock
        probe = _StepProbe(calibration)
        registry = MetricsRegistry()
        stamps: List[np.ndarray] = []
        verdicts: List[np.ndarray] = []
        outputs: Dict[str, str] = {}
        totals = {"rows": 0, "frames": 0}
        keep = self.views is None
        if keep:
            self.views = {}
            monitor = self.campaign.make_monitor()
            signals = monitor.required_signals()

        def progress(test, outcome):
            # The row's verdict is emitted here, right after its check.
            stamps.append(np.asarray(probe.stamps))
            verdicts.append(np.full(len(probe.stamps), clock()))
            probe.stamps.clear()
            outputs[test.label] = letter_string(outcome.letters)
            if keep:
                # Views are much smaller than traces; their time is not
                # the pass's.
                with calibration.excluded():
                    view = outcome.trace.to_view(monitor.period, signals=signals)
                self.views[test.label] = _ViewTrace(outcome.trace.name, view)
            outcome.trace = None
            first = next(iter(outcome.report.results.values()))
            totals["rows"] += first.rows_total
            totals["frames"] += probe.simulator.bus.frames_sent
            calibration.sample()

        with patched(HilSimulator, "step", probe.wrap), use_registry(registry):
            start = clock()
            self.campaign.run_table1(tests=self.tests, progress=progress)
            end = clock()
        counters = _counter_values(registry)
        counters["frames_sent"] = totals["frames"]
        for key in ("injections", "rejections", "collisions"):
            counters[key] = counters.get("campaign." + key, 0)
        return PassResult(
            start=start,
            end=end,
            rows=totals["rows"],
            events=totals["frames"],
            latency_from=np.concatenate(stamps),
            latency_to=np.concatenate(verdicts),
            counters=counters,
            outputs=outputs,
            simulated_s=probe.steps * PHYSICS_DT,
            # The campaign times its own simulation phases.
            simulating_s=registry.histograms["campaign.sim.seconds"].total
            - probe.sampling_s,
        )


class LogCheckWorkload:
    """Strict then relaxed ``check_batch`` over a packed drive-log store."""

    name = "log_check"

    def __init__(self, workdir: str) -> None:
        self.path = os.path.join(workdir, "drive_logs.rtc")

    def setup(self, seed: int, calibration: Calibration = NO_CALIBRATION) -> Dict[str, float]:
        # The previous set-up's logs go before new ones are made.
        self.logs = None
        logs, simulation = _drive_logs(seed, calibration)
        TraceStore.pack(logs, self.path)
        self.logs = logs
        self.rule_sets = {
            "strict": paper_rules(),
            "relaxed": paper_rules(relaxed=True),
        }
        self.events = sum(log.update_count() for log in logs)
        return simulation

    def reference(self) -> Dict[str, str]:
        """Letters of the per-trace ``Monitor.check`` of each log, the
        path ``check_batch`` must agree with."""
        expected = {}
        for variant, rules in self.rule_sets.items():
            for log in self.logs:
                report = Monitor(rules).check(log)
                expected["%s %s" % (variant, report.trace_name)] = letter_string(
                    report.letters()
                )
        return expected

    def run_pass(self, calibration: Calibration = NO_CALIBRATION) -> PassResult:
        clock = calibration.clock
        registry = _VerdictRegistry(clock)
        outputs: Dict[str, str] = {}
        began: List[np.ndarray] = []
        rows = traces = 0
        with use_registry(registry):
            start = clock()
            for variant, rules in self.rule_sets.items():
                # Each rule verdict is timed from the opening of the store.
                opened = clock()
                store = TraceStore.open(self.path)
                try:
                    reports = Monitor(rules).check_batch(store, robustness=True)
                finally:
                    store.close()
                began.append(np.full(len(registry.verdicts) - sum(map(len, began)), opened))
                for report in reports:
                    outputs["%s %s" % (variant, report.trace_name)] = letter_string(
                        report.letters()
                    )
                    rows += next(iter(report.results.values())).rows_total
                traces += len(reports)
            end = clock()
        counters = _counter_values(registry)
        counters["batch_traces"] = traces
        return PassResult(
            start=start,
            end=end,
            rows=rows,
            events=self.events * len(self.rule_sets),
            latency_from=np.concatenate(began),
            latency_to=np.asarray(registry.verdicts),
            counters=counters,
            outputs=outputs,
        )


class FleetReplayWorkload:
    """Eight-stream closed-loop replay of the drive logs (block policy)."""

    name = "fleet_replay"

    def setup(self, seed: int, calibration: Calibration = NO_CALIBRATION) -> Dict[str, float]:
        # The previous set-up's logs go before new ones are made.
        self.assignments = None
        logs, simulation = _drive_logs(seed, calibration)
        self.specs = paper_specset()
        self.assignments = replay_mod.assign_streams(logs, FLEET_STREAMS)
        return simulation

    def reference(self) -> Dict[str, str]:
        """Offline ``Monitor.check`` letters and event count per stream."""
        expected = {}
        for stream_id, trace in self.assignments:
            report = Monitor(self.specs.rules, machines=self.specs.machines).check(trace)
            expected[stream_id] = "%s events=%d late=0" % (
                letter_string(report.letters()),
                trace.update_count(),
            )
        return expected

    async def _replay(self, latencies: List[tuple], calibration: Calibration):
        service = FleetService(
            self.specs.rules,
            machines=self.specs.machines,
            period=DEFAULT_PERIOD,
            min_chunk_rows=FLEET_MIN_CHUNK_ROWS,
            retention=FLEET_RETENTION,
            inbox_events=FLEET_INBOX,
            policy="block",
        )
        pending: Dict[str, collections.deque] = {}
        sequence: Dict[str, int] = {}
        for stream_id, _ in self.assignments:
            shard = service.shard(stream_id)
            waiting = pending[stream_id] = collections.deque()
            sequence[stream_id] = 0
            shard.feed_batch = self._probe(shard, waiting, latencies, calibration.clock)
        submit = service.submit
        clock = calibration.clock
        count = 0
        for timestamp, stream_id, signal, value in replay_mod.interleave(self.assignments):
            count += 1
            if count % CAL_EVERY_EVENTS == 0:
                calibration.sample()
            index = sequence[stream_id]
            sequence[stream_id] = index + 1
            if index % SAMPLE_EVERY == 0:
                pending[stream_id].append((index, clock()))
            await submit(stream_id, timestamp, signal, value)
        return await service.close(), service

    @staticmethod
    def _probe(shard, waiting, latencies, clock):
        """Time sampled events from ``submit`` to the ``feed_batch`` return
        that fed them to the stream's monitor."""
        feed_batch = shard.feed_batch

        def probed(events):
            fresh = feed_batch(events)
            done = clock()
            fed = shard.events
            while waiting and waiting[0][0] < fed:
                latencies.append((waiting.popleft()[1], done))
            return fresh

        return probed

    def run_pass(self, calibration: Calibration = NO_CALIBRATION) -> PassResult:
        """One replay, sampling the host's speed every
        :data:`CAL_EVERY_EVENTS` submitted events."""
        latencies: List[tuple] = []
        start = calibration.clock()
        report, service = asyncio.run(self._replay(latencies, calibration))
        end = calibration.clock()
        rollup = report.rollup
        counters = _counter_values(service.registry)
        counters["online.chunks"] = rollup["fleet"]["chunks"]
        counters["rows_emitted"] = sum(
            entry["rows_emitted"] for entry in rollup["streams"].values()
        )
        # A dropped event shows as a short event count, a late one here.
        outputs = {
            stream_id: "%s events=%d late=%d"
            % (
                letter_string(report.reports[stream_id].letters()),
                entry["events"],
                entry["late_events"],
            )
            for stream_id, entry in rollup["streams"].items()
        }
        latency = np.asarray(latencies)
        return PassResult(
            start=start,
            end=end,
            rows=int(counters["rows_emitted"]),
            events=int(counters["fleet.events_submitted"]),
            latency_from=latency[:, 0],
            latency_to=latency[:, 1],
            counters=counters,
            outputs=outputs,
        )


def make_workload(name: str, workdir: str):
    """The workload called ``name``, keeping scratch files in ``workdir``."""
    if name == "campaign":
        return CampaignWorkload()
    if name == "log_check":
        return LogCheckWorkload(workdir)
    if name == "fleet_replay":
        return FleetReplayWorkload()
    raise ValueError("unknown workload %r" % name)
