"""Online (incremental) monitoring.

The paper performed all monitoring offline but notes "there is no
fundamental reason the monitoring could not be done at runtime".  This
module is that runtime path: an :class:`OnlineMonitor` consumes bus
events as they arrive, holds only a bounded window of history, and emits
verdicts as soon as they are decidable.

How it works
------------

Verdicts of bounded temporal formulas depend on a *finite* future: a row
is decidable once the stream has advanced past the rule set's maximum
:func:`~repro.core.evaluator.future_reach`.  The monitor therefore
buffers events into a rolling trace and, whenever enough new decidable
rows have accumulated (or on :meth:`finish`), evaluates a chunk:

* the chunk's view includes a *history margin* behind the emission
  window, so past-looking constructs (``prev``, freshness-aware
  ``delta``/``rate``, warm-up triggers) see the same context they would
  offline;
* state machines resume from their saved state at the history margin's
  first row, so modal state is continuous across chunks;
* only rows whose temporal windows are complete inside the chunk are
  emitted (the tail is re-evaluated next chunk), so emitted verdicts are
  **identical to the offline monitor's** for filter-free rules —
  a property the test suite checks exhaustively.

Bounded memory
--------------

Buffered events live in a :class:`~repro.logs.trace.StreamTrace` — a
deque-backed ring buffer with O(1) append and an advancing retention
frontier — so feeding is O(1) amortized per event and per-signal buffer
occupancy is **provably bounded**: after every chunk the monitor asserts
that no signal buffers more than ``history_rows + horizon_rows +
min_chunk_rows`` rows, however long the stream runs (see
:attr:`OnlineMonitor.max_buffer_rows`).

Three documented deviations from offline semantics:

* intent filters are applied per emitted violation segment; a violation
  that straddles a chunk boundary is filtered piecewise (its witness
  columns are re-joined when the segments coalesce, so the merged
  record's evidence covers its whole span);
* events older than the retention window are discarded, so the monitor's
  memory is O(retention), not O(trace);
* a **late event** — one timestamped before the retention frontier, i.e.
  for a row whose history has already been trimmed — is *dropped* and
  counted in ``online.late_events`` (and
  :attr:`OnlineMonitor.late_events`) rather than raising mid-stream: the
  offline monitor would have seen it, but a bounded-memory monitor by
  construction cannot re-evaluate rows it has discarded.  Events at or
  after the frontier must still be per-signal time-ordered, exactly as
  offline recording requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.evaluator import (
    EvalContext,
    evaluate_formula,
    evaluate_robustness,
    future_reach,
    past_reach,
)
from repro.core.intent import apply_filters
from repro.core.monitor import (
    DEFAULT_PERIOD,
    Monitor,
    MonitorReport,
    Rule,
    RuleResult,
    _detect_near_miss,
)
from repro.core.robustness import RuleRobustness
from repro.core.statemachine import StateMachine
from repro.core.types import (
    FALSE_CODE,
    TRUE_CODE,
    UNKNOWN_CODE,
    Verdict,
)
from repro.core.violations import Violation, extract_violations
from repro.errors import TraceError
from repro.logs.trace import StreamTrace, Trace
from repro.obs import get_registry


@dataclass
class _RuleProgress:
    """Accumulated per-rule results across emitted chunks."""

    violations: List[Violation] = field(default_factory=list)
    dismissed: List[Violation] = field(default_factory=list)
    rows_total: int = 0
    rows_checked: int = 0
    rows_masked: int = 0
    rows_unknown: int = 0
    any_false: bool = False
    # Running minima of the emitted rows' robustness bounds.  Each
    # emitted row's bounds equal the offline evaluation's (the chunk
    # view covers its whole temporal window), so at finish these minima
    # *are* the offline rule-level interval.  Mid-stream the certain
    # bound (rob_upper) is already final for emitted rows and can only
    # decrease; the lower bound is genuinely -inf until the stream ends
    # (an unseen future row could be arbitrarily violating).
    rob_lower: float = math.inf
    rob_upper: float = math.inf
    worst_row: Optional[int] = None
    worst_time: Optional[float] = None
    #: Stream time at which the interval first excluded zero (the
    #: margin analogue of the boolean early-violation callback).
    decided_time: Optional[float] = None


class OnlineMonitor:
    """Streaming monitor with bounded memory and prompt verdicts.

    Args:
        rules: the rule set (same objects the offline monitor takes).
        machines: mode state machines referenced by the rules.
        period: monitor sampling period, seconds.
        min_chunk_rows: emit only once this many new rows are decidable
            (batches the vectorized evaluation; latency is bounded by
            ``future_reach + min_chunk_rows * period``).
        retention: seconds of history kept behind the emission frontier.
            Automatically raised to cover warm-up durations, the initial
            settle windows, and a couple of slow message periods.
        memo: per-chunk subformula memoization — every chunk evaluates
            each distinct subformula once across all rules (the same
            cross-rule cache the offline monitor uses, scoped to the
            chunk's context).
        robustness: also stream quantitative margins: each emitted
            chunk tightens a per-rule ``[lower, upper]`` interval (see
            :meth:`robustness_intervals`) that always brackets the
            offline margin and collapses to it at :meth:`finish`.
        near_miss_threshold: flag passing rules whose final margin is
            at most this (implies ``robustness``).
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        machines: Sequence[StateMachine] = (),
        period: float = DEFAULT_PERIOD,
        min_chunk_rows: int = 50,
        retention: float = 1.0,
        memo: bool = True,
        robustness: bool = False,
        near_miss_threshold: Optional[float] = None,
    ) -> None:
        # Reuse the offline monitor's validation and signal bookkeeping.
        self._offline = Monitor(rules, machines=machines, period=period, memo=memo)
        self.rules = self._offline.rules
        self.machines = self._offline.machines
        self.period = period
        self.min_chunk_rows = max(1, min_chunk_rows)
        self.memo = memo
        if near_miss_threshold is not None:
            if near_miss_threshold < 0:
                raise TraceError(
                    "near_miss_threshold must be non-negative, got %r"
                    % (near_miss_threshold,)
                )
            robustness = True
        self.robustness = robustness
        self.near_miss_threshold = near_miss_threshold

        reach = 0.0
        history = retention
        for rule in self.rules:
            formula = rule.effective_formula()
            reach = max(reach, future_reach(formula, period))
            history = max(history, past_reach(formula, period) + 2 * period)
            history = max(history, rule.initial_settle + period)
            if rule.warmup is not None:
                history = max(history, rule.warmup.duration + 2 * period)
        self._horizon_rows = int(math.ceil(reach / period)) + 1
        self._history_rows = int(math.ceil(history / period)) + 2

        self._buffer = StreamTrace("online")
        self._signals = set(self._offline.required_signals())
        self._start_time: Optional[float] = None
        self._latest: float = -math.inf
        self._next_emit_row = 0
        #: Late events dropped behind the retention frontier (see the
        #: module docstring's deviation list).
        self.late_events = 0
        #: Chunk emissions deferred because a required signal had no
        #: buffered data yet (mirrors the ``online.emit_waiting`` counter).
        self.emit_waits = 0
        self._waiting_signals: Tuple[str, ...] = ()
        self._peak_buffer_rows = 0
        self._machine_resume: Dict[str, Tuple[int, str]] = {
            machine.name: (0, machine.initial) for machine in self.machines
        }
        self._progress: Dict[str, _RuleProgress] = {
            rule.rule_id: _RuleProgress() for rule in self.rules
        }
        self._finished = False

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------

    @property
    def decision_latency(self) -> float:
        """Worst-case seconds between a row and its emitted verdict."""
        return (self._horizon_rows + self.min_chunk_rows) * self.period

    @property
    def max_buffer_rows(self) -> int:
        """Per-signal buffered-row bound the monitor never exceeds.

        At every ``feed`` return, each signal's buffered updates span at
        most ``history_rows + horizon_rows + min_chunk_rows`` monitor
        rows: the history margin behind the emission frontier, the
        undecidable horizon ahead of it, and the chunk batch between.
        The bound is asserted after every chunk's trim.
        """
        return self._history_rows + self._horizon_rows + self.min_chunk_rows

    @property
    def peak_buffer_rows(self) -> int:
        """Largest per-signal buffered update count observed so far.

        Sampled at each chunk emission (before trimming — the fullest
        point of the buffer cycle).  For a signal updating once per
        monitor row this is exactly its peak buffered rows, and it never
        exceeds :attr:`max_buffer_rows` plus the updates-per-row factor.
        """
        return self._peak_buffer_rows

    def buffer_row_span(self) -> int:
        """Monitor rows spanned by the fullest per-signal buffer now."""
        if self._start_time is None:
            return 0
        span = 0
        for signal in self._buffer.signals():
            if not self._buffer.update_count(signal):
                continue
            oldest, newest = self._buffer.time_bounds(signal)
            span = max(span, self._row_of(newest) - self._row_of(oldest) + 1)
        return span

    def feed(self, timestamp: float, signal: str, value: float) -> List[Violation]:
        """Consume one bus event; returns violations finalized by it.

        Every event advances the monitor's clock (time passes on the bus
        whether or not the rules reference the signal — exactly as an
        offline check over the full trace sees it); only referenced
        signals are buffered.  A referenced-signal event older than the
        retention frontier is dropped and counted (``online.late_events``)
        instead of being buffered — its row has already been emitted or
        trimmed, so it can no longer influence any verdict.  A
        non-finite timestamp raises :class:`TraceError` before any state
        changes; so does a non-numeric one (``None``, a string).
        """
        if self._finished:
            raise TraceError("monitor already finished")
        try:
            if not math.isfinite(timestamp):
                raise TraceError("non-finite event timestamp %r" % (timestamp,))
        except TypeError:
            raise TraceError(
                "non-numeric event timestamp %r" % (timestamp,)
            ) from None
        if self._start_time is None:
            self._start_time = timestamp
        self._latest = max(self._latest, timestamp)
        if signal not in self._signals:
            return []
        if timestamp < self._buffer.frontier:
            self.late_events += 1
            get_registry().counter("online.late_events").inc()
            return []
        self._buffer.record(signal, timestamp, value)
        decidable = self._decidable_row()
        if decidable - self._next_emit_row >= self.min_chunk_rows:
            return self._emit(decidable)
        return []

    def feed_trace(self, trace: Trace) -> List[Violation]:
        """Replay a whole trace through the stream (for testing/replays)."""
        fresh: List[Violation] = []
        for timestamp, signal, value in trace.events():
            fresh.extend(self.feed(timestamp, signal, value))
        return fresh

    def finish(self, trace_name: str = "online") -> MonitorReport:
        """Flush the tail (emitting UNKNOWNs where windows are cut short)
        and assemble the final report."""
        if self._finished:
            raise TraceError("monitor already finished")
        self._finished = True
        if self._start_time is not None:
            last_row = self._row_of(self._latest)
            if last_row >= self._next_emit_row:
                self._emit(last_row, allow_unknown_tail=True)
        report = MonitorReport(
            trace_name=trace_name,
            period=self.period,
            duration=(self._latest - self._start_time)
            if self._start_time is not None
            else 0.0,
        )
        if self._waiting_signals:
            report.notes.append(
                "online: %d chunk emission(s) deferred; buffered data was "
                "never evaluated because required signal(s) never arrived: %s"
                % (self.emit_waits, ", ".join(self._waiting_signals))
            )
        elif self.emit_waits:
            report.notes.append(
                "online: %d chunk emission(s) deferred early in the stream "
                "while required signals were still missing" % self.emit_waits
            )
        if self.late_events:
            report.notes.append(
                "online: %d late event(s) dropped behind the retention "
                "frontier (offline monitoring of the full log would have "
                "seen them)" % self.late_events
            )
        for rule in self.rules:
            progress = self._progress[rule.rule_id]
            if progress.violations:
                verdict = Verdict.FALSE
            elif progress.any_false:
                verdict = Verdict.TRUE  # everything dismissed by filters
            elif progress.rows_unknown:
                verdict = Verdict.UNKNOWN
            elif progress.rows_total:
                verdict = Verdict.TRUE
            else:
                verdict = Verdict.UNKNOWN
            robustness = None
            near_miss = None
            if self.robustness:
                lower, upper = self.robustness_intervals()[rule.rule_id]
                robustness = RuleRobustness(
                    lower=lower,
                    upper=upper,
                    worst_row=progress.worst_row,
                    worst_time=progress.worst_time,
                )
                near_miss = _detect_near_miss(
                    rule.rule_id,
                    robustness,
                    progress.violations,
                    self.near_miss_threshold,
                )
            report.results[rule.rule_id] = RuleResult(
                rule=rule,
                verdict=verdict,
                violations=progress.violations,
                dismissed=progress.dismissed,
                rows_total=progress.rows_total,
                rows_checked=progress.rows_checked,
                rows_masked=progress.rows_masked,
                rows_unknown=progress.rows_unknown,
                robustness=robustness,
                near_miss=near_miss,
            )
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _row_of(self, timestamp: float) -> int:
        return int(math.floor((timestamp - self._start_time) / self.period + 1e-9))

    def _decidable_row(self) -> int:
        return self._row_of(self._latest) - self._horizon_rows

    def _emit(self, upto_row: int, allow_unknown_tail: bool = False) -> List[Violation]:
        """Evaluate and finalize rows [next_emit_row .. upto_row].

        When metrics are on, each chunk records its emitted size
        (``online.chunk_rows``), the rows the view re-evaluates beyond
        what it emits (``online.rows_reevaluated`` — history margin plus
        undecidable tail, the price of chunked online evaluation), and
        the post-trim buffer size (``online.buffer_events``).
        """
        registry = get_registry()
        with registry.span("online.emit"):
            return self._emit_instrumented(upto_row, registry)

    def _emit_instrumented(
        self, upto_row: int, registry
    ) -> List[Violation]:
        occupancy = max(
            (
                self._buffer.update_count(signal)
                for signal in self._buffer.signals()
            ),
            default=0,
        )
        if occupancy > self._peak_buffer_rows:
            self._peak_buffer_rows = occupancy
        history_start = max(0, self._next_emit_row - self._history_rows)
        t0 = self._start_time
        view_start = t0 + history_start * self.period
        view_end = t0 + (upto_row + self._horizon_rows) * self.period
        view_end = min(view_end, self._latest)
        try:
            view = self._buffer.to_view(
                self.period,
                signals=self._offline.required_signals(),
                start=view_start,
                end=view_end,
            )
        except TraceError:
            # A required signal has no buffered data yet: keep buffering
            # and record that evaluation is stalled — finish() surfaces
            # the missing names if the stall never resolves.
            self.emit_waits += 1
            self._waiting_signals = tuple(
                name
                for name in self._offline.required_signals()
                if not (
                    name in self._buffer and self._buffer.update_count(name)
                )
            )
            registry.counter("online.emit_waiting").inc()
            return []
        self._waiting_signals = ()
        ctx = EvalContext(view, memo=self.memo)
        chunk_initials: Dict[str, str] = {}
        for machine in self.machines:
            resume_row, resume_state = self._machine_resume[machine.name]
            initial = (
                resume_state if resume_row == history_start else machine.initial
            )
            chunk_initials[machine.name] = initial
            states = machine.run(ctx, initial=initial)
            ctx.machine_states[machine.name] = states
            ctx.machine_alphabets[machine.name] = machine.alphabet

        emit_lo = self._next_emit_row - history_start  # view-relative
        emit_hi = upto_row - history_start
        emitted_rows = upto_row - self._next_emit_row + 1
        registry.counter("online.chunks").inc()
        registry.histogram("online.chunk_rows").observe(emitted_rows)
        registry.counter("online.rows_emitted").inc(emitted_rows)
        registry.counter("online.rows_reevaluated").inc(
            max(view.n_rows - emitted_rows, 0)
        )
        fresh: List[Violation] = []
        for rule in self.rules:
            fresh.extend(
                self._emit_rule(rule, ctx, history_start, emit_lo, emit_hi)
            )

        # Save machine state for the next chunk's history start: the
        # state *entering* that row (i.e. after the preceding row), so
        # the row's own transition fires exactly once when re-evaluated.
        next_history_start = max(0, upto_row + 1 - self._history_rows)
        for machine in self.machines:
            states = ctx.machine_states[machine.name]
            index = next_history_start - history_start
            if index <= 0:
                entering = chunk_initials[machine.name]
            else:
                entering = str(states[min(index, len(states)) - 1])
            self._machine_resume[machine.name] = (
                next_history_start,
                entering,
            )

        self._next_emit_row = upto_row + 1
        # Advance the retention frontier: events behind it can no longer
        # influence any future chunk.  trim() pops each expired update
        # exactly once, so maintenance is O(1) amortized per event —
        # never a rebuild of the retained suffix.
        keep_from = t0 + next_history_start * self.period
        self._buffer.trim(keep_from)
        span = self.buffer_row_span()
        if span > self.max_buffer_rows:
            raise AssertionError(
                "bounded-memory invariant broken: buffer spans %d rows, "
                "bound is %d (history %d + horizon %d + chunk %d)"
                % (
                    span,
                    self.max_buffer_rows,
                    self._history_rows,
                    self._horizon_rows,
                    self.min_chunk_rows,
                )
            )
        registry.gauge("online.buffer_events").set(self._buffer.update_count())
        registry.gauge("online.buffer_peak_rows").set(self._peak_buffer_rows)
        return fresh

    def _emit_rule(
        self,
        rule: Rule,
        ctx: EvalContext,
        history_start: int,
        emit_lo: int,
        emit_hi: int,
    ) -> List[Violation]:
        view = ctx.view
        codes = evaluate_formula(rule.effective_formula(), ctx).copy()

        masked = np.zeros(view.n_rows, dtype=bool)
        if rule.initial_settle > 0:
            settle_rows = int(round(rule.initial_settle / self.period))
            # Absolute settle window, expressed in view-relative rows.
            settle_end = settle_rows - history_start
            if settle_end >= 0:
                masked[: settle_end + 1] = True
        if rule.warmup is not None:
            masked |= rule.warmup.mask(ctx)
        codes[masked] = TRUE_CODE

        lo = max(emit_lo, 0)
        hi = min(emit_hi, view.n_rows - 1)
        if hi < lo:
            return []
        window = codes[lo : hi + 1]
        progress = self._progress[rule.rule_id]
        progress.rows_total += hi - lo + 1
        progress.rows_masked += int(masked[lo : hi + 1].sum())
        progress.rows_checked += int((~masked[lo : hi + 1]).sum())
        progress.rows_unknown += int((window == UNKNOWN_CODE).sum())

        if self.robustness:
            self._accumulate_robustness(
                rule, ctx, masked, progress, history_start, lo, hi
            )

        # As offline: witness columns are only sliced out when the
        # emitted window actually contains a violation.
        if (window == FALSE_CODE).any():
            witness = {
                name: view.values(name)[lo : hi + 1]
                for name in rule.signals()
                if name in view
            }
            raw = extract_violations(
                window,
                view.times[lo : hi + 1],
                rule.rule_id,
                self.period,
                witness,
            )
        else:
            raw = []
        # Shift rows to view coordinates so intent filters index the
        # chunk's context correctly.
        raw = [self._shift(v, lo) for v in raw]
        if raw:
            progress.any_false = True
        kept, dropped = apply_filters(raw, rule.filters, ctx)
        # Re-anchor from view coordinates to absolute stream rows.
        kept = [self._shift(v, history_start) for v in kept]
        dropped = [self._shift(v, history_start) for v in dropped]
        fresh = self._absorb(progress.violations, kept)
        self._absorb(progress.dismissed, dropped)
        return fresh

    def _accumulate_robustness(
        self,
        rule: Rule,
        ctx: EvalContext,
        masked: np.ndarray,
        progress: _RuleProgress,
        history_start: int,
        lo: int,
        hi: int,
    ) -> None:
        """Fold the emitted rows' robustness bounds into the running
        interval.

        Emitted rows have complete temporal windows inside the chunk
        view, so their bounds equal the offline evaluation's — the
        running minima therefore converge to exactly the offline
        rule-level interval (a property the fuzz harness checks).
        """
        bounds = evaluate_robustness(rule.effective_formula(), ctx)
        row_lower = bounds.lower.copy()
        row_upper = bounds.upper.copy()
        row_lower[masked] = np.inf
        row_upper[masked] = np.inf
        chunk_lower = row_lower[lo : hi + 1]
        chunk_upper = row_upper[lo : hi + 1]
        progress.rob_lower = min(
            progress.rob_lower, float(chunk_lower.min())
        )
        chunk_min = float(chunk_upper.min())
        if chunk_min < progress.rob_upper:
            # Strict improvement only, so ties keep the earliest chunk's
            # row — matching offline argmin's first-occurrence rule.
            progress.rob_upper = chunk_min
            index = int(np.argmin(chunk_upper))
            progress.worst_row = history_start + lo + index
            # Recompute from the stream origin rather than reading the
            # chunk view's times: the view's base is already the sum
            # t0 + history_start*period, and adding the in-view offset
            # to that drifts a last-place unit from the offline view's
            # t0 + row*period.
            progress.worst_time = (
                self._start_time + self.period * progress.worst_row
            )
        if progress.decided_time is None and progress.rob_upper < 0.0:
            # The interval [-inf, rob_upper] now excludes zero: the
            # rule is already certainly violated, however the stream
            # continues.
            progress.decided_time = self._latest
            get_registry().counter("online.early_decisions").inc()

    def robustness_intervals(self) -> Dict[str, Tuple[float, float]]:
        """Current per-rule ``[lower, upper]`` margin intervals.

        Mid-stream the lower bound is ``-inf`` — future rows can be
        arbitrarily violating — while the upper bound only tightens
        (monotonically non-increasing) as chunks are emitted.  After
        :meth:`finish` the interval equals the offline check's: both
        bounds are the minima over all emitted rows.  The offline
        margin interval is always contained in every intermediate
        interval reported here.
        """
        if not self.robustness:
            raise TraceError(
                "robustness intervals require OnlineMonitor(robustness=True)"
            )
        intervals: Dict[str, Tuple[float, float]] = {}
        for rule in self.rules:
            progress = self._progress[rule.rule_id]
            if self._finished and progress.rows_total:
                lower = progress.rob_lower
            else:
                lower = -math.inf
            intervals[rule.rule_id] = (lower, progress.rob_upper)
        return intervals

    def early_decisions(self) -> Dict[str, float]:
        """Rules whose interval excluded zero mid-stream, with the
        stream time of that decision."""
        return {
            rule.rule_id: self._progress[rule.rule_id].decided_time
            for rule in self.rules
            if self._progress[rule.rule_id].decided_time is not None
        }

    @staticmethod
    def _absorb(
        accumulated: List[Violation], incoming: List[Violation]
    ) -> List[Violation]:
        """Append violations, coalescing runs split by chunk boundaries.

        Returns the genuinely new violation records (a continuation of
        the previous chunk's final run extends it rather than appearing
        as a fresh violation).  When a run extends, the witness columns
        of both segments are concatenated so the merged record's
        evidence covers its whole ``[start_row, end_row]`` span — the
        first-row ``witness`` scalars stay those of the run's true start.
        """
        fresh: List[Violation] = []
        for violation in incoming:
            if (
                accumulated
                and accumulated[-1].end_row + 1 == violation.start_row
            ):
                last = accumulated[-1]
                columns = {
                    name: np.concatenate(
                        [column, violation.witness_columns[name]]
                    )
                    for name, column in last.witness_columns.items()
                    if name in violation.witness_columns
                }
                accumulated[-1] = Violation(
                    rule_id=last.rule_id,
                    start_row=last.start_row,
                    end_row=violation.end_row,
                    start_time=last.start_time,
                    end_time=violation.end_time,
                    period=last.period,
                    witness=last.witness,
                    witness_columns=columns,
                )
            else:
                accumulated.append(violation)
                fresh.append(violation)
        return fresh

    @staticmethod
    def _shift(violation: Violation, offset: int) -> Violation:
        return Violation(
            rule_id=violation.rule_id,
            start_row=violation.start_row + offset,
            end_row=violation.end_row + offset,
            start_time=violation.start_time,
            end_time=violation.end_time,
            period=violation.period,
            witness=violation.witness,
            witness_columns=violation.witness_columns,
        )
