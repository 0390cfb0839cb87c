"""Periodic broadcast bus.

Models the part of CAN that a passive monitor actually experiences:
messages appear on the wire at (roughly) fixed periods, each carrying the
publisher's current signal values, and every attached listener sees every
frame.  Arbitration is abstracted into a bounded per-transmission *jitter*
delay, which is the mechanism behind the paper's observation that a slow
message occasionally arrives after five fast-message updates instead of
four (§V-C1).

Frame *taps* are transformation hooks applied to the encoded payload just
before delivery; the robustness-testing injection harness installs itself
as a tap, which is how bit-flipped, stuck and silenced signals become
visible to both the system under test and the monitor.

Every transmission packs its payload once.  Listeners receive the values
that pack produced as long as every tap hands back the very payload
object it was given; a payload a tap replaced is decoded from its bytes.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.can.database import CanDatabase, MessageDef
from repro.can.errors import BusError
from repro.can.frame import CanFrame
from repro.can.signal import SignalValue

#: Provides the publisher's current signal values for one message.
Provider = Callable[[], Mapping[str, SignalValue]]
#: Receives every frame on the bus, already decoded.
Listener = Callable[[CanFrame, str, Dict[str, SignalValue]], None]
#: Transforms an encoded payload before delivery (e.g. fault injection).
#: A tap that leaves the payload alone returns the object it was given;
#: returning ``None`` suppresses the transmission entirely (message loss).
FrameTap = Callable[[MessageDef, bytes, float], Optional[bytes]]


#: Jitter delays drawn from the generator at a time.
JITTER_BLOCK = 1024


class JitterModel:
    """Uniform random transmission delay in ``[0, max_jitter]`` seconds.

    Delays are drawn from the generator in blocks of
    :data:`JITTER_BLOCK`; a block draw yields exactly the sequence of
    one-at-a-time draws, so the delays depend on the seed only.
    """

    def __init__(self, max_jitter: float = 0.0, seed: int = 0) -> None:
        if not 0 <= max_jitter < math.inf:
            raise BusError("max_jitter must be finite and non-negative")
        self.max_jitter = max_jitter
        self._rng = np.random.default_rng(seed)
        self._block: List[float] = []
        self._next = 0

    def delay(self) -> float:
        """Sample one transmission delay."""
        if self.max_jitter == 0.0:
            return 0.0
        if self._next == len(self._block):
            self._block = self._rng.uniform(
                0.0, self.max_jitter, JITTER_BLOCK
            ).tolist()
            self._next = 0
        self._next += 1
        return self._block[self._next - 1]


class CanBus:
    """A broadcast bus scheduling the periodic messages of a database.

    Publishers register a provider callable per message name.  Each call to
    :meth:`step` transmits every message whose nominal due time has been
    reached, stamping frames with ``due + jitter``.  Message phases are
    staggered deterministically by CAN id so that not all messages land on
    the same instant.
    """

    def __init__(
        self,
        database: CanDatabase,
        jitter: Optional[JitterModel] = None,
        phase_stagger: float = 0.0005,
    ) -> None:
        self.database = database
        self.jitter = jitter or JitterModel(0.0)
        self._providers: Dict[str, Provider] = {}
        self._listeners: List[Listener] = []
        self._taps: List[FrameTap] = []
        self._phase_stagger = phase_stagger
        # Min-heap of (due_time, can_id, message, provider); ids are
        # unique, so ties never compare the messages themselves.
        self._schedule: List[Tuple[float, int, MessageDef, Provider]] = []
        self.frames_sent = 0
        self.frames_dropped = 0

    def attach_publisher(self, message_name: str, provider: Provider) -> None:
        """Register the producer of ``message_name`` and schedule it."""
        message = self.database.message_by_name(message_name)
        if message_name in self._providers:
            raise BusError("message %s already has a publisher" % message_name)
        self._providers[message_name] = provider
        phase = (message.can_id % 16) * self._phase_stagger
        heapq.heappush(
            self._schedule, (phase, message.can_id, message, provider)
        )

    def add_listener(self, listener: Listener) -> None:
        """Attach a passive listener that receives every decoded frame."""
        self._listeners.append(listener)

    def add_frame_tap(self, tap: FrameTap) -> None:
        """Install a payload transformation hook (fault injection point)."""
        self._taps.append(tap)

    def remove_frame_tap(self, tap: FrameTap) -> None:
        """Remove a previously installed tap."""
        try:
            self._taps.remove(tap)
        except ValueError:
            raise BusError("frame tap %r is not installed" % (tap,)) from None

    def unpublished_messages(self) -> Tuple[str, ...]:
        """Database messages that nobody publishes (useful for wiring checks)."""
        return tuple(
            message.name
            for message in self.database.messages()
            if message.name not in self._providers
        )

    def step(self, now: float) -> List[CanFrame]:
        """Transmit every message due at or before ``now``.

        Returns the frames delivered during this step, in transmission
        order.  The nominal schedule is unaffected by jitter — jitter only
        perturbs the observed timestamps, exactly the failure mode that
        makes naive multi-rate differencing misbehave.
        """
        if not math.isfinite(now):
            raise BusError("bus time must be finite, got %r" % (now,))
        delivered: List[CanFrame] = []
        schedule = self._schedule
        while schedule and schedule[0][0] <= now + 1e-12:
            due, can_id, message, provider = heapq.heappop(schedule)
            frame = self._transmit(message, provider(), due)
            if frame is not None:
                delivered.append(frame)
            heapq.heappush(
                schedule, (due + message.period, can_id, message, provider)
            )
        return delivered

    def run_until(self, end: float, dt: float = 0.01) -> None:
        """Convenience driver: step the bus alone up to ``end`` seconds."""
        if not math.isfinite(end):
            raise BusError("end time must be finite, got %r" % (end,))
        if not 0 < dt < math.inf:
            raise BusError(
                "time step must be finite and positive, got %r" % (dt,)
            )
        t = 0.0
        while t < end:
            t += dt
            self.step(t)

    def _transmit(
        self,
        message: MessageDef,
        signals: Mapping[str, SignalValue],
        due: float,
    ) -> Optional[CanFrame]:
        timestamp = due + self.jitter.delay()
        packed, values = message.layout.pack(signals)
        data: Optional[bytes] = packed
        for tap in self._taps:
            data = tap(message, data, timestamp)
            if data is None:
                # A tap suppressed the transmission (message loss).
                self.frames_dropped += 1
                return None
        frame = CanFrame(message.can_id, data, timestamp)
        if data is not packed:
            # A tap replaced the payload: decode what is on the wire.
            _, values = self.database.decode(frame)
        for listener in self._listeners:
            listener(frame, message.name, values)
        self.frames_sent += 1
        return frame
