"""Trace capture — the stand-in for ControlDesk's trace functionality.

A :class:`TraceRecorder` is a passive bus listener that writes every
decoded signal update into a :class:`~repro.logs.trace.Trace`.  Because it
listens *on the bus* (after fault injection), the recorded log contains
exactly what an external bolt-on monitor would have seen.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.can.frame import CanFrame
from repro.can.signal import SignalValue
from repro.logs.trace import Trace


class TraceRecorder:
    """Records decoded bus traffic into a trace.

    Args:
        name: name given to the captured trace.
        signals: optional allow-list; when given, only these signals are
            recorded (like selecting measurement variables in ControlDesk).
    """

    def __init__(
        self, name: str = "", signals: Optional[Iterable[str]] = None
    ) -> None:
        self.trace = Trace(name)
        self._filter: Optional[Set[str]] = set(signals) if signals else None
        self.frames_seen = 0

    def on_frame(
        self,
        frame: CanFrame,
        message_name: str,
        values: Dict[str, SignalValue],
    ) -> None:
        """Bus listener callback: one :meth:`Trace.record_many` per frame."""
        self.frames_seen += 1
        if self._filter is not None:
            values = {
                signal: value
                for signal, value in values.items()
                if signal in self._filter
            }
        self.trace.record_many(frame.timestamp, values)

    def restart(self, name: str = "") -> Trace:
        """Close out the current capture and begin a fresh one.

        Returns the trace captured so far.
        """
        captured = self.trace
        self.trace = Trace(name or captured.name)
        self.frames_seen = 0
        return captured
