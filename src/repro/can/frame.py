"""CAN 2.0 data frames.

Only the parts of CAN that matter for a passive monitor are modelled: the
identifier, the payload, and the receive timestamp.  Arbitration, error
frames and the physical layer are out of scope — the monitor in the paper
consumes frames from a logging interface that already hides them.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.can.errors import FrameError

#: Highest identifier expressible in a standard (11-bit) CAN frame.
MAX_STANDARD_ID = 0x7FF
#: Highest identifier expressible in an extended (29-bit) CAN frame.
MAX_EXTENDED_ID = 0x1FFFFFFF
#: Maximum payload length of a classic CAN 2.0 frame, in bytes.
MAX_DLC = 8


class _FrameFields(NamedTuple):
    can_id: int
    data: bytes
    timestamp: float = 0.0
    extended: bool = False


class CanFrame(_FrameFields):
    """One classic CAN 2.0 data frame (immutable and hashable).

    The bus builds one frame per transmission, so a frame is a tuple
    validated once in ``__new__`` rather than a dataclass.

    Attributes:
        can_id: message identifier (11-bit standard or 29-bit extended).
        data: payload bytes (0 to 8 bytes).
        timestamp: receive time in seconds, as stamped by the logger.
        extended: whether the identifier uses the 29-bit extended format.
    """

    __slots__ = ()

    def __new__(
        cls,
        can_id: int,
        data: bytes,
        timestamp: float = 0.0,
        extended: bool = False,
    ) -> "CanFrame":
        if not 0 <= can_id <= (MAX_EXTENDED_ID if extended else MAX_STANDARD_ID):
            raise FrameError(
                "can_id 0x%X out of range for %s frame"
                % (can_id, "extended" if extended else "standard")
            )
        if len(data) > MAX_DLC:
            raise FrameError(
                "payload of %d bytes exceeds CAN 2.0 limit of %d"
                % (len(data), MAX_DLC)
            )
        return tuple.__new__(cls, (can_id, data, timestamp, extended))

    @classmethod
    def _make(cls, iterable) -> "CanFrame":
        # ``_replace`` builds through ``_make``: validate there as well.
        return cls(*iterable)

    @property
    def dlc(self) -> int:
        """Data length code — the number of payload bytes."""
        return len(self.data)

    def with_timestamp(self, timestamp: float) -> "CanFrame":
        """Return a copy of this frame stamped with ``timestamp``."""
        return CanFrame(self.can_id, self.data, timestamp, self.extended)

    def with_data(self, data: bytes) -> "CanFrame":
        """Return a copy of this frame carrying ``data`` instead."""
        return CanFrame(self.can_id, data, self.timestamp, self.extended)

    def __str__(self) -> str:
        payload = self.data.hex(" ") if self.data else "(empty)"
        return "CAN 0x%03X @%.4fs [%d] %s" % (
            self.can_id,
            self.timestamp,
            self.dlc,
            payload,
        )
