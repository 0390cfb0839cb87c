"""Message database — the DBC-like description of everything on the bus.

A :class:`CanDatabase` maps CAN identifiers to :class:`MessageDef` entries,
each of which carries a broadcast period and a set of signal layouts.  The
periodic broadcast model (every message re-sent on its own period, receivers
holding the last value between updates) is exactly the observability model
the paper's monitor relies on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.can.codec import physical_to_raw
from repro.can.errors import DatabaseError
from repro.can.frame import CanFrame, MAX_DLC
from repro.can.signal import ByteOrder, SignalDef, SignalType, SignalValue

_FLOAT32 = struct.Struct("<f")
_UINT32 = struct.Struct("<I")
_FLOAT = SignalType.FLOAT
_BOOL = SignalType.BOOL


class MessageLayout:
    """A message's signal layout compiled to shift/mask tables.

    One field tuple ``(name, kind, shift, mask, default, big)`` per
    signal, in declaration order: ``shift`` positions the raw field in
    the payload read as one little-endian integer, or as one big-endian
    integer when ``big`` is set (Motorola signals).  Packing ORs every
    field into an integer and converts it to bytes once; unpacking reads
    the payload integer once and masks every field out of it.  The
    results are bit-identical to the per-signal reference functions of
    :mod:`repro.can.codec`, which the differential tests hold it to.
    """

    def __init__(self, message: MessageDef) -> None:
        self.length = message.length
        self._signals = {signal.name: signal for signal in message.signals}
        fields = []
        for signal in message.signals:
            big = signal.byte_order is ByteOrder.BIG_ENDIAN
            shift = signal.start_bit
            if big:
                shift = 8 * self.length - signal.start_bit - signal.bit_length
            fields.append(
                (
                    signal.name,
                    signal.kind,
                    shift,
                    signal.max_raw,
                    signal.default_value(),
                    big,
                )
            )
        self.fields = tuple(fields)
        self.any_big = any(field[5] for field in fields)

    def pack(
        self, values: Mapping[str, SignalValue]
    ) -> Tuple[bytes, Dict[str, SignalValue]]:
        """Encode ``values`` (defaults for missing signals) into a payload.

        Returns the payload and the values a decode of it yields: every
        float passes through its binary32 bytes here anyway, so the
        quantized value comes from the same bytes the payload carries.
        """
        little = big = 0
        decoded: Dict[str, SignalValue] = {}
        for name, kind, shift, mask, default, is_big in self.fields:
            value = values.get(name, default)
            if kind is _FLOAT:
                try:
                    packed = _FLOAT32.pack(float(value))
                except (OverflowError, ValueError, TypeError):
                    packed = _UINT32.pack(self._reference_raw(name, value))
                raw = _UINT32.unpack(packed)[0]
                decoded[name] = _FLOAT32.unpack(packed)[0]
            elif kind is _BOOL:
                raw = 1 if value else 0
                decoded[name] = raw == 1
            else:
                if type(value) is int and 0 <= value <= mask:
                    raw = value
                else:
                    raw = int(self._reference_raw(name, value))
                decoded[name] = raw
            if is_big:
                big |= raw << shift
            else:
                little |= raw << shift
        if big:
            # Motorola fields, moved into the little-endian reading.
            big = int.from_bytes(big.to_bytes(self.length, "big"), "little")
        return (little | big).to_bytes(self.length, "little"), decoded

    def unpack(self, data: bytes) -> Dict[str, SignalValue]:
        """Decode every signal out of ``data`` (at least ``length`` bytes;
        bytes past the message length carry no signal)."""
        if len(data) != self.length:
            data = data[: self.length]
        little = int.from_bytes(data, "little")
        big = int.from_bytes(data, "big") if self.any_big else 0
        values: Dict[str, SignalValue] = {}
        for name, kind, shift, mask, _, is_big in self.fields:
            raw = ((big if is_big else little) >> shift) & mask
            if kind is _FLOAT:
                values[name] = _FLOAT32.unpack(_UINT32.pack(raw))[0]
            elif kind is _BOOL:
                values[name] = raw == 1
            else:
                values[name] = raw
        return values

    def _reference_raw(self, name: str, value: SignalValue) -> int:
        """The reference conversion, for values the fast path does not
        take: it raises the reference codec's :class:`CodecError` for a
        value that cannot be encoded."""
        return physical_to_raw(self._signals[name], value)


def _payload_mask(signal: SignalDef, length: int) -> int:
    """The bits ``signal`` occupies in a ``length``-byte payload, as a
    mask over the payload read as one little-endian integer."""
    if signal.byte_order is ByteOrder.LITTLE_ENDIAN:
        return signal.max_raw << signal.start_bit
    shift = 8 * length - signal.start_bit - signal.bit_length
    return int.from_bytes(
        (signal.max_raw << shift).to_bytes(length, "big"), "little"
    )


@dataclass(frozen=True)
class MessageDef:
    """One periodic broadcast message.

    Attributes:
        name: unique message name.
        can_id: CAN identifier used on the wire.
        length: payload length in bytes.
        period: broadcast period in seconds.
        signals: the signals packed into this message.
        sender: name of the node that produces this message.
        comment: free-form description.
    """

    name: str
    can_id: int
    length: int
    period: float
    signals: Tuple[SignalDef, ...]
    sender: str = ""
    comment: str = ""

    def __post_init__(self) -> None:
        if not 0 < self.length <= MAX_DLC:
            raise DatabaseError(
                "%s: message length %d outside 1..%d"
                % (self.name, self.length, MAX_DLC)
            )
        if self.period <= 0:
            raise DatabaseError("%s: period must be positive" % self.name)
        seen = set()
        for signal in self.signals:
            if signal.name in seen:
                raise DatabaseError(
                    "%s: duplicate signal %s" % (self.name, signal.name)
                )
            seen.add(signal.name)
            if signal.start_bit + signal.bit_length > 8 * self.length:
                raise DatabaseError(
                    "%s: signal %s does not fit in %d bytes"
                    % (self.name, signal.name, self.length)
                )
        # Compare the payload bits each field occupies: start-bit spans
        # of signals with different byte orders are not comparable.
        taken = 0
        for signal in self.signals:
            mask = _payload_mask(signal, self.length)
            if taken & mask:
                other = next(
                    other
                    for other in self.signals
                    if other is not signal
                    and _payload_mask(other, self.length) & mask
                )
                left, right = sorted(
                    (other, signal), key=lambda s: s.start_bit
                )
                raise DatabaseError(
                    "%s: signals %s and %s overlap"
                    % (self.name, left.name, right.name)
                )
            taken |= mask

    def signal(self, name: str) -> SignalDef:
        """Look up one of this message's signals by name."""
        for signal in self.signals:
            if signal.name == name:
                return signal
        raise DatabaseError("%s: no signal named %s" % (self.name, name))

    def signal_names(self) -> Tuple[str, ...]:
        """Names of all signals in payload order."""
        return tuple(s.name for s in sorted(self.signals, key=lambda s: s.start_bit))

    @cached_property
    def layout(self) -> MessageLayout:
        """The compiled layout, built on first use and kept."""
        return MessageLayout(self)


class CanDatabase:
    """A collection of message definitions with encode/decode helpers."""

    def __init__(self, messages: Iterable[MessageDef] = ()) -> None:
        self._by_id: Dict[int, MessageDef] = {}
        self._by_name: Dict[str, MessageDef] = {}
        self._signal_home: Dict[str, MessageDef] = {}
        for message in messages:
            self.add_message(message)

    def add_message(self, message: MessageDef) -> None:
        """Register a message, enforcing global id / name / signal uniqueness."""
        if message.can_id in self._by_id:
            raise DatabaseError("duplicate CAN id 0x%X" % message.can_id)
        if message.name in self._by_name:
            raise DatabaseError("duplicate message name %s" % message.name)
        for signal in message.signals:
            if signal.name in self._signal_home:
                raise DatabaseError(
                    "signal %s defined in both %s and %s"
                    % (
                        signal.name,
                        self._signal_home[signal.name].name,
                        message.name,
                    )
                )
        self._by_id[message.can_id] = message
        self._by_name[message.name] = message
        for signal in message.signals:
            self._signal_home[signal.name] = message

    def messages(self) -> Iterator[MessageDef]:
        """Iterate over all messages in id order."""
        return iter(sorted(self._by_id.values(), key=lambda m: m.can_id))

    def message_by_id(self, can_id: int) -> MessageDef:
        """Look up a message by CAN identifier."""
        try:
            return self._by_id[can_id]
        except KeyError:
            raise DatabaseError("unknown CAN id 0x%X" % can_id) from None

    def message_by_name(self, name: str) -> MessageDef:
        """Look up a message by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise DatabaseError("unknown message %s" % name) from None

    def message_for_signal(self, signal_name: str) -> MessageDef:
        """Find the message that carries ``signal_name``."""
        try:
            return self._signal_home[signal_name]
        except KeyError:
            raise DatabaseError("unknown signal %s" % signal_name) from None

    def signal(self, signal_name: str) -> SignalDef:
        """Look up a signal definition by name, across all messages."""
        return self.message_for_signal(signal_name).signal(signal_name)

    def signal_names(self) -> Tuple[str, ...]:
        """All signal names known to the database."""
        return tuple(sorted(self._signal_home))

    def signals(self) -> Iterator[SignalDef]:
        """All signal definitions, in message-id then payload order."""
        for message in self.messages():
            for signal in sorted(message.signals, key=lambda s: s.start_bit):
                yield signal

    def senders(self) -> Tuple[str, ...]:
        """All distinct producing nodes, sorted."""
        return tuple(sorted({m.sender for m in self._by_id.values()}))

    def signals_from(self, sender: str) -> Tuple[str, ...]:
        """Names of every signal produced by ``sender``, in id order."""
        return tuple(
            signal.name
            for message in self.messages()
            if message.sender == sender
            for signal in sorted(message.signals, key=lambda s: s.start_bit)
        )

    def __contains__(self, signal_name: str) -> bool:
        return signal_name in self._signal_home

    def encode(
        self, message_name: str, values: Mapping[str, SignalValue]
    ) -> bytes:
        """Encode physical ``values`` into a payload for ``message_name``.

        Signals missing from ``values`` are encoded with their benign
        defaults, so a publisher only needs to supply what it produces.
        """
        return self.message_by_name(message_name).layout.pack(values)[0]

    def decode(self, frame: CanFrame) -> Tuple[str, Dict[str, SignalValue]]:
        """Decode a frame into ``(message_name, {signal: physical value})``.

        A pure function of ``(can_id, data)``: bytes past the message
        length carry no signal, and a payload shorter than the message
        raises :class:`DatabaseError`.
        """
        message = self.message_by_id(frame.can_id)
        if frame.dlc < message.length:
            raise DatabaseError(
                "%s: frame carries %d bytes, expected %d"
                % (message.name, frame.dlc, message.length)
            )
        return message.name, message.layout.unpack(frame.data)

    def frame_for(
        self,
        message_name: str,
        values: Mapping[str, SignalValue],
        timestamp: float = 0.0,
    ) -> CanFrame:
        """Encode ``values`` and wrap them in a timestamped frame."""
        message = self.message_by_name(message_name)
        return CanFrame(
            message.can_id, self.encode(message_name, values), timestamp
        )
