"""Signal injection harness — the multiplexor instrumentation of §III.

The paper routed every FSRACC input through an added multiplexor with an
*inject value* and an *enable* signal, so each input could be individually
passed through or overwritten.  Faults enter at two points:

* **value** injection is that multiplexor: an enabled override replaces
  the signal's producer value (subject to the active profile's type
  checking) before the carrying message is encoded, via
  :meth:`InjectionHarness.multiplex`, which the simulator's publisher
  applies to its signal registry;
* the wire-level faults act on the encoded payload, through
  :meth:`InjectionHarness.tap`, a bus frame tap:

  * **bit-flip** injection — chosen bits of the signal's raw field are
    inverted in the encoded payload (faults at the bit level; on the HIL
    profile results decoding to invalid enums are suppressed, §V-C3);
  * **stick** injection — the signal freezes at its last transmitted
    value (a stuck sensor: frames keep flowing but the value never
    changes);
  * **silence** injection — the signal's carrier message stops being
    transmitted entirely (a silent node / lost message: downstream
    consumers and the monitor hold stale data, and ``age()``-based
    freshness rules are the only way to notice).

Either way the fault is on the bus, so both the feature under test and
the passive monitor observe it — exactly the black-box interception the
paper describes.  A signal carries at most one enabled fault: enabling
another replaces it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.can.codec import decode_signal, extract_raw, flip_bits, insert_raw
from repro.can.database import CanDatabase, MessageDef
from repro.can.signal import SignalDef, SignalValue
from repro.errors import InjectionError
from repro.hil.typecheck import CheckResult, InjectionTypeChecker, HIL_PROFILE


class InjectionMode(enum.Enum):
    """How an active injection corrupts the signal."""

    VALUE = "value"
    BITFLIP = "bitflip"
    STICK = "stick"
    SILENCE = "silence"


@dataclass
class ActiveInjection:
    """One enabled wire-level fault (bit-flip, stick or silence)."""

    signal: str
    mode: InjectionMode
    bit_offsets: Tuple[int, ...] = ()
    stuck_raw: Optional[int] = None


class InjectionHarness:
    """Per-signal injection multiplexors plus the wire-level frame tap.

    Attributes:
        overrides: the enabled value overrides, signal name to value
            (read by :meth:`multiplex`).
        attempts: number of injection requests made.
        rejections: requests refused by the active type-check profile
            (the quantity Experiment E6 compares across profiles).
    """

    def __init__(
        self,
        database: CanDatabase,
        checker: InjectionTypeChecker = HIL_PROFILE,
    ) -> None:
        self.database = database
        self.checker = checker
        self.overrides: Dict[str, SignalValue] = {}
        self._wire: Dict[str, ActiveInjection] = {}
        self.attempts = 0
        self.rejections = 0
        self.rejection_log: List[Tuple[str, SignalValue, str]] = []

    # ------------------------------------------------------------------
    # Control interface (what the rtplib scripts drive)
    # ------------------------------------------------------------------

    def inject_value(self, signal_name: str, value: SignalValue) -> CheckResult:
        """Enable a value override for ``signal_name``.

        Returns the type-check result; on rejection the multiplexor is
        left passing the true value through (and the rejection counted).
        """
        signal = self._signal(signal_name)
        self.attempts += 1
        result = self.checker.check(signal, value)
        if not result.accepted:
            self.rejections += 1
            self.rejection_log.append((signal_name, value, result.reason))
            return result
        self._wire.pop(signal_name, None)
        self.overrides[signal_name] = value
        return result

    def inject_bitflips(
        self, signal_name: str, bit_offsets: Tuple[int, ...]
    ) -> None:
        """Enable a bit-flip override for ``signal_name``.

        ``bit_offsets`` are positions inside the signal's raw field; they
        are XOR-applied to every transmission while enabled.  A mask
        naming more distinct bits than the field holds, a duplicate
        offset (which would XOR back to a no-op), or an offset outside
        the field raises :class:`~repro.errors.InjectionError` — the
        same conditions the auditor reports statically as AU302.
        """
        signal = self._signal(signal_name)
        offsets = tuple(bit_offsets)
        if len(offsets) > signal.bit_length:
            raise InjectionError(
                "%s: flip mask names %d bits but the field is only "
                "%d bit(s) wide"
                % (signal_name, len(offsets), signal.bit_length)
            )
        if len(set(offsets)) != len(offsets):
            raise InjectionError(
                "%s: duplicate bit offsets in flip mask %r"
                % (signal_name, offsets)
            )
        for offset in offsets:
            if not 0 <= offset < signal.bit_length:
                raise InjectionError(
                    "%s: bit offset %d outside %d-bit field"
                    % (signal_name, offset, signal.bit_length)
                )
        self.attempts += 1
        self._enable_wire(
            ActiveInjection(
                signal=signal_name,
                mode=InjectionMode.BITFLIP,
                bit_offsets=offsets,
            )
        )

    def inject_stick(self, signal_name: str) -> None:
        """Freeze ``signal_name`` at its last transmitted value.

        Until the next transmission the freeze latches onto whatever
        value is first observed, then repeats it on every frame.
        """
        self._signal(signal_name)
        self.attempts += 1
        self._enable_wire(
            ActiveInjection(signal=signal_name, mode=InjectionMode.STICK)
        )

    def inject_silence(self, signal_name: str) -> None:
        """Suppress every transmission of ``signal_name``'s carrier
        message (a silent node).  Note this silences the *whole message*,
        including any other signals packed into it — like a real node
        failure would."""
        self._signal(signal_name)
        self.attempts += 1
        self._enable_wire(
            ActiveInjection(signal=signal_name, mode=InjectionMode.SILENCE)
        )

    def clear(self, signal_name: str) -> None:
        """Disable any override on ``signal_name`` (pass-through)."""
        self.overrides.pop(signal_name, None)
        self._wire.pop(signal_name, None)

    def clear_all(self) -> None:
        """Disable every override."""
        self.overrides.clear()
        self._wire.clear()

    def enabled_signals(self) -> Tuple[str, ...]:
        """Names of signals currently being overridden."""
        return tuple(sorted([*self.overrides, *self._wire]))

    def is_enabled(self, signal_name: str) -> bool:
        """Whether ``signal_name`` currently has an active override."""
        return signal_name in self.overrides or signal_name in self._wire

    def _enable_wire(self, injection: ActiveInjection) -> None:
        self.overrides.pop(injection.signal, None)
        self._wire[injection.signal] = injection

    # ------------------------------------------------------------------
    # Injection points
    # ------------------------------------------------------------------

    def multiplex(
        self, values: Mapping[str, SignalValue]
    ) -> Mapping[str, SignalValue]:
        """The input multiplexors: ``values`` with every enabled value
        override laid over it (``values`` itself when none is enabled;
        it is never modified)."""
        if not self.overrides:
            return values
        return {**values, **self.overrides}

    def tap(
        self, message: MessageDef, data: bytes, timestamp: float
    ) -> Optional[bytes]:
        """Frame tap: apply the wire-level faults to ``message``'s payload.

        Returns ``data`` itself when no fault touches the message.
        Bit-flip results are re-checked against the active profile: the
        dSPACE HIL's strong type checking also guarded fault-injected
        values (§V-C3, "prohibiting things such as out-of-range
        enumerated values"), so on the HIL profile a flip that decodes
        to an invalid enum is suppressed for that transmission.

        Returns ``None`` to drop the frame when a SILENCE injection is
        active on any of the message's signals.
        """
        if not self._wire:
            return data
        for signal in message.signals:
            injection = self._wire.get(signal.name)
            if injection is None:
                continue
            if injection.mode is InjectionMode.SILENCE:
                return None
            if injection.mode is InjectionMode.STICK:
                if injection.stuck_raw is None:
                    injection.stuck_raw = extract_raw(data, signal)
                data = insert_raw(data, signal, injection.stuck_raw)
            else:
                flipped = flip_bits(data, signal, injection.bit_offsets)
                result = self.checker.check(
                    signal, decode_signal(flipped, signal)
                )
                if result.accepted:
                    data = flipped
        return data

    # ------------------------------------------------------------------

    def _signal(self, signal_name: str) -> SignalDef:
        if signal_name not in self.database:
            raise InjectionError("unknown signal %s" % signal_name)
        return self.database.signal(signal_name)
