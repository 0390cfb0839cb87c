"""Differential oracle: the compiled message codec against the reference.

``CanDatabase.encode``/``decode`` run on each message's compiled layout
(:class:`~repro.can.database.MessageLayout`), and the bus hands its
listeners the values ``MessageLayout.pack`` returns alongside the
payload.  The per-signal functions of :mod:`repro.can.codec` are the reference: for
every input both must produce the same payload bytes and the same
decoded values, bit for bit (floats compared by their binary64 pattern,
so NaN payloads and signed zeros count), and an input the reference
rejects must raise the same :class:`CodecError` on both paths.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.codec import decode_signal, encode_signal
from repro.can.database import CanDatabase, MessageDef
from repro.can.errors import CodecError, DatabaseError
from repro.can.frame import CanFrame
from repro.can.fsracc import fsracc_database
from repro.can.signal import ByteOrder, SignalDef, SignalType

BIG = ByteOrder.BIG_ENDIAN

#: Synthetic messages for layouts the FSRACC database (all Intel, 8
#: bytes) lacks: Motorola only, Intel and Motorola mixed in one payload,
#: and a 3-byte payload with both.
BIG_ENDIAN = MessageDef(
    "Motorola", 0x300, 8, 0.02,
    (
        SignalDef("m_float", 0, 32, SignalType.FLOAT, byte_order=BIG),
        SignalDef("m_enum", 32, 12, SignalType.ENUM, byte_order=BIG),
        SignalDef("m_flag", 44, 1, SignalType.BOOL, byte_order=BIG),
        SignalDef("m_wide", 45, 19, SignalType.ENUM, byte_order=BIG),
    ),
)
MIXED = MessageDef(
    "Mixed", 0x301, 8, 0.02,
    (
        SignalDef("x_low", 0, 3, SignalType.ENUM),
        SignalDef("x_top", 3, 5, SignalType.ENUM),
        # Motorola bits 12..43: byte 1's low nibble through byte 5's
        # high nibble, interleaved with the Intel fields around it.
        SignalDef("x_float", 12, 32, SignalType.FLOAT, byte_order=BIG),
        SignalDef("x_flag", 8, 1, SignalType.BOOL, byte_order=BIG),
        SignalDef("x_enum", 9, 3, SignalType.ENUM, byte_order=BIG),
        SignalDef("x_bits", 40, 4, SignalType.ENUM),
        SignalDef("x_word", 48, 16, SignalType.ENUM),
    ),
)
SHORT = MessageDef(
    "Short", 0x302, 3, 0.08,
    (
        SignalDef("s_low", 0, 5, SignalType.ENUM),
        SignalDef("s_motorola", 0, 3, SignalType.ENUM, byte_order=BIG),
        SignalDef("s_enum", 8, 13, SignalType.ENUM),
        SignalDef("s_flag", 21, 1, SignalType.BOOL),
    ),
)


def build_databases():
    fsracc = fsracc_database()
    synthetic = CanDatabase([BIG_ENDIAN, MIXED, SHORT])
    return [(fsracc, m) for m in fsracc.messages()] + [
        (synthetic, m) for m in synthetic.messages()
    ]


MESSAGES = build_databases()
MESSAGE_IDS = [message.name for _, message in MESSAGES]

#: Ballista exceptional values for floats.
EXCEPTIONAL_FLOATS = (
    math.nan,
    -math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    5e-324,
    1.401298464324817e-45,
    -1.401298464324817e-45,
    3.4028234663852886e38,
    -3.4028234663852886e38,
    1.1754943508222875e-38,
)


def bits(value):
    """A value's type and exact bits."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def same_values(got, want):
    return list(got) == list(want) and all(
        bits(got[name]) == bits(want[name]) for name in want
    )


def reference_encode(message, values):
    data = bytes(message.length)
    for signal in message.signals:
        value = values.get(signal.name, signal.default_value())
        data = encode_signal(data, signal, value)
    return data


def reference_decode(message, data):
    return {
        signal.name: decode_signal(data, signal) for signal in message.signals
    }


def outcome(call):
    """``("ok", result)`` or ``("error", type, message)``."""
    try:
        return ("ok", call())
    except Exception as exc:  # compared, not swallowed
        return ("error", type(exc), str(exc))


def assert_round_trip(database, message, values):
    """Encode ``values`` both ways, then decode the payload both ways."""
    want = outcome(lambda: reference_encode(message, values))
    got = outcome(lambda: database.encode(message.name, values))
    assert got == want
    if want[0] == "error":
        assert want[1] is CodecError
        return
    data = got[1]
    frame = CanFrame(message.can_id, data)
    name, decoded = database.decode(frame)
    assert name == message.name
    assert same_values(decoded, reference_decode(message, data))
    # The values pack returns with the payload are the ones the bus
    # reuses for an untouched frame.
    packed, values_out = message.layout.pack(values)
    assert packed == data
    assert same_values(values_out, decoded)
    # Decoding is pure: again, the same values.
    assert same_values(database.decode(frame)[1], decoded)


def signal_values(signal):
    """Values for ``signal``: mostly encodable, some the reference
    rejects (float32 overflow, out-of-range or non-integer enums)."""
    if signal.kind is SignalType.FLOAT:
        return st.floats() | st.integers(-(2 ** 130), 2 ** 130)
    if signal.kind is SignalType.BOOL:
        return st.booleans() | st.integers(0, 1) | st.floats()
    return (
        st.integers(0, signal.max_raw)
        | st.integers(-3, 2 ** 33)
        | st.booleans()
        | st.floats(0, 8)
    )


def encodable_values(signal):
    if signal.kind is SignalType.FLOAT:
        return st.floats(width=32)
    if signal.kind is SignalType.BOOL:
        return st.booleans()
    return st.integers(0, signal.max_raw)


def draw_values(data, message, strategy):
    return data.draw(
        st.fixed_dictionaries(
            {signal.name: strategy(signal) for signal in message.signals}
        )
    )


# ----------------------------------------------------------------------


class TestLayoutCompilation:
    def test_layout_is_built_once_per_message(self):
        _, message = MESSAGES[0]
        assert message.layout is message.layout

    def test_mixed_byte_order_fields_may_not_share_bits(self):
        # Intel bits 0..3 and Motorola start bit 4 are both the low
        # nibble of byte 0, although their start-bit spans are disjoint.
        with pytest.raises(DatabaseError, match="overlap"):
            MessageDef(
                "Clash", 0x10, 8, 0.02,
                (
                    SignalDef("a", 0, 4, SignalType.ENUM),
                    SignalDef("b", 4, 4, SignalType.ENUM, byte_order=BIG),
                ),
            )

    def test_mixed_byte_order_disjoint_fields_accepted(self):
        assert MIXED.layout.any_big


@pytest.mark.parametrize("database,message", MESSAGES, ids=MESSAGE_IDS)
class TestAgainstReference:
    def test_defaults(self, database, message):
        assert_round_trip(database, message, {})

    @pytest.mark.parametrize("value", EXCEPTIONAL_FLOATS, ids=repr)
    def test_ballista_floats(self, database, message, value):
        values = {
            s.name: value
            for s in message.signals
            if s.kind is SignalType.FLOAT
        }
        assert_round_trip(database, message, values)

    def test_extreme_integers(self, database, message):
        for pick in (lambda s: 0, lambda s: s.max_raw, lambda s: 1):
            values = {
                s.name: pick(s)
                for s in message.signals
                if s.kind is SignalType.ENUM
            }
            assert_round_trip(database, message, values)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_values(self, database, message, data):
        values = draw_values(data, message, signal_values)
        assert_round_trip(database, message, values)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), size=st.sampled_from([1, 2, 4]))
    def test_bit_flips_of_encoded_payloads(
        self, database, message, data, size
    ):
        values = draw_values(data, message, encodable_values)
        payload = database.encode(message.name, values)
        positions = data.draw(
            st.lists(
                st.integers(0, 8 * message.length - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        mask = sum(1 << position for position in positions)
        flipped = (int.from_bytes(payload, "little") ^ mask).to_bytes(
            message.length, "little"
        )
        _, decoded = database.decode(CanFrame(message.can_id, flipped))
        assert same_values(decoded, reference_decode(message, flipped))

    def test_rejected_values_raise_the_same_error(self, database, message):
        for signal in message.signals:
            if signal.kind is SignalType.FLOAT:
                bad = [1e39, -1e39, None, "fast", [1.0]]
            elif signal.kind is SignalType.ENUM:
                bad = [-1, signal.max_raw + 1, 1.0, True, None, "1"]
            else:
                continue
            for value in bad:
                assert_round_trip(database, message, {signal.name: value})


@pytest.mark.parametrize("message", [SHORT, MIXED], ids=["Short", "Mixed"])
def test_longer_frames_decode_like_the_reference(message):
    # Bytes past the message length carry no signal; Motorola fields are
    # still read from the front of the payload.
    database = CanDatabase([message])
    for pad in (b"", b"\xa5", b"\xff\x00\x5a"):
        padded = (b"\x3c" * message.length + pad)[:8]
        _, decoded = database.decode(CanFrame(message.can_id, padded))
        assert same_values(decoded, reference_decode(message, padded))


class TestDecodeMemo:
    """Decoding is a pure function of the frame: no per-id state is
    kept between an encode and a decode."""

    def setup_method(self):
        self.database = fsracc_database()
        self.message = self.database.message_by_name("AccSettings")

    def test_untouched_payload_returns_encoded_values(self):
        data = self.database.encode(
            "AccSettings", {"ACCSetSpeed": 0.1, "SelHeadway": 3}
        )
        _, values = self.database.decode(CanFrame(self.message.can_id, data))
        assert values == {
            "ACCSetSpeed": struct.unpack("<f", struct.pack("<f", 0.1))[0],
            "SelHeadway": 3,
            "AccActive": False,
        }

    def test_rewritten_payload_is_decoded_from_its_bytes(self):
        data = self.database.encode("AccSettings", {"SelHeadway": 3})
        rewritten = encode_signal(
            data, self.message.signal("SelHeadway"), 1
        )
        _, values = self.database.decode(
            CanFrame(self.message.can_id, rewritten)
        )
        assert values["SelHeadway"] == 1

    def test_decoded_values_are_never_shared(self):
        data = self.database.encode("AccSettings", {"SelHeadway": 3})
        frame = CanFrame(self.message.can_id, data)
        first = self.database.decode(frame)[1]
        first["SelHeadway"] = 99
        assert self.database.decode(frame)[1]["SelHeadway"] == 3

    def test_memo_is_per_message(self):
        motion = self.database.message_by_name("VehicleMotion")
        speed = self.database.encode("VehicleMotion", {"Velocity": 12.5})
        self.database.encode("AccSettings", {"SelHeadway": 1})
        _, values = self.database.decode(CanFrame(motion.can_id, speed))
        assert values == {"Velocity": 12.5}
