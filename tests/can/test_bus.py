"""Broadcast bus: scheduling, periods, jitter, listeners, taps."""

import math

import numpy as np
import pytest

from repro.can.bus import JITTER_BLOCK, CanBus, JitterModel
from repro.can.database import CanDatabase, MessageDef
from repro.can.errors import BusError
from repro.can.signal import SignalDef, SignalType


def build_database():
    fast = MessageDef(
        "Fast", 0x10, 8, 0.02,
        (SignalDef("speed", 0, 32, SignalType.FLOAT),),
    )
    slow = MessageDef(
        "Slow", 0x20, 8, 0.08,
        (SignalDef("torque", 0, 32, SignalType.FLOAT),),
    )
    return CanDatabase([fast, slow])


def build_bus(jitter=0.0, seed=0):
    db = build_database()
    bus = CanBus(db, JitterModel(jitter, seed))
    state = {"speed": 10.0, "torque": 100.0}
    bus.attach_publisher("Fast", lambda: state)
    bus.attach_publisher("Slow", lambda: state)
    return bus, state


class TestScheduling:
    def test_fast_message_four_times_per_slow(self):
        bus, _ = build_bus()
        counts = {"Fast": 0, "Slow": 0}
        bus.add_listener(lambda f, name, v: counts.__setitem__(name, counts[name] + 1))
        bus.run_until(0.8)
        assert counts["Fast"] == pytest.approx(40, abs=1)
        assert counts["Slow"] == pytest.approx(10, abs=1)
        assert counts["Fast"] / counts["Slow"] == pytest.approx(4.0, rel=0.1)

    def test_values_come_from_publisher_at_transmit_time(self):
        bus, state = build_bus()
        seen = []
        bus.add_listener(lambda f, name, v: seen.append(v.get("speed")) if name == "Fast" else None)
        bus.run_until(0.05)
        state["speed"] = 99.0
        bus.run_until(0.10)
        assert 10.0 in seen and 99.0 in seen

    def test_duplicate_publisher_rejected(self):
        bus, _ = build_bus()
        with pytest.raises(BusError):
            bus.attach_publisher("Fast", dict)

    def test_unpublished_messages_reported(self):
        db = build_database()
        bus = CanBus(db)
        bus.attach_publisher("Fast", dict)
        assert bus.unpublished_messages() == ("Slow",)

    def test_step_without_publisher_raises(self):
        db = build_database()
        bus = CanBus(db)
        bus.attach_publisher("Fast", dict)
        bus.attach_publisher("Slow", dict)
        # Sanity: with both attached, stepping works.
        assert bus.step(0.1)

    def test_frames_sent_counter(self):
        bus, _ = build_bus()
        bus.run_until(0.2)
        assert bus.frames_sent > 0


class TestJitter:
    def test_zero_jitter_gives_exact_timestamps(self):
        bus, _ = build_bus(jitter=0.0)
        stamps = []
        bus.add_listener(lambda f, name, v: stamps.append(f.timestamp) if name == "Slow" else None)
        bus.run_until(0.5)
        deltas = [round(b - a, 9) for a, b in zip(stamps, stamps[1:])]
        assert all(d == pytest.approx(0.08) for d in deltas)

    def test_jitter_perturbs_timestamps_but_not_schedule(self):
        bus, _ = build_bus(jitter=0.004, seed=3)
        stamps = []
        bus.add_listener(lambda f, name, v: stamps.append(f.timestamp) if name == "Slow" else None)
        bus.run_until(1.0)
        deltas = [b - a for a, b in zip(stamps, stamps[1:])]
        assert any(abs(d - 0.08) > 1e-6 for d in deltas)
        # Long-run average stays on the nominal period.
        assert sum(deltas) / len(deltas) == pytest.approx(0.08, abs=0.002)

    def test_jitter_model_bounds(self):
        model = JitterModel(0.003, seed=1)
        for _ in range(200):
            assert 0.0 <= model.delay() <= 0.003

    def test_negative_jitter_rejected(self):
        with pytest.raises(BusError):
            JitterModel(-0.001)

    @pytest.mark.parametrize("max_jitter", [math.nan, math.inf])
    def test_non_finite_jitter_rejected(self, max_jitter):
        with pytest.raises(BusError):
            JitterModel(max_jitter)

    @pytest.mark.parametrize("seed", [0, 7, 2014])
    def test_block_draws_equal_scalar_draws(self, seed):
        # Spans at least two block boundaries.
        count = 2 * JITTER_BLOCK + 452
        model = JitterModel(0.004, seed)
        scalar = np.random.default_rng(seed)
        for _ in range(count):
            assert model.delay() == float(scalar.uniform(0.0, 0.004))

    def test_zero_jitter_draws_nothing(self):
        model = JitterModel(0.0, seed=3)
        state = model._rng.bit_generator.state
        assert [model.delay() for _ in range(10)] == [0.0] * 10
        assert model._rng.bit_generator.state == state


class TestTaps:
    def test_tap_rewrites_payload(self, database):
        bus, _ = build_bus()

        def tap(message, data, timestamp):
            if message.name == "Fast":
                from repro.can.codec import encode_signal
                return encode_signal(data, message.signal("speed"), -5.0)
            return data

        bus.add_frame_tap(tap)
        seen = []
        bus.add_listener(lambda f, name, v: seen.append(v["speed"]) if name == "Fast" else None)
        bus.run_until(0.1)
        assert seen and all(value == -5.0 for value in seen)

    def test_tap_can_be_removed(self):
        bus, _ = build_bus()
        tap = lambda message, data, timestamp: data
        bus.add_frame_tap(tap)
        bus.remove_frame_tap(tap)
        bus.run_until(0.05)  # must not raise

    def test_removing_unknown_tap_raises_bus_error(self):
        bus, _ = build_bus()
        with pytest.raises(BusError, match="not installed"):
            bus.remove_frame_tap(lambda message, data, timestamp: data)


class TestDecodedValues:
    """Listeners get the packed values while every tap returns the very
    payload object it was given; any other payload is decoded from its
    bytes."""

    def _run(self, tap=None):
        bus, _ = build_bus()
        decodes = []
        decode = bus.database.decode

        def counting_decode(frame):
            decodes.append(frame)
            return decode(frame)

        bus.database.decode = counting_decode
        if tap is not None:
            bus.add_frame_tap(tap)
        seen = []
        bus.add_listener(lambda f, name, v: seen.append((name, f.data, v)))
        bus.run_until(0.1)
        assert seen
        return seen, decodes

    def test_untouched_payload_reuses_packed_values(self):
        seen, decodes = self._run(lambda message, data, timestamp: data)
        assert decodes == []
        assert all(
            v == {"speed": 10.0} if name == "Fast" else v == {"torque": 100.0}
            for name, _, v in seen
        )

    def test_equal_but_new_payload_is_decoded(self):
        seen, decodes = self._run(
            lambda message, data, timestamp: bytes(bytearray(data))
        )
        assert len(decodes) == len(seen)
        assert all(
            v == {"speed": 10.0} if name == "Fast" else v == {"torque": 100.0}
            for name, _, v in seen
        )

    def test_rewritten_payload_is_decoded_from_its_bytes(self):
        from repro.can.codec import encode_signal

        def tap(message, data, timestamp):
            if message.name == "Fast":
                return encode_signal(data, message.signal("speed"), -5.0)
            return data

        seen, decodes = self._run(tap)
        fast = [v for name, _, v in seen if name == "Fast"]
        assert len(decodes) == len(fast)
        assert all(v == {"speed": -5.0} for v in fast)

    def test_short_payload_raises_database_error(self):
        from repro.can.errors import DatabaseError

        bus, _ = build_bus()
        bus.add_frame_tap(lambda message, data, timestamp: data[:4])
        with pytest.raises(DatabaseError, match="expected 8"):
            bus.run_until(0.05)


class TestTimeValidation:
    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf])
    def test_step_rejects_non_finite_time(self, now):
        bus, _ = build_bus()
        with pytest.raises(BusError, match="finite"):
            bus.step(now)
        assert bus.frames_sent == 0

    @pytest.mark.parametrize("end", [math.nan, math.inf])
    def test_run_until_rejects_non_finite_end(self, end):
        bus, _ = build_bus()
        with pytest.raises(BusError, match="finite"):
            bus.run_until(end)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
    def test_run_until_rejects_bad_step(self, dt):
        bus, _ = build_bus()
        with pytest.raises(BusError, match="time step"):
            bus.run_until(0.1, dt=dt)
