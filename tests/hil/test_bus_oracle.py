"""Simulator-level oracle for the bus's decoded values, and a trace pin.

Two contracts over whole simulator runs:

* every value the bus hands its listeners equals, bit for bit, what the
  per-signal reference codec (:func:`~repro.can.codec.decode_signal`)
  reads out of the delivered payload — with value, bit-flip (including
  flips the HIL profile suppresses), stick and silence injections
  active, so frames both untouched and rewritten by the injection tap
  are covered;
* one short seeded campaign row reproduces a pinned sha256 digest of
  its captured trace and pinned ``frames_sent``/``frames_dropped``
  counts, so any change to the codec or bus that moves a single bit of
  a captured value, a timestamp or a frame count fails here.
"""

import hashlib
import math
import struct

import numpy as np
import pytest

import repro.testing.campaign as campaign_mod
from repro.can.codec import decode_signal
from repro.hil.simulator import HilSimulator
from repro.testing.campaign import RobustnessCampaign, table1_tests
from repro.vehicle.scenario import steady_follow


def value_bits(value):
    """A value's type and exact bits (floats by their binary64 pattern,
    so NaN payloads and signed zeros compare exactly)."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def trace_digest(trace) -> str:
    """sha256 over every signal's ``(t, v)`` float64 bits, by name."""
    digest = hashlib.sha256()
    for name in sorted(trace.signals()):
        times, values = trace.update_arrays(name)
        digest.update(name.encode())
        digest.update(np.asarray(times, dtype=np.float64).tobytes())
        digest.update(np.asarray(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


class ReDecoder:
    """Bus listener that re-decodes every delivered frame with the
    reference codec and records any disagreement."""

    def __init__(self, database):
        self.database = database
        self.frames = 0
        self.mismatches = []

    def __call__(self, frame, message_name, values):
        self.frames += 1
        message = self.database.message_by_id(frame.can_id)
        assert message.name == message_name
        expected = {
            signal.name: decode_signal(frame.data, signal)
            for signal in message.signals
        }
        if list(values) != list(expected) or any(
            value_bits(values[name]) != value_bits(expected[name])
            for name in expected
        ):
            self.mismatches.append((frame, values, expected))


class TestDeliveredValuesMatchReferenceCodec:
    @pytest.fixture(scope="class")
    def run(self):
        simulator = HilSimulator(steady_follow(16.0), seed=7)
        checker = ReDecoder(simulator.database)
        simulator.bus.add_listener(checker)
        harness = simulator.injection
        simulator.run_for(6.0)
        # Value injections, exceptional floats included.
        harness.inject_value("Velocity", float("nan"))
        harness.inject_value("TargetRange", -0.0)
        simulator.run_for(1.0)
        harness.inject_value("Velocity", 1.0e-45)
        harness.inject_value("TargetRange", float("inf"))
        simulator.run_for(1.0)
        harness.clear_all()
        # Bit flips: float sign/exponent bits, and an enum flip the HIL
        # profile suppresses (SelHeadway 2 -> 6 is outside the labels).
        harness.inject_bitflips("TargetRelVel", (31,))
        harness.inject_bitflips("ThrotPos", (23, 30))
        harness.inject_bitflips("SelHeadway", (2,))
        simulator.run_for(2.0)
        harness.clear_all()
        # A stuck sensor and a silent node.
        harness.inject_stick("BrakePedPres")
        harness.inject_silence("VehicleAhead")
        simulator.run_for(2.0)
        harness.clear_all()
        simulator.run_for(1.0)
        return simulator, checker

    def test_every_delivered_frame_was_checked(self, run):
        simulator, checker = run
        assert checker.frames == simulator.bus.frames_sent > 0
        assert simulator.bus.frames_dropped > 0

    def test_delivered_values_are_bit_equal_to_reference(self, run):
        _, checker = run
        assert checker.mismatches == []

    def test_injections_reached_the_trace(self, run):
        simulator, _ = run
        trace = simulator.recorder.trace
        velocity = [v for _, v in trace.updates("Velocity")]
        assert any(math.isnan(v) for v in velocity)
        assert any(v == 1.401298464324817e-45 for v in velocity)
        assert simulator.injection.rejections == 0

    def test_bitflips_reached_the_trace_unless_suppressed(self, run):
        simulator, _ = run
        trace = simulator.recorder.trace
        headway = {v for _, v in trace.updates("SelHeadway")}
        assert headway == {2.0}
        # Flipping exponent bits 23 and 30 of a throttle percentage
        # lands near float32's smallest normal; the profile accepts it.
        throttle = [v for _, v in trace.updates("ThrotPos")]
        assert any(0 < v < 1e-30 for v in throttle)


class TestCampaignTracePin:
    """A short seeded row, pinned before the compiled codec existed."""

    LABEL = "Bitflips TargetRange"
    DIGEST = (
        "70dc4f40ebb940936708d5212f56f96036f5f23c0d305f1c3460d1232db11c38"
    )
    FRAMES_SENT = 14256
    FRAMES_DROPPED = 0

    def test_trace_digest_and_frame_counts_are_pinned(self, monkeypatch):
        simulators = []

        class Recording(HilSimulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                simulators.append(self)

        monkeypatch.setattr(campaign_mod, "HilSimulator", Recording)
        campaign = RobustnessCampaign(
            seed=2014, hold_time=2.0, gap_time=0.5, settle_time=8.0
        )
        (test,) = [t for t in table1_tests() if t.label == self.LABEL]
        simulated = campaign.simulate_test(test)
        (simulator,) = simulators
        assert (
            trace_digest(simulated.trace),
            simulator.bus.frames_sent,
            simulator.bus.frames_dropped,
        ) == (self.DIGEST, self.FRAMES_SENT, self.FRAMES_DROPPED)
