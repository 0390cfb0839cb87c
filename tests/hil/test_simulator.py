"""HIL testbench integration behaviour."""

import math

import pytest

from repro.can.fsracc import FSRACC_INPUTS, FSRACC_OUTPUTS
from repro.errors import SimulationError
from repro.hil.simulator import CONTROL_PERIOD, HilSimulator, PHYSICS_DT
from repro.vehicle.scenario import hard_brake_lead, steady_follow


class TestNominalRun:
    def test_trace_carries_every_fig1_signal(self, nominal_trace):
        for name in FSRACC_INPUTS + FSRACC_OUTPUTS:
            assert name in nominal_trace

    def test_acc_engages_and_follows(self, nominal_trace):
        enabled = nominal_trace.updates("ACCEnabled")
        assert enabled[0][1] == 0.0
        assert enabled[-1][1] == 1.0

    def test_settles_near_desired_gap(self, nominal_result):
        # Medium headway (1.8 s) at the lead's 27 m/s is a 48.6 m gap.
        trace = nominal_result.trace
        end = trace.end_time
        gap = trace.value_at("TargetRange", end)
        assert gap == pytest.approx(48.6, abs=2.0)

    def test_no_collisions_in_nominal_follow(self, nominal_result):
        assert nominal_result.collisions == 0
        assert nominal_result.min_gap > 10.0

    def test_requested_torque_is_slow_period(self, nominal_trace):
        fast = nominal_trace.update_count("Velocity")
        slow = nominal_trace.update_count("RequestedTorque")
        assert fast / slow == pytest.approx(4.0, rel=0.05)

    def test_result_counts_frames(self, nominal_result):
        # 7 fast messages at 50 Hz plus 2 slow at 12.5 Hz for 40 s.
        expected = 40.0 * (7 * 50 + 2 * 12.5)
        assert nominal_result.frames_sent == pytest.approx(expected, rel=0.02)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = HilSimulator(steady_follow(5.0), seed=42).run().trace
        b = HilSimulator(steady_follow(5.0), seed=42).run().trace
        assert list(a.events()) == list(b.events())

    def test_different_seed_different_jitter(self):
        a = HilSimulator(steady_follow(5.0), seed=1).run().trace
        b = HilSimulator(steady_follow(5.0), seed=2).run().trace
        assert list(a.events()) != list(b.events())


class TestInjectionVisibility:
    def test_injected_value_visible_to_monitor_and_feature(self):
        simulator = HilSimulator(steady_follow(60.0), seed=3)
        simulator.run_for(15.0)
        simulator.injection.inject_value("Velocity", 5.0)
        simulator.run_for(3.0)
        trace = simulator.recorder.trace
        # The monitor-facing trace carries the injected value...
        assert trace.value_at("Velocity", simulator.time - 0.1) == 5.0
        # ...and the feature reacted to it (thinks it is slow, pushes hard).
        assert trace.value_at("RequestedTorque", simulator.time - 0.1) > 500.0

    def test_clearing_injection_restores_truth(self):
        simulator = HilSimulator(steady_follow(60.0), seed=3)
        simulator.run_for(10.0)
        simulator.injection.inject_value("Velocity", 5.0)
        simulator.run_for(1.0)
        simulator.injection.clear_all()
        simulator.run_for(1.0)
        trace = simulator.recorder.trace
        assert trace.value_at("Velocity", simulator.time - 0.05) > 20.0


class TestDriverOverrides:
    def test_brake_override_cancels_acc(self):
        simulator = HilSimulator(steady_follow(60.0), seed=3)
        simulator.run_for(10.0)
        simulator.set_driver_override("brake_pressure", 40.0)
        simulator.run_for(2.0)
        trace = simulator.recorder.trace
        assert trace.value_at("ACCEnabled", simulator.time - 0.05) == 0.0

    def test_clear_override_resumes(self):
        simulator = HilSimulator(steady_follow(60.0), seed=3)
        simulator.run_for(10.0)
        simulator.set_driver_override("brake_pressure", 40.0)
        simulator.run_for(1.0)
        simulator.clear_driver_override("brake_pressure")
        simulator.run_for(1.0)
        trace = simulator.recorder.trace
        assert trace.value_at("ACCEnabled", simulator.time - 0.05) == 1.0

    def test_unknown_override_field_rejected(self):
        simulator = HilSimulator(steady_follow(10.0))
        with pytest.raises(SimulationError):
            simulator.set_driver_override("steering", 1.0)


class TestScenarioDynamics:
    def test_hard_braking_lead_closes_then_recovers_gap(self):
        result = HilSimulator(hard_brake_lead(), seed=5).run()
        assert result.collisions == 0
        assert result.min_gap < 35.0  # the lead's braking closed the gap
        assert result.min_gap > 2.0   # but the ACC kept a real margin

    def test_timekeeping(self):
        simulator = HilSimulator(steady_follow(10.0))
        simulator.run_for(1.0)
        assert simulator.time == pytest.approx(1.0, abs=PHYSICS_DT)

    def test_jitter_bound_validated(self):
        with pytest.raises(SimulationError):
            HilSimulator(steady_follow(10.0), jitter_max=CONTROL_PERIOD)

    @pytest.mark.parametrize("seconds", [math.inf, math.nan, -math.inf])
    def test_run_for_rejects_non_finite_length(self, seconds):
        simulator = HilSimulator(steady_follow(10.0))
        with pytest.raises(SimulationError, match="finite"):
            simulator.run_for(seconds)
        assert simulator.time == 0.0

    def test_run_rejects_infinite_duration(self):
        simulator = HilSimulator(steady_follow(10.0))
        with pytest.raises(SimulationError, match="finite"):
            simulator.run(math.inf)
