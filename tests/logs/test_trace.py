"""Trace and TraceView semantics — the monitor's data model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import multirate_trace, uniform_trace
from repro.errors import TraceError
from repro.logs.trace import Trace


class TestRecording:
    def test_updates_preserved_in_order(self):
        trace = Trace()
        trace.record("a", 0.0, 1.0)
        trace.record("a", 0.1, 2.0)
        assert trace.updates("a") == [(0.0, 1.0), (0.1, 2.0)]

    def test_non_monotonic_timestamps_rejected(self):
        trace = Trace()
        trace.record("a", 1.0, 1.0)
        with pytest.raises(TraceError):
            trace.record("a", 0.5, 2.0)

    def test_equal_timestamps_allowed(self):
        trace = Trace()
        trace.record("a", 1.0, 1.0)
        trace.record("a", 1.0, 2.0)
        assert trace.update_count("a") == 2

    def test_record_many(self):
        trace = Trace()
        trace.record_many(0.5, {"a": 1.0, "b": 2.0})
        assert trace.signals() == ("a", "b")

    def test_record_many_rejects_out_of_order_like_record(self):
        trace = Trace()
        trace.record_many(1.0, {"a": 1.0, "b": 2.0})
        with pytest.raises(TraceError, match="b: update at t=0.500000"):
            trace.record_many(0.5, {"c": 3.0, "b": 4.0, "a": 5.0})
        # "c" came before the offending signal and stays recorded.
        assert trace.updates("c") == [(0.5, 3.0)]
        assert trace.update_count("a") == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-5.0, 5.0),
                st.dictionaries(
                    st.sampled_from("abcd"),
                    st.one_of(
                        st.floats(allow_nan=True, allow_infinity=True),
                        st.booleans(),
                        st.integers(0, 7),
                    ),
                    max_size=4,
                ),
            ),
            max_size=12,
        )
    )
    def test_record_many_equals_a_loop_of_record(self, frames):
        looped, batched = Trace(), Trace()

        def outcome(record):
            try:
                record()
            except TraceError as error:
                return str(error)
            return None

        for timestamp, values in frames:

            def loop():
                for signal, value in values.items():
                    looped.record(signal, timestamp, value)

            assert outcome(loop) == outcome(
                lambda: batched.record_many(timestamp, values)
            )
        # Same columns, bit for bit (NaN payloads included), and the
        # same partial appends after a rejected frame.
        assert looped.signals() == batched.signals()
        for signal in looped.signals():
            for a, b in zip(
                looped.update_arrays(signal), batched.update_arrays(signal)
            ):
                assert a.tobytes() == b.tobytes()

    def test_nan_and_inf_are_recordable(self):
        trace = Trace()
        trace.record("a", 0.0, float("nan"))
        trace.record("a", 0.1, float("inf"))
        values = [v for _, v in trace.updates("a")]
        assert math.isnan(values[0])
        assert values[1] == float("inf")


class TestInspection:
    def test_times_and_duration(self):
        trace = uniform_trace({"a": [1, 2, 3]}, period=0.5, start=1.0)
        assert trace.start_time == 1.0
        assert trace.end_time == 2.0
        assert trace.duration == 1.0

    def test_empty_trace_reports(self):
        trace = Trace()
        assert trace.is_empty()
        with pytest.raises(TraceError):
            _ = trace.start_time

    def test_value_at_holds_last_update(self):
        trace = uniform_trace({"a": [10, 20, 30]}, period=1.0)
        assert trace.value_at("a", 0.0) == 10
        assert trace.value_at("a", 1.5) == 20
        assert trace.value_at("a", 99.0) == 30

    def test_value_at_before_first_update_raises(self):
        trace = uniform_trace({"a": [1]}, start=5.0)
        with pytest.raises(TraceError):
            trace.value_at("a", 4.0)

    def test_unknown_signal_raises(self):
        trace = Trace()
        with pytest.raises(TraceError):
            trace.updates("ghost")

    def test_events_are_time_ordered(self):
        trace = multirate_trace({"f": range(8)}, {"s": range(2)})
        events = list(trace.events())
        times = [t for t, _, _ in events]
        assert times == sorted(times)


class TestTransformation:
    def test_sliced_keeps_only_window(self):
        trace = uniform_trace({"a": range(10)}, period=1.0)
        piece = trace.sliced(2.0, 5.0)
        assert [t for t, _ in piece.updates("a")] == [2.0, 3.0, 4.0, 5.0]

    def test_merged_with_combines_signals(self):
        a = uniform_trace({"x": [1, 2]})
        b = uniform_trace({"y": [3, 4]})
        merged = a.merged_with(b)
        assert merged.signals() == ("x", "y")


class TestViewSampling:
    def test_hold_semantics(self):
        trace = multirate_trace({"f": [0, 1, 2, 3, 4, 5, 6, 7]}, {"s": [10, 20]})
        view = trace.to_view(0.02)
        # Slow signal holds 10 for rows 0..3, then 20.
        assert list(view.values("s")[:4]) == [10, 10, 10, 10]
        assert list(view.values("s")[4:]) == [20, 20, 20, 20]

    def test_freshness_marks_update_rows(self):
        trace = multirate_trace({"f": range(8)}, {"s": [10, 20]})
        view = trace.to_view(0.02)
        assert list(view.fresh("s")) == [True, False, False, False, True, False, False, False]
        assert view.fresh("f").all()

    def test_ever_fresh_before_first_update(self):
        trace = Trace()
        trace.record("late", 0.06, 5.0)
        trace.record("early", 0.0, 1.0)
        trace.record("early", 0.08, 1.0)
        view = trace.to_view(0.02)
        assert list(view.ever_fresh("late")) == [False, False, False, True, True]
        # Values are backfilled with the first known value.
        assert view.values("late")[0] == 5.0

    def test_view_respects_signal_selection(self):
        trace = uniform_trace({"a": [1], "b": [2]})
        view = trace.to_view(0.02, signals=["a"])
        assert "a" in view
        assert "b" not in view

    def test_view_unknown_signal_rejected(self):
        trace = uniform_trace({"a": [1]})
        with pytest.raises(TraceError):
            trace.to_view(0.02, signals=["ghost"])

    def test_view_bad_period_rejected(self):
        trace = uniform_trace({"a": [1]})
        with pytest.raises(TraceError):
            trace.to_view(0.0)

    def test_view_of_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            Trace().to_view(0.02)

    def test_explicit_window(self):
        trace = uniform_trace({"a": range(100)}, period=0.02)
        view = trace.to_view(0.02, start=0.5, end=1.0)
        assert view.start_time == 0.5
        assert view.n_rows == 26

    def test_row_values_snapshot(self):
        trace = uniform_trace({"a": [1, 2], "b": [3, 4]})
        view = trace.to_view(0.02)
        assert view.row_values(1) == {"a": 2.0, "b": 4.0}


class TestViewTrends:
    def test_delta_naive_stutters_on_slow_signal(self):
        # The §V-C1 artifact: a steadily rising slow signal looks
        # constant three rows out of four to the naive difference.
        trace = multirate_trace({"f": range(12)}, {"s": [0, 10, 20]})
        view = trace.to_view(0.02)
        naive = view.delta_naive("s")
        assert list(naive[1:4]) == [0.0, 0.0, 0.0]
        assert naive[4] == 10.0

    def test_delta_fresh_holds_trend_between_updates(self):
        trace = multirate_trace({"f": range(12)}, {"s": [0, 10, 20]})
        view = trace.to_view(0.02)
        fresh = view.delta_fresh("s")
        # After the second update the trend is +10, held on every row.
        assert list(fresh[4:]) == [10.0] * 8

    def test_delta_fresh_zero_before_second_update(self):
        trace = multirate_trace({"f": range(8)}, {"s": [5, 7]})
        view = trace.to_view(0.02)
        assert list(view.delta_fresh("s")[:4]) == [0.0] * 4

    def test_rate_uses_actual_update_spacing(self):
        trace = multirate_trace({"f": range(12)}, {"s": [0, 10, 20]})
        view = trace.to_view(0.02)
        # 10 units per 80 ms = 125 per second.
        assert view.rate("s")[5] == pytest.approx(125.0)

    def test_fresh_age_counts_rows_since_update(self):
        trace = multirate_trace({"f": range(8)}, {"s": [1, 2]})
        view = trace.to_view(0.02)
        assert list(view.fresh_age("s")) == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_update_times_track_true_timestamps(self):
        trace = Trace()
        trace.record("a", 0.000, 1.0)
        trace.record("a", 0.083, 2.0)  # jittered arrival
        trace.record("b", 0.0, 0.0)
        trace.record("b", 0.16, 0.0)
        view = trace.to_view(0.02)
        assert view.update_times("a")[5] == pytest.approx(0.083)


class TestViewProperties:
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50)
    def test_uniform_signal_view_reproduces_values(self, values):
        trace = uniform_trace({"a": values})
        view = trace.to_view(0.02)
        assert view.n_rows == len(values)
        assert np.array_equal(view.values("a"), np.array(values, dtype=float))

    @given(ratio=st.integers(min_value=2, max_value=8))
    @settings(max_examples=20)
    def test_held_rows_equal_last_fresh_value(self, ratio):
        slow_values = [float(i * i) for i in range(5)]
        trace = multirate_trace(
            {"f": range(5 * ratio)}, {"s": slow_values}, ratio=ratio
        )
        view = trace.to_view(0.02)
        values = view.values("s")
        fresh = view.fresh("s")
        last = values[0]
        for row in range(view.n_rows):
            if fresh[row]:
                last = values[row]
            assert values[row] == last

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=30
        )
    )
    @settings(max_examples=50)
    def test_delta_fresh_matches_differences_on_fresh_rows(self, values):
        trace = uniform_trace({"a": values})
        view = trace.to_view(0.02)
        delta = view.delta_fresh("a")
        expected = np.diff(np.array(values))
        assert np.allclose(delta[1:], expected)


class TestStreamTrace:
    """The deque-backed store behind the online monitor's rolling buffer."""

    def _stream(self, n=10, period=0.02):
        from repro.logs.trace import StreamTrace

        stream = StreamTrace("s")
        for i in range(n):
            stream.record("a", i * period, float(i))
        return stream

    def test_record_and_inspect(self):
        stream = self._stream(5)
        assert stream.signals() == ("a",)
        assert "a" in stream
        assert stream.update_count("a") == 5
        assert stream.update_count() == 5
        assert stream.updates("a")[0] == (0.0, 0.0)
        assert stream.time_bounds("a") == (0.0, pytest.approx(0.08))

    def test_non_monotonic_timestamps_rejected(self):
        from repro.logs.trace import StreamTrace

        stream = StreamTrace()
        stream.record("a", 1.0, 1.0)
        with pytest.raises(TraceError):
            stream.record("a", 0.5, 2.0)

    def test_trim_pops_strictly_older_updates(self):
        stream = self._stream(10)
        dropped = stream.trim(0.08)
        assert dropped == 4  # t in {0, .02, .04, .06}; t == 0.08 is kept
        assert stream.update_count("a") == 6
        assert stream.updates("a")[0][0] == pytest.approx(0.08)

    def test_trim_matches_trace_sliced_semantics(self):
        """StreamTrace.trim(t) must keep exactly what Trace.sliced(t, inf)
        keeps — that equality is what makes the ring-buffer refactor a
        pure representation change."""
        trace = Trace()
        stream = self._stream(20)
        for i in range(20):
            trace.record("a", i * 0.02, float(i))
        cut = 0.137
        stream.trim(cut)
        assert stream.updates("a") == trace.sliced(cut, math.inf).updates("a")

    def test_frontier_advances_monotonically(self):
        stream = self._stream(10)
        assert stream.frontier == -math.inf
        stream.trim(0.1)
        assert stream.frontier == 0.1
        stream.trim(0.05)  # cannot move backwards
        assert stream.frontier == 0.1

    def test_to_view_matches_trace_view(self):
        from repro.logs.trace import StreamTrace

        columns = {"a": [1.0, 2.0, 3.0, 2.0, 5.0], "b": [0.0, 0.0, 1.0, 1.0, 0.0]}
        trace = uniform_trace(columns)
        stream = StreamTrace()
        for timestamp, signal, value in trace.events():
            stream.record(signal, timestamp, value)
        tview = trace.to_view(0.02)
        sview = stream.to_view(0.02)
        assert sview.n_rows == tview.n_rows
        for signal in columns:
            assert np.array_equal(sview.values(signal), tview.values(signal))
            assert np.array_equal(sview.fresh(signal), tview.fresh(signal))

    def test_to_view_rejects_fully_expired_signal(self):
        """A signal whose every update was trimmed must fail like a
        missing signal — a silent all-held view would be wrong data."""
        stream = self._stream(4)
        stream.record("b", 0.06, 1.0)
        stream.trim(1.0)  # expires everything
        assert "a" in stream  # the signal name is still known...
        with pytest.raises(TraceError):
            stream.to_view(0.02, signals=("a",))  # ...but views must refuse

    def test_empty_and_time_properties(self):
        from repro.logs.trace import StreamTrace

        stream = StreamTrace()
        assert stream.is_empty()
        stream.record("a", 1.0, 0.5)
        assert not stream.is_empty()
        assert stream.start_time == 1.0
        assert stream.end_time == 1.0
