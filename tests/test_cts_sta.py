"""Tests for clock-tree synthesis helpers and static timing analysis."""

import pytest
from hypothesis import given, strategies as st

from repro.physical import cts
from repro.physical.cts import ClockSink
from repro.physical.geometry import Point
from repro.physical.sta import TimingGraph, chain_graph


class TestSkew:
    def _sinks(self):
        return [ClockSink("a", Point(0, 0), 1.2),
                ClockSink("b", Point(1, 0), 1.5),
                ClockSink("c", Point(0, 1), 0.9)]

    def test_global_skew(self):
        assert cts.skew(self._sinks()) == pytest.approx(0.6)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            cts.skew([])


class TestHTree:
    def test_levels(self):
        assert cts.h_tree_levels(1) == 0
        assert cts.h_tree_levels(4) == 1
        assert cts.h_tree_levels(64) == 3
        assert cts.h_tree_levels(65) == 4


class TestTimingChecks:
    def test_setup_slack(self):
        assert cts.setup_slack(10.0, 8.5, 0.5) == pytest.approx(1.0)

    def test_setup_slack_with_helpful_skew(self):
        tight = cts.setup_slack(10.0, 10.2, 0.5)
        helped = cts.setup_slack(10.0, 10.2, 0.5, capture_skew=1.0)
        assert tight < 0 < helped

    def test_hold_slack(self):
        assert cts.hold_slack(0.3, 0.1) == pytest.approx(0.2)
        assert cts.hold_slack(0.3, 0.1, capture_skew=0.4) == \
            pytest.approx(-0.2)

    def test_useful_skew_gain(self):
        assert cts.useful_skew_gain([8.0, 5.0, 5.0]) == pytest.approx(2.0)

    def test_useful_skew_zero_when_balanced(self):
        assert cts.useful_skew_gain([5.0, 5.0]) == 0.0

    def test_buffers_needed(self):
        assert cts.buffers_needed(480.0, 50.0) == 10
        assert cts.buffers_needed(10.0, 50.0) == 1

    def test_elmore(self):
        assert cts.elmore_delay([100.0, 100.0], [0.01, 0.02]) == \
            pytest.approx(1.0 + 4.0)

    def test_elmore_mismatch_raises(self):
        with pytest.raises(ValueError):
            cts.elmore_delay([1.0], [1.0, 2.0])


class TestTimingGraph:
    def _diamond(self):
        graph = TimingGraph()
        graph.arc("in", "a", 1.0).arc("a", "out", 3.0)
        graph.arc("in", "b", 2.0).arc("b", "out", 1.0)
        return graph

    def test_arrival_times(self):
        arrivals = self._diamond().arrival_times()
        assert arrivals["out"] == pytest.approx(4.0)

    def test_critical_path(self):
        path, delay = self._diamond().critical_path()
        assert path == ["in", "a", "out"]
        assert delay == pytest.approx(4.0)

    def test_slacks_nonnegative_at_relaxed_period(self):
        slacks = self._diamond().slacks(10.0)
        assert min(slacks.values()) == pytest.approx(6.0)

    def test_worst_slack_zero_at_critical_period(self):
        graph = self._diamond()
        assert graph.worst_slack(4.0) == pytest.approx(0.0)

    def test_required_times_propagate_backwards(self):
        required = self._diamond().required_times(10.0)
        assert required["a"] == pytest.approx(7.0)
        assert required["in"] == pytest.approx(6.0)

    def test_min_clock_period_includes_overheads(self):
        graph = self._diamond()
        assert graph.min_clock_period(setup_time=0.5, clk_to_q=0.5) == \
            pytest.approx(5.0)

    def test_cycle_detection(self):
        graph = TimingGraph()
        graph.arc("a", "b", 1.0).arc("b", "a", 1.0)
        with pytest.raises(ValueError, match="cycle"):
            graph.arrival_times()

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            TimingGraph().arc("a", "b", -1.0)

    def test_chain_helper(self):
        graph = chain_graph([1.0, 2.0, 3.0])
        _, delay = graph.critical_path()
        assert delay == pytest.approx(6.0)

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=10))
    def test_chain_delay_is_sum(self, delays):
        graph = chain_graph(delays)
        _, total = graph.critical_path()
        assert total == pytest.approx(sum(delays))

    @given(st.lists(st.floats(0.1, 5.0), min_size=2, max_size=8),
           st.floats(20.0, 40.0))
    def test_slack_decreases_along_critical_path_start(self, delays, period):
        graph = chain_graph(delays)
        slacks = graph.slacks(period)
        # every node on a pure chain has identical slack
        values = list(slacks.values())
        assert max(values) - min(values) < 1e-9
