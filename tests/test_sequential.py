"""Tests for flip-flops, state machines and sequence detectors."""

import pytest
from hypothesis import given, strategies as st

from repro.digital import sequential
from repro.digital.expr import equivalent, parse
from repro.digital.kmap import sop_text
from repro.digital.sequential import (
    StateMachine,
    Transition,
    johnson_counter_states,
    next_state_expression,
    ring_counter_states,
    sequence_detector,
    sr_latch_table,
)


class TestFlipFlops:

    def test_jk_modes(self):
        assert sequential.jk_ff_next(0, 0, 1) == 1  # hold
        assert sequential.jk_ff_next(1, 0, 0) == 1  # set
        assert sequential.jk_ff_next(0, 1, 1) == 0  # reset
        assert sequential.jk_ff_next(1, 1, 1) == 0  # toggle

    def test_sr_invalid_is_none(self):
        assert sequential.sr_ff_next(1, 1, 0) is None

    def test_sr_set_reset_hold(self):
        assert sequential.sr_ff_next(1, 0, 0) == 1
        assert sequential.sr_ff_next(0, 1, 1) == 0
        assert sequential.sr_ff_next(0, 0, 1) == 1


class TestNextStateDerivation:
    def test_sr_latch_characteristic(self):
        expr = next_state_expression(["S", "R"], "Q", sr_latch_table())
        assert equivalent(parse(sop_text(expr)), parse("S + R'Q"))

    def test_jk_characteristic(self):
        table = {}
        for j in (0, 1):
            for k in (0, 1):
                for q in (0, 1):
                    table[(j, k, q)] = sequential.jk_ff_next(j, k, q)
        expr = next_state_expression(["J", "K"], "Q", table)
        assert equivalent(parse(sop_text(expr)), parse("JQ' + K'Q"))

    def test_bad_key_length_raises(self):
        with pytest.raises(ValueError):
            next_state_expression(["A"], "Q", {(0, 0, 0): 1})


class TestStateMachine:
    def _toggler(self):
        return StateMachine(
            states=["S0", "S1"], inputs=("t",),
            transitions=[Transition("S0", "t", "S1"),
                         Transition("S1", "t", "S0")],
            initial="S0", moore_outputs={"S0": "0", "S1": "1"})

    def test_run_trace(self):
        machine = self._toggler()
        trace, outputs = machine.run(["t", "t", "t"])
        assert trace == ["S0", "S1", "S0", "S1"]
        assert outputs == ["1", "0", "1"]

    def test_missing_transition_raises(self):
        machine = StateMachine(["S0"], ("a", "b"),
                               [Transition("S0", "a", "S0")], "S0")
        with pytest.raises(ValueError, match="no transition"):
            machine.run(["b"])

    def test_duplicate_transition_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            StateMachine(["S0"], ("a",),
                         [Transition("S0", "a", "S0"),
                          Transition("S0", "a", "S0")], "S0")

    def test_unknown_initial_rejected(self):
        with pytest.raises(ValueError):
            StateMachine(["S0"], ("a",), [], "S9")

    def test_min_flipflops(self):
        machine = StateMachine([f"S{i}" for i in range(6)], ("a",),
                               [], "S0")
        assert machine.min_flipflops() == 3

    def test_state_table_rows(self):
        rows = self._toggler().state_table_rows()
        assert rows == [["S0", "S1"], ["S1", "S0"]]


class TestSequenceDetector:
    def test_detects_pattern(self):
        machine = sequence_detector("101")
        _, outputs = machine.run(list("0101011"))
        assert outputs.count("1") == 2  # at ...101 and overlapping ..101

    def test_overlap_vs_no_overlap(self):
        overlapping = sequence_detector("11", overlapping=True)
        plain = sequence_detector("11", overlapping=False)
        _, out_a = overlapping.run(list("1111"))
        _, out_b = plain.run(list("1111"))
        assert out_a.count("1") == 3
        assert out_b.count("1") == 2

    def test_state_count_equals_pattern_length(self):
        for pattern in ("1", "10", "101", "1101"):
            assert len(sequence_detector(pattern).states) == len(pattern)

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            sequence_detector("abc")

    @given(st.text(alphabet="01", min_size=1, max_size=6),
           st.text(alphabet="01", max_size=40))
    def test_against_naive_scan(self, pattern, stream):
        """The FSM detects exactly the occurrences a string scan finds."""
        machine = sequence_detector(pattern, overlapping=True)
        _, outputs = machine.run(list(stream))
        detected = outputs.count("1")
        expected = sum(
            1 for i in range(len(stream) - len(pattern) + 1)
            if stream[i:i + len(pattern)] == pattern)
        assert detected == expected


class TestCounters:

    def test_ring_counter_states(self):
        assert ring_counter_states(3) == [1, 2, 4]

    def test_johnson_period_is_2n(self):
        states = johnson_counter_states(4)
        assert len(states) == 8
        assert len(set(states)) == 8  # all distinct

    def test_johnson_returns_to_start(self):
        width = 3
        states = johnson_counter_states(width)
        # next state after the last is the first again
        last = states[-1]
        msb_complement = 1 - ((last >> (width - 1)) & 1)
        nxt = ((last << 1) | msb_complement) & ((1 << width) - 1)
        assert nxt == states[0]
