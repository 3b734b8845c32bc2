"""Tests for the MESI coherence protocol model."""

import pytest
from hypothesis import given, strategies as st

from repro.arch.coherence import Access, MesiSystem, State


class TestBasicTransitions:
    def test_cold_read_is_exclusive(self):
        system = MesiSystem(2)
        assert system.access(Access.read(0)) is State.EXCLUSIVE

    def test_second_reader_shares(self):
        system = MesiSystem(2)
        system.access(Access.read(0))
        assert system.access(Access.read(1)) is State.SHARED
        assert system.state_of(0) is State.SHARED

    def test_write_from_invalid_is_modified(self):
        system = MesiSystem(2)
        assert system.access(Access.write_(0)) is State.MODIFIED

    def test_silent_e_to_m_upgrade(self):
        system = MesiSystem(2)
        system.access(Access.read(0))          # E
        before = system.bus_transactions
        system.access(Access.write_(0))        # E -> M silently
        assert system.state_of(0) is State.MODIFIED
        assert system.bus_transactions == before

    def test_shared_write_sends_upgrade(self):
        system = MesiSystem(2)
        system.run([Access.read(0), Access.read(1)])
        system.access(Access.write_(0))
        assert system.events[-1].kind == "BusUpgr"
        assert system.state_of(1) is State.INVALID

    def test_read_of_modified_line_flushes(self):
        system = MesiSystem(2)
        system.access(Access.write_(0))        # M in cache 0
        system.access(Access.read(1))
        assert system.writebacks == 1
        assert system.state_of(0) is State.SHARED
        assert system.state_of(1) is State.SHARED

    def test_write_invalidates_all_others(self):
        system = MesiSystem(4)
        system.run([Access.read(i) for i in range(4)])
        system.access(Access.write_(2))
        for cpu in (0, 1, 3):
            assert system.state_of(cpu) is State.INVALID

    def test_needs_at_least_one_cpu(self):
        with pytest.raises(ValueError):
            MesiSystem(0)


class TestSequences:
    def test_paper_style_trace(self):
        system = MesiSystem(2)
        states = system.run([Access.read(0), Access.write_(1),
                             Access.read(0)])
        assert states == [State.EXCLUSIVE, State.MODIFIED, State.SHARED]
        assert system.state_of(1) is State.SHARED

    def test_bus_transaction_count(self):
        system = MesiSystem(2)
        system.run([Access.read(0), Access.read(1), Access.write_(0),
                    Access.write_(1), Access.read(0)])
        # BusRd, BusRd, BusUpgr, BusRdX, BusRd
        assert system.bus_transactions == 5

    def test_state_trace_shape(self):
        system = MesiSystem(3)
        trace = system.state_trace([Access.read(0), Access.write_(1)])
        assert len(trace) == 2
        assert all(len(states) == 3 for states in trace)


@given(st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1,
                max_size=60))
def test_single_writer_multiple_reader_invariant(ops):
    """At most one M/E copy exists, never alongside S copies."""
    system = MesiSystem(3)
    for cpu, write in ops:
        system.access(Access(cpu, write))
        states = system.states
        exclusive_like = [s for s in states
                          if s in (State.MODIFIED, State.EXCLUSIVE)]
        shared = [s for s in states if s is State.SHARED]
        assert len(exclusive_like) <= 1
        if exclusive_like:
            assert not shared


@given(st.lists(st.tuples(st.integers(0, 1), st.booleans()), min_size=1,
                max_size=60))
def test_writer_always_ends_modified(ops):
    system = MesiSystem(2)
    for cpu, write in ops:
        state = system.access(Access(cpu, write))
        if write:
            assert state is State.MODIFIED
        else:
            assert state is not State.INVALID
