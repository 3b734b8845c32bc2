"""Tests for the in-order pipeline timing model."""

import pytest
from hypothesis import given, strategies as st

from repro.arch.pipeline import (
    BypassConfig,
    Instr,
    Op,
    Pipeline,
    alu,
    branch,
    load,
    load_use_stall_cycles,
    speedup,
    store,
)


class TestInstr:
    def test_load_requires_destination(self):
        with pytest.raises(ValueError):
            Instr(Op.LOAD)

    def test_helpers(self):
        assert alu("r1", "r2").dst == "r1"
        assert load("r1").op is Op.LOAD
        assert store("r1").dst is None
        assert branch("r1").op is Op.BRANCH


class TestIndependentCode:
    def test_ideal_cpi_approaches_one(self):
        trace = [alu(f"r{i}") for i in range(50)]
        result = Pipeline().run(trace)
        assert result.stall_cycles == 0
        assert result.cpi == pytest.approx(1.0, abs=0.1)

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            Pipeline().run([])


class TestHazards:
    def test_back_to_back_alu_no_stall_with_forwarding(self):
        trace = [alu("r1"), alu("r2", "r1")]
        result = Pipeline(BypassConfig.full()).run(trace)
        assert result.stall_cycles == 0

    def test_load_use_one_bubble_with_forwarding(self):
        assert load_use_stall_cycles(BypassConfig.full()) == 1

    def test_load_use_two_bubbles_without_mem_bypass(self):
        config = BypassConfig(ex_to_ex=True, mem_to_ex=False)
        assert load_use_stall_cycles(config) == 2

    def test_no_forwarding_at_all(self):
        config = BypassConfig(ex_to_ex=False, mem_to_ex=False)
        trace = [alu("r1"), alu("r2", "r1")]
        result = Pipeline(config).run(trace)
        assert result.stall_cycles == 2  # wait for WB write-before-read

    def test_independent_instruction_hides_bubble(self):
        trace = [load("r1"), alu("r9"), alu("r2", "r1")]
        result = Pipeline(BypassConfig.full()).run(trace)
        assert result.stall_cycles == 0

    def test_paper_bypass_example_saves_two_cycles(self):
        trace = [load("r1"), alu("r2", "r1"), alu("r3", "r2"), store("r3"),
                 load("r4"), alu("r5", "r4"), alu("r6", "r5", "r3"),
                 store("r6")]
        without = Pipeline(BypassConfig(ex_to_ex=True, mem_to_ex=False))
        with_path = Pipeline(BypassConfig.full())
        saved = without.run(trace).cycles - with_path.run(trace).cycles
        assert saved == 2

    def test_branch_penalty_adds_cycles(self):
        trace = [alu("r1"), branch("r1"), alu("r2")]
        base = Pipeline(branch_penalty=0).run(trace, taken_branches=1)
        penalised = Pipeline(branch_penalty=3).run(trace, taken_branches=1)
        assert penalised.cycles - base.cycles == 3


class TestIronLaw:
    def test_speedup(self):
        assert speedup(2.0, 1.0) == pytest.approx(2.0)
        assert speedup(2.0, 1.0, 1.0, 0.5) == pytest.approx(1.0)

    def test_speedup_validation(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)


@given(st.lists(st.sampled_from(["alu", "load"]), min_size=1, max_size=30))
def test_more_bypassing_never_hurts(ops):
    """Full forwarding is always at least as fast as none."""
    trace = []
    for index, kind in enumerate(ops):
        srcs = (f"r{index - 1}",) if index else ()
        if kind == "load":
            trace.append(Instr(Op.LOAD, f"r{index}", srcs and (srcs[0],) or ("sp",)))
        else:
            trace.append(Instr(Op.ALU, f"r{index}", srcs))
    fast = Pipeline(BypassConfig.full()).run(trace).cycles
    slow = Pipeline(BypassConfig(ex_to_ex=False, mem_to_ex=False)).run(trace).cycles
    assert fast <= slow


@given(st.integers(1, 40))
def test_cpi_at_least_one_for_any_dependent_chain(n):
    trace = [alu("r0")] + [alu(f"r{i}", f"r{i - 1}") for i in range(1, n)]
    result = Pipeline().run(trace)
    assert result.cpi >= 1.0
