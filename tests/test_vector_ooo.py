"""Tests for the vector-machine timing model and OoO hazard analysis."""

import pytest
from hypothesis import given, strategies as st

from repro.arch import vector
from repro.arch.ooo import classify_hazards, hazard_counts
from repro.arch.pipeline import alu, load
from repro.arch.vector import VectorOp


class TestChimes:
    def _daxpy(self):
        return [VectorOp("LV", "ls", "v1"),
                VectorOp("MULVS", "mul", "v2", ("v1",)),
                VectorOp("LV2", "ls", "v3"),
                VectorOp("ADDVV", "add", "v4", ("v2", "v3")),
                VectorOp("SV", "ls", "v5", ("v4",))]

    def test_daxpy_is_three_chimes_with_chaining(self):
        assert vector.chimes(self._daxpy(), allow_chaining=True) == 3

    def test_no_chaining_needs_more_chimes(self):
        with_chaining = vector.chimes(self._daxpy(), allow_chaining=True)
        without = vector.chimes(self._daxpy(), allow_chaining=False)
        assert without >= with_chaining

    def test_independent_ops_one_chime(self):
        ops = [VectorOp("A", "u1", "v1"), VectorOp("B", "u2", "v2")]
        assert vector.chimes(ops) == 1

    def test_empty_is_zero(self):
        assert vector.chimes([]) == 0


class TestTiming:

    def test_strip_mining(self):
        assert vector.strip_mine_iterations(1000, 64) == 16
        assert vector.strip_mine_iterations(64, 64) == 1
        assert vector.strip_mine_iterations(0, 64) == 0

    def test_amdahl(self):
        assert vector.amdahl_speedup(0.8, 16.0) == pytest.approx(4.0)
        assert vector.amdahl_speedup(0.0, 100.0) == 1.0

    @given(st.floats(0.0, 1.0), st.floats(1.0, 1000.0))
    def test_amdahl_bounded_by_serial_fraction(self, fraction, factor):
        value = vector.amdahl_speedup(fraction, factor)
        assert 1.0 - 1e-9 <= value <= factor + 1e-9
        if fraction < 1.0:
            assert value <= 1.0 / (1.0 - fraction) + 1e-9

    def test_roofline(self):
        assert vector.roofline_gflops(100.0, 50.0, 0.5) == 25.0
        assert vector.roofline_gflops(100.0, 50.0, 10.0) == 100.0


class TestHazards:
    def test_classification(self):
        trace = [load("r1"), alu("r2", "r1", "r3"), alu("r3", "r4"),
                 alu("r2", "r5")]
        counts = hazard_counts(trace)
        assert counts == {"RAW": 1, "WAR": 1, "WAW": 1}

    def test_no_hazards_in_independent_code(self):
        trace = [alu("r1"), alu("r2"), alu("r3")]
        assert classify_hazards(trace) == []

    def test_raw_found_across_distance(self):
        trace = [alu("r1"), alu("r9"), alu("r2", "r1")]
        kinds = [h.kind for h in classify_hazards(trace)]
        assert "RAW" in kinds
