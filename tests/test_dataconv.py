"""Tests for the data-converter models."""

import pytest
from hypothesis import given, strategies as st

from repro.analog import dataconv as dc


class TestFlash:
    def test_comparator_count(self):
        assert dc.flash_comparator_count(6) == 63
        assert dc.flash_comparator_count(1) == 1


class TestSar:
    def test_cycles(self):
        assert dc.sar_cycles(10) == 10

    def test_steps_msb_first(self):
        steps = dc.sar_conversion_steps(1.8, 3.2, 8)
        assert steps[0][0] == 7
        assert steps[0][1] == pytest.approx(1.6)
        assert steps[0][2] is True


class TestPipeline:
    def test_one_bit_residue_low(self):
        assert dc.pipeline_residue(0.3, 1.0, 1) == pytest.approx(0.6)

    def test_one_bit_residue_high(self):
        assert dc.pipeline_residue(0.7, 1.0, 1) == pytest.approx(0.4)

    def test_stage_gain(self):
        assert dc.pipeline_stage_gain(2) == 4

    @given(st.floats(0.0, 0.999), st.integers(1, 3))
    def test_residue_stays_in_range(self, v_in, stage_bits):
        residue = dc.pipeline_residue(v_in, 1.0, stage_bits)
        assert -1e-9 <= residue <= 1.0 + 1e-9


class TestMetrics:
    def test_lsb(self):
        assert dc.lsb_size(2.048, 10) == pytest.approx(0.002)

    def test_sqnr(self):
        assert dc.ideal_sqnr_db(12) == pytest.approx(74.0, abs=0.1)

    def test_dnl_ideal_is_zero(self):
        assert dc.dnl_from_levels([0.0, 1.0, 2.0, 3.0]) == \
            pytest.approx([0.0, 0.0, 0.0])

    def test_dnl_detects_wide_step(self):
        dnl = dc.dnl_from_levels([0.0, 1.0, 2.5, 3.0, 4.0])
        assert max(dnl) == pytest.approx(0.5)
        assert min(dnl) == pytest.approx(-0.5)
