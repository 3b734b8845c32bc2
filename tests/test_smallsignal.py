"""Tests for MOS operating points and small-signal stage formulas."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.analog import smallsignal as ss
from repro.analog.smallsignal import MosParams, bias_from_current


class TestOperatingPoint:
    def test_vov_from_current(self):
        op = bias_from_current(MosParams(k=2e-3, v_th=0.5), 1e-3)
        assert op.v_ov == pytest.approx(1.0)
        assert op.v_gs == pytest.approx(1.5)

    def test_gm_identities(self):
        params = MosParams(k=2e-3, v_th=0.5)
        op = bias_from_current(params, 1e-3)
        assert op.gm == pytest.approx(2 * op.i_d / op.v_ov)
        assert op.gm == pytest.approx(math.sqrt(2 * params.k * op.i_d))

    def test_ro_infinite_without_lambda(self):
        op = bias_from_current(MosParams(k=1e-3, v_th=0.4), 1e-3)
        assert math.isinf(op.ro)

    def test_ro_with_lambda(self):
        op = bias_from_current(MosParams(k=1e-3, v_th=0.4, lam=0.02), 1e-3)
        assert op.ro == pytest.approx(50e3)
        assert op.intrinsic_gain == pytest.approx(op.gm * 50e3)

    def test_saturation_check(self):
        params = MosParams(k=1e-3, v_th=0.6)
        assert ss.in_saturation(params, v_gs=1.1, v_ds=0.6)
        assert not ss.in_saturation(params, v_gs=1.1, v_ds=0.3)
        assert not ss.in_saturation(params, v_gs=0.5, v_ds=1.0)  # cutoff


class TestStageGains:
    def test_common_source(self):
        assert ss.common_source_gain(2e-3, 10e3) == pytest.approx(-20.0)

    def test_common_source_with_ro(self):
        gain = ss.common_source_gain(2e-3, 10e3, ro=50e3)
        assert gain == pytest.approx(-2e-3 * (10e3 * 50e3) / 60e3)

    def test_degeneration_reduces_gain(self):
        plain = abs(ss.common_source_gain(2e-3, 10e3))
        degen = abs(ss.common_source_degenerated_gain(2e-3, 10e3, 500.0))
        assert degen < plain
        assert degen == pytest.approx(20.0 / 2.0)

    def test_follower_below_unity(self):
        gain = ss.common_drain_gain(5e-3, 2e3)
        assert 0.0 < gain < 1.0
        assert gain == pytest.approx(10.0 / 11.0)

    def test_common_gate_positive(self):
        assert ss.common_gate_gain(4e-3, 5e3) == pytest.approx(20.0)

    def test_cascode_boost(self):
        rout = ss.cascode_output_resistance(2e-3, 50e3, 50e3)
        assert rout > 50e3 * 50
        assert rout == pytest.approx(2e-3 * 50e3 * 50e3 + 1e5)

    def test_diff_pair(self):
        assert ss.diff_pair_gain(3e-3, 4e3) == pytest.approx(12.0)

    def test_cmrr(self):
        assert ss.diff_pair_cmrr(2e-3, 5e3, 100e3) == pytest.approx(400.0)

    def test_five_transistor_ota(self):
        assert ss.five_transistor_ota_gain(1e-3, 100e3, 100e3) == \
            pytest.approx(50.0)

    def test_source_follower_rout(self):
        assert ss.source_follower_rout(4e-3) == pytest.approx(250.0)

    def test_degenerated_rout(self):
        assert ss.degenerated_rout(2e-3, 50e3, 1e3) == pytest.approx(151e3)


class TestMnaCrossChecks:
    """The closed forms must agree with the generic MNA solver."""

    @given(st.floats(1e-4, 1e-2), st.floats(1e3, 1e5))
    def test_common_source_formula_vs_mna(self, gm, rd):
        formula = ss.common_source_gain(gm, rd)
        mna = ss.common_source_gain_mna(gm, rd)
        assert mna == pytest.approx(formula, rel=1e-9)

    @given(st.floats(1e-4, 1e-2), st.floats(1e3, 1e5), st.floats(1e4, 1e6))
    def test_common_source_with_ro_vs_mna(self, gm, rd, ro):
        formula = ss.common_source_gain(gm, rd, ro=ro)
        mna = ss.common_source_gain_mna(gm, rd, ro=ro)
        assert mna == pytest.approx(formula, rel=1e-9)

    @given(st.floats(1e-4, 1e-2), st.floats(1e2, 1e5))
    def test_source_follower_vs_mna(self, gm, rs):
        formula = ss.common_drain_gain(gm, rs)
        mna = ss.source_follower_gain_mna(gm, rs)
        assert mna == pytest.approx(formula, rel=1e-9)
