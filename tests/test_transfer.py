"""Tests for transfer functions, Bode metrics and loop analysis."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.analog.transfer import (
    TransferFunction,
    gbw_from_dc_gain,
    rc_lowpass_corner_hz,
)


class TestConstruction:
    def test_dc_gain(self):
        tf = TransferFunction.from_poles_zeros(100.0, [1e3])
        assert tf.dc_gain() == pytest.approx(100.0)
        assert tf.dc_gain_db() == pytest.approx(40.0)

    def test_empty_polynomial_rejected(self):
        with pytest.raises(ValueError):
            TransferFunction((), (1.0,))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            TransferFunction((1.0,), (0.0, 0.0))

    def test_negative_corner_rejected(self):
        with pytest.raises(ValueError):
            TransferFunction.from_poles_zeros(1.0, [-5.0])

    def test_integrator(self):
        tf = TransferFunction.integrator(1e6)
        assert abs(tf.at_jw(1e6)) == pytest.approx(1.0)


class TestFrequencyResponse:
    def test_pole_is_minus_3db(self):
        tf = TransferFunction.from_poles_zeros(1.0, [1000.0])
        assert tf.magnitude_db(1000.0) == pytest.approx(-3.0103, abs=1e-3)

    def test_single_pole_rolloff_20db_per_decade(self):
        tf = TransferFunction.from_poles_zeros(1.0, [10.0])
        drop = tf.magnitude_db(1e4) - tf.magnitude_db(1e5)
        assert drop == pytest.approx(20.0, abs=0.1)

    def test_zero_lifts_response(self):
        tf = TransferFunction.from_poles_zeros(1.0, [1e6], zeros=[100.0])
        assert tf.magnitude_db(1e4) > 30.0

    def test_phase_of_single_pole_at_corner(self):
        tf = TransferFunction.from_poles_zeros(1.0, [1000.0])
        assert tf.phase_deg(1000.0) == pytest.approx(-45.0, abs=1.0)

    def test_phase_far_above_two_poles(self):
        tf = TransferFunction.from_poles_zeros(1.0, [10.0, 100.0])
        assert tf.phase_deg(1e6) == pytest.approx(-180.0, abs=2.0)


class TestPolesZeros:
    def test_pole_frequencies(self):
        tf = TransferFunction.from_poles_zeros(1.0, [100.0, 1e4])
        assert tf.pole_frequencies() == pytest.approx([100.0, 1e4], rel=1e-6)

    def test_zero_count(self):
        tf = TransferFunction.from_poles_zeros(5.0, [1e3, 1e5], zeros=[1e4])
        assert len(tf.poles()) == 2
        assert len(tf.zeros()) == 1


class TestLoopMetrics:
    def test_unity_gain_frequency_single_pole(self):
        # GBW: A0 * wp = 1e3 * 1e3 = 1e6
        tf = TransferFunction.from_poles_zeros(1e3, [1e3])
        assert tf.unity_gain_frequency() == pytest.approx(1e6, rel=1e-2)

    def test_phase_margin_single_pole_is_90(self):
        tf = TransferFunction.from_poles_zeros(1e3, [1e3])
        assert tf.phase_margin_deg() == pytest.approx(90.0, abs=2.0)

    def test_phase_margin_two_close_poles_small(self):
        tf = TransferFunction.from_poles_zeros(1e3, [1e3, 1e3])
        assert tf.phase_margin_deg() < 20.0

    def test_unity_gain_raises_below_unity(self):
        tf = TransferFunction.from_poles_zeros(0.5, [1e3])
        with pytest.raises(ValueError):
            tf.unity_gain_frequency()

    def test_closed_loop_reduces_dc_gain(self):
        tf = TransferFunction.from_poles_zeros(1000.0, [1e3])
        closed = tf.closed_loop(0.1)
        assert closed.dc_gain() == pytest.approx(1000.0 / 101.0, rel=1e-6)

    def test_cascade_multiplies_gain(self):
        a = TransferFunction.from_poles_zeros(10.0, [1e3])
        b = TransferFunction.from_poles_zeros(5.0, [1e6])
        assert a.cascade(b).dc_gain() == pytest.approx(50.0)


class TestHelpers:
    def test_rc_corner(self):
        assert rc_lowpass_corner_hz(1e3, 159.15e-9) == pytest.approx(
            1000.0, rel=1e-3)

    def test_rc_corner_validation(self):
        with pytest.raises(ValueError):
            rc_lowpass_corner_hz(0, 1e-9)

    def test_gbw(self):
        assert gbw_from_dc_gain(1e4, 100.0) == pytest.approx(1e6)


@given(st.floats(1.0, 1e4), st.floats(10.0, 1e8))
def test_dc_gain_invariant_under_pole_location(gain, pole):
    tf = TransferFunction.from_poles_zeros(gain, [pole])
    assert tf.dc_gain() == pytest.approx(gain, rel=1e-9)


@given(st.floats(10.0, 1e6))
def test_magnitude_monotone_decreasing_single_pole(pole):
    tf = TransferFunction.from_poles_zeros(100.0, [pole])
    mags = [abs(tf.at_jw(w)) for w in (1.0, 1e2, 1e4, 1e6, 1e8)]
    assert all(a >= b - 1e-12 for a, b in zip(mags, mags[1:]))
