"""Tests for branch predictors."""

import pytest
from hypothesis import given, strategies as st

from repro.arch.branch import (
    TwoBitPredictor,
    accuracy,
    loop_branch_outcomes,
    mispredict_penalty_cpi,
    run_predictor,
)


class TestTwoBit:
    def test_counter_saturates(self):
        predictor = TwoBitPredictor(initial=3)
        for _ in range(5):
            predictor.update(0, True)
        assert predictor.counter(0) == 3
        for _ in range(5):
            predictor.update(0, False)
        assert predictor.counter(0) == 0

    def test_hysteresis_survives_one_exit(self):
        predictor = TwoBitPredictor(initial=3)
        predictor.update(0, False)  # loop exit
        assert predictor.predict(0) is True  # still predicts taken

    def test_paper_loop_accuracy(self):
        predictor = TwoBitPredictor(initial=1)
        outcomes = loop_branch_outcomes(iterations=5, trips=2)
        correct, _ = run_predictor(predictor, outcomes)
        assert correct == 7  # 70% over 10 branches

    def test_invalid_initial_rejected(self):
        with pytest.raises(ValueError):
            TwoBitPredictor(initial=4)


class TestHelpers:
    def test_loop_outcomes_shape(self):
        outcomes = loop_branch_outcomes(iterations=4, trips=2)
        assert outcomes == [True, True, True, False] * 2

    def test_loop_outcomes_validation(self):
        with pytest.raises(ValueError):
            loop_branch_outcomes(0)

    def test_mispredict_cpi(self):
        assert mispredict_penalty_cpi(1.0, 0.2, 0.1, 15) == \
            pytest.approx(1.3)

    def test_mispredict_cpi_validation(self):
        with pytest.raises(ValueError):
            mispredict_penalty_cpi(1.0, 2.0, 0.1, 15)


@given(st.lists(st.booleans(), min_size=1, max_size=100))
def test_accuracy_bounded(outcomes):
    value = accuracy(TwoBitPredictor(), outcomes)
    assert 0.0 <= value <= 1.0


@given(st.lists(st.booleans(), min_size=4, max_size=100))
def test_constant_stream_learned_by_two_bit(outcomes):
    """On an all-taken stream the 2-bit predictor converges within 2."""
    predictor = TwoBitPredictor(initial=0)
    correct, flags = run_predictor(predictor, [True] * len(outcomes))
    assert all(flags[2:])
