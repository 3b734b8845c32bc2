"""Tests for paired significance testing between evaluation runs."""

import pytest
from hypothesis import given, strategies as st

from repro.core.metrics import EvalRecord, EvalResult
from repro.core.question import Category
from repro.core.significance import (
    _binom_two_sided_p,
    compare,
    mcnemar,
    paired_bootstrap_diff,
)


def _result(name, flags):
    result = EvalResult(name, "d", "with_choice")
    for index, flag in enumerate(flags):
        result.add(EvalRecord(f"q-{index}", Category.DIGITAL, "r", flag))
    return result


class TestBinomP:
    def test_balanced_is_one(self):
        assert _binom_two_sided_p(5, 10) > 0.99

    def test_extreme_is_small(self):
        assert _binom_two_sided_p(0, 20) < 0.001

    def test_empty_is_one(self):
        assert _binom_two_sided_p(0, 0) == 1.0

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_valid_probability(self, k, extra):
        n = k + extra
        p = _binom_two_sided_p(k, n)
        assert 0.0 <= p <= 1.0

    @given(st.integers(0, 15), st.integers(1, 15))
    def test_symmetry(self, k, extra):
        n = k + extra
        assert _binom_two_sided_p(k, n) == \
            pytest.approx(_binom_two_sided_p(n - k, n))


class TestMcnemar:
    def test_identical_runs(self):
        a = _result("a", [True, False, True])
        b = _result("b", [True, False, True])
        only_a, only_b, p = mcnemar(a, b)
        assert (only_a, only_b) == (0, 0)
        assert p == 1.0

    def test_dominant_model_significant(self):
        a = _result("a", [True] * 30)
        b = _result("b", [False] * 15 + [True] * 15)
        only_a, only_b, p = mcnemar(a, b)
        assert only_a == 15 and only_b == 0
        assert p < 0.001

    def test_mismatched_questions_rejected(self):
        a = _result("a", [True, False])
        b = _result("b", [True, False, True])
        with pytest.raises(ValueError):
            mcnemar(a, b)


class TestCompare:
    def test_full_comparison(self):
        a = _result("a", [True, True, True, False, True, False] * 10)
        b = _result("b", [True, False, False, False, True, False] * 10)
        comparison = compare(a, b)
        assert comparison.n == 60
        assert comparison.diff == pytest.approx(
            a.pass_at_1() - b.pass_at_1())
        assert comparison.ci_low <= comparison.diff <= comparison.ci_high
        assert "vs" in comparison.summary()

    def test_bootstrap_ci_brackets_zero_for_identical(self):
        a = _result("a", [True, False] * 20)
        b = _result("b", [False, True] * 20)
        low, high = paired_bootstrap_diff(a, b)
        assert low <= 0.0 <= high

    def test_zoo_comparison_significant(self, chipvqa):
        from repro.core.harness import EvaluationHarness
        from repro.models import build_model

        harness = EvaluationHarness()
        gpt = harness.zero_shot_standard(build_model("gpt-4o"))
        weak = harness.zero_shot_standard(build_model("kosmos-2"))
        comparison = compare(gpt, weak)
        assert comparison.significant
        assert comparison.diff > 0.3
