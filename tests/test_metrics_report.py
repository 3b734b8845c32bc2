"""Tests for metrics aggregation and table rendering."""

import pytest

from repro.core.metrics import (
    EvalRecord,
    EvalResult,
    agreement,
    mc_sa_gap,
    spearman_rank_correlation,
)
from repro.core.question import Category
from repro.core.report import (
    CATEGORY_ORDER,
    render_composition,
    render_table1,
)


def _result(flags_by_category):
    result = EvalResult("m", "d", "with_choice")
    index = 0
    for category, flags in flags_by_category.items():
        for flag in flags:
            result.add(EvalRecord(f"q-{index}", category, "resp", flag))
            index += 1
    return result


class TestEvalResult:
    def test_pass_at_1(self):
        result = _result({Category.DIGITAL: [True, False, True, False]})
        assert result.pass_at_1() == 0.5
        assert result.correct_count() == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            EvalResult("m", "d", "s").pass_at_1()

    def test_by_category(self):
        result = _result({
            Category.DIGITAL: [True, True],
            Category.ANALOG: [False, False],
        })
        rates = result.pass_at_1_by_category()
        assert rates[Category.DIGITAL] == 1.0
        assert rates[Category.ANALOG] == 0.0

    def test_row_appends_overall(self):
        result = _result({Category.DIGITAL: [True, False]})
        row = result.row(CATEGORY_ORDER)
        assert len(row) == 6
        assert row[-1] == 0.5

    def test_category_counts(self):
        result = _result({Category.PHYSICAL: [True, True, False]})
        assert result.category_counts()[Category.PHYSICAL] == (2, 3)

    def test_manual_check_count(self):
        result = EvalResult("m", "d", "s")
        result.add(EvalRecord("q", Category.DIGITAL, "r", True,
                              judge_method="manual"))
        assert result.manual_check_count() == 1


class TestStatistics:

    def test_mc_sa_gap(self):
        with_choice = _result({Category.DIGITAL: [True, True]})
        no_choice = _result({Category.DIGITAL: [True, False]})
        assert mc_sa_gap(with_choice, no_choice) == 0.5

    def test_agreement(self):
        assert agreement([True, False], [True, True]) == 0.5

    def test_spearman_perfect(self):
        assert spearman_rank_correlation([1, 2, 3], [10, 20, 30]) == \
            pytest.approx(1.0)
        assert spearman_rank_correlation([1, 2, 3], [3, 2, 1]) == \
            pytest.approx(-1.0)

    def test_spearman_ties(self):
        value = spearman_rank_correlation([1, 1, 2], [1, 2, 3])
        assert -1.0 <= value <= 1.0

    def test_spearman_constant_raises(self):
        with pytest.raises(ValueError):
            spearman_rank_correlation([1, 1], [2, 3])


class TestReports:
    def test_table1_renders(self, chipvqa):
        text = render_table1(chipvqa)
        assert "142" in text
        assert "schematic" in text
        assert "Digital Design" in text

    def test_composition_renders_all_disciplines(self, chipvqa):
        text = render_composition(chipvqa)
        for category in CATEGORY_ORDER:
            assert category.value in text
