"""Tests for the extension studies: domain fine-tuning and few-shot."""

import pytest
from hypothesis import given, strategies as st

from repro.core.benchmark import build_chipvqa
from repro.core.fewshot import (
    fewshot_prompt,
    fewshot_uplift,
    select_exemplars,
    with_fewshot,
)
from repro.core.question import Category
from repro.models import WITH_CHOICE, build_model
from repro.models.finetune import (
    FinetuneRecipe,
    finetune,
    projected_rates,
)


class TestFinetuneRecipe:
    def test_uniform_constructor(self):
        recipe = FinetuneRecipe.uniform(1000)
        assert all(recipe.examples_per_category[c] == 1000
                   for c in Category)

    def test_validation(self):
        with pytest.raises(ValueError):
            FinetuneRecipe.uniform(100, epochs=0)
        with pytest.raises(ValueError):
            FinetuneRecipe({Category.DIGITAL: -5})

    def test_learning_units_diminishing(self):
        small = FinetuneRecipe.uniform(500)
        large = FinetuneRecipe.uniform(5000)
        gain_ratio = (large.learning_units(Category.DIGITAL)
                      / small.learning_units(Category.DIGITAL))
        assert 1.0 < gain_ratio < 10.0  # sub-linear in data

    def test_zero_examples_zero_units(self):
        recipe = FinetuneRecipe({c: 0 for c in Category})
        assert recipe.learning_units(Category.ANALOG) == 0.0


class TestProjectedRates:
    BASE = {c: 0.2 for c in Category}

    def test_no_data_no_change(self):
        recipe = FinetuneRecipe({c: 0 for c in Category})
        assert projected_rates(self.BASE, recipe) == self.BASE

    def test_rates_improve_monotonically(self):
        small = projected_rates(self.BASE, FinetuneRecipe.uniform(500))
        large = projected_rates(self.BASE, FinetuneRecipe.uniform(5000))
        for category in Category:
            assert self.BASE[category] <= small[category] \
                <= large[category]

    def test_ceiling_respected(self):
        huge = projected_rates(self.BASE, FinetuneRecipe.uniform(10 ** 9))
        for category in Category:
            assert huge[category] <= 0.2 + 0.6 * 0.8 + 1e-9

    def test_transfer_between_disciplines(self):
        # training only on Digital must still lift Architecture
        recipe = FinetuneRecipe({Category.DIGITAL: 5000})
        rates = projected_rates(self.BASE, recipe)
        assert rates[Category.ARCHITECTURE] > self.BASE[Category.ARCHITECTURE]
        assert rates[Category.DIGITAL] > rates[Category.ARCHITECTURE]

    def test_sa_gains_smaller(self):
        recipe = FinetuneRecipe.uniform(2000)
        mc = projected_rates(self.BASE, recipe, sa=False)
        sa = projected_rates(self.BASE, recipe, sa=True)
        for category in Category:
            assert sa[category] <= mc[category]


class TestFinetunedModel:
    def test_finetuned_model_improves(self, chipvqa):
        from repro.core.harness import EvaluationHarness

        harness = EvaluationHarness()
        base = build_model("llava-7b")
        tuned = finetune(base, FinetuneRecipe.uniform(4000))
        base_score = harness.zero_shot_standard(base).pass_at_1()
        tuned_score = harness.zero_shot_standard(tuned).pass_at_1()
        assert tuned_score > base_score
        assert tuned.name.startswith("llava-7b-")


class TestFewshot:
    def test_uplift_monotone_saturating(self):
        values = [fewshot_uplift(k) for k in (0, 1, 2, 4, 8, 16)]
        assert values[0] == 0.0
        assert all(a < b for a, b in zip(values, values[1:]))
        # saturating: per-exemplar marginal gain shrinks
        assert (fewshot_uplift(2) - fewshot_uplift(1)
                > fewshot_uplift(16) - fewshot_uplift(15))

    def test_uplift_validation(self):
        with pytest.raises(ValueError):
            fewshot_uplift(-1)

    def test_exemplars_never_share_category(self, chipvqa):
        target = chipvqa.get("dig-01")
        exemplars = select_exemplars(chipvqa, target, 8)
        assert len(exemplars) == 8
        assert all(e.category is not target.category for e in exemplars)
        assert len({e.qid for e in exemplars}) == 8

    def test_exemplars_deterministic(self, chipvqa):
        target = chipvqa.get("ana-05")
        first = [e.qid for e in select_exemplars(chipvqa, target, 5)]
        second = [e.qid for e in select_exemplars(chipvqa, target, 5)]
        assert first == second

    def test_prompt_contains_exemplar_answers(self, chipvqa):
        target = chipvqa.get("phy-02")
        prompt = fewshot_prompt(chipvqa, target, 2)
        assert "Example 1:" in prompt
        assert "Example 2:" in prompt
        assert target.prompt in prompt
        # no leakage of the target's own gold
        assert f"Answer: {target.gold_text}" not in prompt

    def test_zero_shot_passthrough(self):
        model = build_model("gpt-4o")
        assert with_fewshot(model, 0) is model

    def test_fewshot_improves_scores(self, chipvqa):
        from repro.core.harness import EvaluationHarness

        harness = EvaluationHarness()
        base = build_model("llava-13b")
        shot4 = with_fewshot(base, 4)
        assert harness.zero_shot_standard(shot4).pass_at_1() >= \
            harness.zero_shot_standard(base).pass_at_1()
