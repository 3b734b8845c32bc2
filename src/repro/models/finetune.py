"""Simulated domain fine-tuning — the paper's stated future work.

Section V targets "ChipVQA-oriented dataset collection, VLM training and
development, targeting a low-cost yet effective open-source foundation
model".  This module lets the harness explore that direction offline: a
:class:`FinetuneRecipe` (domain-example budget per discipline, epochs)
produces a new calibrated model whose per-category rates improve with
diminishing returns and cross-discipline transfer, saturating below a
configurable headroom ceiling.

The learning-curve form is the standard log-linear data-scaling rule
(accuracy gain ~ log of example count), with a transfer matrix that sends
a fraction of each discipline's gain to the others — chip-design skills
overlap (e.g. Digital helps Architecture).  It is a *model of training*,
not training: results are labelled as extension studies, never as paper
reproductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.core.question import Category
from repro.models.vlm import CalibrationTable, SimulatedVLM

#: Fraction of a discipline's gain that leaks to each other discipline.
TRANSFER = {
    (Category.DIGITAL, Category.ARCHITECTURE): 0.30,
    (Category.ARCHITECTURE, Category.DIGITAL): 0.30,
    (Category.ANALOG, Category.PHYSICAL): 0.15,
    (Category.PHYSICAL, Category.ANALOG): 0.15,
    (Category.MANUFACTURING, Category.PHYSICAL): 0.20,
    (Category.PHYSICAL, Category.MANUFACTURING): 0.20,
}

#: Examples that buy one "unit" of learning (log base point).
EXAMPLES_PER_UNIT = 500.0

#: Gain per learning unit, in absolute pass-rate points.
GAIN_PER_UNIT = 0.06

#: No amount of fine-tuning closes more than this fraction of the gap to
#: perfect accuracy (data quality / model capacity ceiling).
MAX_HEADROOM_FRACTION = 0.6


@dataclass(frozen=True)
class FinetuneRecipe:
    """A domain-adaptation training budget."""

    examples_per_category: Mapping[Category, int]
    epochs: int = 1
    sa_gain_fraction: float = 0.7  # SA improves less than MC per unit

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.sa_gain_fraction <= 1.0:
            raise ValueError("sa_gain_fraction must be in [0, 1]")
        for category, count in self.examples_per_category.items():
            if count < 0:
                raise ValueError(f"negative examples for {category}")

    @classmethod
    def uniform(cls, examples: int, epochs: int = 1) -> "FinetuneRecipe":
        return cls({c: examples for c in Category}, epochs=epochs)

    def learning_units(self, category: Category) -> float:
        """Diminishing-returns units earned for one discipline."""
        examples = self.examples_per_category.get(category, 0)
        effective = examples * math.sqrt(self.epochs)
        return math.log1p(effective / EXAMPLES_PER_UNIT)


def _direct_gains(recipe: FinetuneRecipe) -> Dict[Category, float]:
    return {
        category: GAIN_PER_UNIT * recipe.learning_units(category)
        for category in Category
    }


def projected_rates(base: Mapping[Category, float],
                    recipe: FinetuneRecipe,
                    sa: bool = False) -> Dict[Category, float]:
    """Post-fine-tuning pass rates for one evaluation setting."""
    direct = _direct_gains(recipe)
    rates: Dict[Category, float] = {}
    for category, base_rate in base.items():
        gain = direct[category]
        for (src, dst), fraction in TRANSFER.items():
            if dst is category:
                gain += fraction * direct[src]
        if sa:
            gain *= recipe.sa_gain_fraction
        ceiling = base_rate + MAX_HEADROOM_FRACTION * (1.0 - base_rate)
        rates[category] = min(ceiling, base_rate + gain)
    return rates


def finetune(model: SimulatedVLM, recipe: FinetuneRecipe,
             suffix: str = "chip-ft") -> SimulatedVLM:
    """A new calibrated model reflecting the recipe's projected effect.

    The returned model shares the base model's encoder/projector/backbone
    (fine-tuning here is instruction/alignment tuning, not architecture
    change) under a derived name, with a recomputed calibration table.
    """
    calibration = CalibrationTable(
        with_choice=projected_rates(model.calibration.with_choice, recipe,
                                    sa=False),
        no_choice=projected_rates(model.calibration.no_choice, recipe,
                                  sa=True),
    )
    return SimulatedVLM(
        name=f"{model.name}-{suffix}",
        encoder=model.encoder,
        projector=model.projector,
        backbone=model.backbone,
        calibration=calibration,
        supports_system_prompt=model.supports_system_prompt,
        temperature=model.temperature,
    )
