"""The simulated vision-language model: Fig. 2's pipeline end to end.

A :class:`SimulatedVLM` composes a visual encoder, a projector and an LLM
backbone, carries the calibration table that replays Table II, and answers
questions with actual response *text* (paraphrases of the gold when
correct, plausible distractors when wrong) so the judge pipeline is
exercised for real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.question import Category, Question
from repro.core.prompts import PromptBundle, build_prompt
from repro.models.encoder import VisualEncoder, rate_scaling
from repro.models.irt import OutcomePlan, abilities_from_rates, plan_outcomes
from repro.models.llm import LlmBackbone
from repro.models.projector import Projector

#: Evaluation settings matching the two halves of Table II.
WITH_CHOICE = "with_choice"
NO_CHOICE = "no_choice"


@dataclass(frozen=True)
class CalibrationTable:
    """Per-discipline pass rates in both settings (from Table II)."""

    with_choice: Mapping[Category, float]
    no_choice: Mapping[Category, float]

    def rates(self, setting: str) -> Mapping[Category, float]:
        if setting == WITH_CHOICE:
            return self.with_choice
        if setting == NO_CHOICE:
            return self.no_choice
        raise ValueError(f"unknown setting {setting!r}")


@dataclass(frozen=True)
class ModelAnswer:
    """One model response plus simulation internals (for analysis)."""

    qid: str
    text: str
    planned_correct: bool
    perception: float
    prompt: PromptBundle


class SimulatedVLM:
    """A calibrated stand-in for one of the paper's evaluated VLMs."""

    def __init__(
        self,
        name: str,
        encoder: VisualEncoder,
        projector: Projector,
        backbone: LlmBackbone,
        calibration: CalibrationTable,
        supports_system_prompt: bool = True,
        temperature: float = 0.1,
    ):
        self.name = name
        self.encoder = encoder
        self.projector = projector
        self.backbone = backbone
        self.calibration = calibration
        self.supports_system_prompt = supports_system_prompt
        self.temperature = temperature

    def __repr__(self) -> str:
        return (f"SimulatedVLM({self.name!r}, "
                f"backbone={self.backbone.name!r})")

    # -- perception ------------------------------------------------------------

    def perceive(self, question: Question,
                 resolution_factor: int = 1,
                 use_raster: bool = True) -> float:
        raw = self.encoder.perceive_question(
            question, resolution_factor, use_raster=use_raster)
        return self.projector.project(raw)

    def _perceptions(self, questions: Sequence[Question],
                     resolution_factor: int,
                     use_raster: bool) -> Dict[str, float]:
        return {
            q.qid: self.perceive(q, resolution_factor, use_raster)
            for q in questions
        }

    # -- answering ----------------------------------------------------------------

    def plan(self, questions: Sequence[Question], setting: str,
             resolution_factor: int = 1,
             use_raster: bool = True,
             perceptions: Optional[Dict[str, float]] = None) -> OutcomePlan:
        """Quota-IRT outcome plan for an evaluation run.

        At native resolution the calibrated rates apply unchanged; at a
        degraded resolution each category's rate is scaled by the mean
        perception penalty (computed from the real rasters), so the plan
        *derives* the resolution study rather than hard-coding it.

        ``perceptions`` (qid -> projected perception at
        ``resolution_factor``) lets :meth:`answer_all` share one
        perception pass between planning and answering; omitted, the map
        is computed here.
        """
        rates = self.calibration.rates(setting)
        if perceptions is None:
            perceptions = self._perceptions(questions, resolution_factor,
                                            use_raster)
        multiplier: Optional[Dict[Category, float]] = None
        if resolution_factor > 1:
            native = self._perceptions(questions, 1, use_raster)
            multiplier = {}
            by_cat: Dict[Category, List[Question]] = {}
            for question in questions:
                by_cat.setdefault(question.category, []).append(question)
            for category, members in by_cat.items():
                degraded = sum(perceptions[q.qid] for q in members)
                baseline = sum(native[q.qid] for q in members)
                ratio = degraded / baseline if baseline > 0 else 1.0
                multiplier[category] = rate_scaling(min(1.0, ratio))
        abilities = abilities_from_rates(rates)
        return plan_outcomes(self.name, abilities, rates, questions,
                             perceptions, multiplier)

    def answer_all(self, questions: Sequence[Question], setting: str,
                   resolution_factor: int = 1,
                   use_raster: bool = True) -> List[ModelAnswer]:
        """Answer every question under one evaluation setting.

        Perception is a single pass: the per-question map is computed
        once, threaded into the outcome plan and reused for every
        answer, so the encoder perceives each (question, factor) exactly
        once per run.  (A degraded-resolution run additionally perceives
        each question once at native resolution inside :meth:`plan` —
        a different factor, hence a separate pass.)
        """
        perceptions = self._perceptions(questions, resolution_factor,
                                        use_raster)
        plan = self.plan(questions, setting, resolution_factor, use_raster,
                         perceptions=perceptions)
        return [
            self._answer_one(question, plan, perceptions[question.qid])
            for question in questions
        ]

    def _answer_one(self, question: Question, plan: OutcomePlan,
                    perception: float) -> ModelAnswer:
        prompt = build_prompt(question, self.supports_system_prompt)
        correct = plan.is_correct(question.qid)
        if not correct and self.backbone.refuses(question):
            text = ""
        elif correct:
            text = self.backbone.phrase_correct(question, seed=self.name)
        else:
            text = self.backbone.phrase_incorrect(question, seed=self.name)
        return ModelAnswer(qid=question.qid, text=text,
                           planned_correct=correct,
                           perception=perception, prompt=prompt)
