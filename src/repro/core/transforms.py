"""Dataset transforms: the MC->SA challenge recast."""

from __future__ import annotations

import dataclasses

from repro.core.question import (
    AnswerKind,
    AnswerSpec,
    Question,
    QuestionType,
)


def to_short_answer(question: Question) -> Question:
    """Recast a multiple-choice question as short-answer.

    The prompt stays identical (per Section IV-A of the paper: "the
    prompts remain unchanged, but all answer choices were removed"); the
    gold answer becomes the full text of the correct option.  Short-answer
    questions pass through untouched.
    """
    if question.question_type is QuestionType.SHORT_ANSWER:
        return question
    gold = question.choices[question.correct_choice]
    # Keep the original comparison semantics (numeric/boolean/text) so the
    # judge can still score free-form responses; CHOICE kind degrades to
    # TEXT because there is no option letter to extract any more.
    kind = question.answer.kind
    if kind is AnswerKind.CHOICE:
        kind = AnswerKind.TEXT
    answer = AnswerSpec(
        kind=kind,
        text=gold,
        aliases=question.answer.aliases,
        unit=question.answer.unit,
        rel_tol=question.answer.rel_tol,
        variables=question.answer.variables,
        requires_manual_check=question.answer.requires_manual_check,
    )
    return dataclasses.replace(
        question,
        question_type=QuestionType.SHORT_ANSWER,
        choices=(),
        correct_choice=-1,
        answer=answer,
    )
