"""Tests for the MC->SA challenge recast."""

from repro.core.question import (
    AnswerKind,
    Category,
    QuestionType,
    VisualContent,
    VisualType,
    make_mc_question,
)
from repro.core.transforms import to_short_answer


def _mc():
    return make_mc_question(
        "t-1", Category.DIGITAL, "Pick one.",
        VisualContent(VisualType.DIAGRAM, "d", legibility_scale=8.0),
        ("alpha", "beta", "gamma", "delta"), 2,
        answer_kind=AnswerKind.TEXT, aliases=("the third",), unit="")


class TestToShortAnswer:
    def test_prompt_unchanged(self):
        question = _mc()
        recast = to_short_answer(question)
        assert recast.prompt == question.prompt

    def test_choices_removed(self):
        recast = to_short_answer(_mc())
        assert recast.question_type is QuestionType.SHORT_ANSWER
        assert recast.choices == ()
        assert recast.correct_choice == -1

    def test_gold_becomes_option_text(self):
        recast = to_short_answer(_mc())
        assert recast.answer.text == "gamma"

    def test_aliases_preserved(self):
        recast = to_short_answer(_mc())
        assert "the third" in recast.answer.aliases

    def test_choice_kind_degrades_to_text(self):
        question = make_mc_question(
            "t-2", Category.DIGITAL, "p",
            VisualContent(VisualType.TABLE, "t"),
            ("1", "2", "3", "4"), 0, answer_kind=AnswerKind.CHOICE)
        recast = to_short_answer(question)
        assert recast.answer.kind is AnswerKind.TEXT

    def test_sa_passes_through(self):
        recast = to_short_answer(_mc())
        assert to_short_answer(recast) is recast

    def test_challenge_collection_is_all_sa(self, chipvqa_challenge):
        assert all(q.question_type is QuestionType.SHORT_ANSWER
                   for q in chipvqa_challenge)

    def test_challenge_same_size_and_prompts(self, chipvqa,
                                             chipvqa_challenge):
        assert len(chipvqa_challenge) == len(chipvqa)
        for original, recast in zip(chipvqa, chipvqa_challenge):
            assert recast.prompt == original.prompt
