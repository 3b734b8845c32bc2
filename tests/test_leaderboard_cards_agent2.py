"""Tests for question cards and the agent's follow-up tool-call
behaviour."""

import pytest

from repro.agent import ChipDesignerAgent
from repro.agent.messages import Role
from repro.core.question import Category
from repro.models import WITH_CHOICE
from repro.visual.export import _wrap, render_question_card


class TestQuestionCards:
    def test_card_contains_figure(self, chipvqa):
        question = chipvqa.get("dig-01")
        card = render_question_card(question)
        assert card.shape[1] >= question.visual.width
        assert (card < 255).mean() > 0.005

    def test_sa_card_has_no_options(self, chipvqa):
        mc = render_question_card(chipvqa.get("ana-01"))
        sa = render_question_card(chipvqa.get("mfg-02"))
        # MC cards are taller relative to their figure (options appended)
        assert mc.shape[0] - 384 > sa.shape[0] - 384 - 40

    def test_wrap_respects_width(self):
        lines = _wrap("one two three four five six seven", 12)
        assert all(len(line) <= 12 for line in lines)
        assert " ".join(lines) == "one two three four five six seven"

    def test_wrap_long_word(self):
        lines = _wrap("supercalifragilistic", 5)
        assert lines == ["supercalifragilistic"]


class TestAgentFollowups:
    def test_low_fidelity_triggers_followup(self, chipvqa):
        agent = ChipDesignerAgent()
        plan = agent.plan(list(chipvqa), WITH_CHOICE)
        layout_q = next(q for q in chipvqa
                        if q.category is Category.MANUFACTURING
                        and agent.tool.fidelity(q) <
                        ChipDesignerAgent.FOLLOWUP_FIDELITY)
        trace = agent.solve(layout_q, plan)
        assert trace.tool_calls == 2
        tool_messages = trace.conversation.tool_calls()
        assert len(tool_messages) == 2
        assert "Annotations" in tool_messages[1].content

    def test_high_fidelity_single_call(self, chipvqa):
        agent = ChipDesignerAgent()
        plan = agent.plan(list(chipvqa), WITH_CHOICE)
        diagram_q = next(q for q in chipvqa
                         if agent.tool.fidelity(q) >= 0.9)
        trace = agent.solve(diagram_q, plan)
        assert trace.tool_calls == 1

    def test_followups_do_not_change_table3(self):
        """The follow-up is conversational realism; calibration holds."""
        from repro.agent import run_table3

        results = run_table3()
        assert results["agent"]["with_choice"].pass_at_1() == \
            pytest.approx(0.49, abs=0.01)
