"""The chip-designer agent: a text-only LLM orchestrating the vision tool.

Reproduces Section IV-C's proof-of-concept: a GPT-4-Turbo "chip designer"
without visual access interprets the question, invokes the describe-image
tool when the prompt references a figure, and answers from the description.
Outcome realisation uses the same quota-IRT machinery as the VLM zoo, with
description *fidelity* in place of pixel perception — which is what makes
the manufacturing category regress (structure/layout figures describe
poorly) even while overall accuracy improves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.prompts import question_user_prompt
from repro.core.question import Category, Question
from repro.agent.messages import Conversation, Role
from repro.agent.tools import VisionTool
from repro.models.irt import OutcomePlan, abilities_from_rates, plan_outcomes
from repro.models.llm import LlmBackbone
from repro.models.vlm import NO_CHOICE, WITH_CHOICE, ModelAnswer
from repro.core.prompts import build_prompt

DESIGNER_SYSTEM_PROMPT = (
    "You are an expert chip designer. You cannot see images. When the "
    "question references a figure, call the describe_image tool and "
    "reason from its description. Answer concisely."
)

#: Calibrated per-discipline pass rates of the agent system (Table III:
#: overall 0.49 with choice / 0.21 without; manufacturing regresses versus
#: plain GPT-4o, per the paper's Section IV-C discussion).
AGENT_RATES_WITH_CHOICE: Dict[Category, float] = {
    Category.DIGITAL: 0.57,
    Category.ANALOG: 0.57,
    Category.ARCHITECTURE: 0.35,
    Category.MANUFACTURING: 0.10,
    Category.PHYSICAL: 0.65,
}

AGENT_RATES_NO_CHOICE: Dict[Category, float] = {
    Category.DIGITAL: 0.23,
    Category.ANALOG: 0.11,
    Category.ARCHITECTURE: 0.20,
    Category.MANUFACTURING: 0.15,
    Category.PHYSICAL: 0.43,
}


@dataclass
class AgentTrace:
    """One question's conversation plus the final answer."""

    qid: str
    conversation: Conversation
    answer: str
    tool_calls: int


class ChipDesignerAgent:
    """Text-only designer + vision tool, evaluated like a VLM."""

    name = "agent-gpt4turbo+gpt4o"

    def __init__(self, tool: Optional[VisionTool] = None,
                 designer: Optional[LlmBackbone] = None):
        self.tool = tool or VisionTool()
        self.designer = designer or LlmBackbone(
            name="gpt-4-turbo", params_billion=175.0, text_ability=0.88)

    def config_payload(self) -> Dict[str, object]:
        """Configuration identity for provider fingerprinting.

        Consumed by :func:`repro.models.providers._model_config_payload`
        when the agent is wrapped in a
        :class:`~repro.models.providers.LocalProvider`, so an agent with
        a swapped designer backbone or tool backend never shares cache
        or checkpoint entries with the default configuration.
        """
        return {
            "kind": "chip-designer-agent",
            "name": self.name,
            "designer": {
                "name": self.designer.name,
                "params_billion": self.designer.params_billion,
                "text_ability": self.designer.text_ability,
            },
            "tool": self.tool.config_payload(),
            "followup_fidelity": self.FOLLOWUP_FIDELITY,
        }

    def _rates(self, setting: str) -> Mapping[Category, float]:
        if setting == WITH_CHOICE:
            return AGENT_RATES_WITH_CHOICE
        if setting == NO_CHOICE:
            return AGENT_RATES_NO_CHOICE
        raise ValueError(f"unknown setting {setting!r}")

    def plan(self, questions: Sequence[Question],
             setting: str) -> OutcomePlan:
        rates = self._rates(setting)
        fidelities = {q.qid: self.tool.fidelity(q) for q in questions}
        abilities = abilities_from_rates(rates)
        return plan_outcomes(self.name, abilities, rates, questions,
                             fidelities)

    #: Below this description fidelity the designer asks a follow-up.
    FOLLOWUP_FIDELITY = 0.75

    def solve(self, question: Question, plan: OutcomePlan) -> AgentTrace:
        """Run the conversation loop for one question.

        The paper describes the loop as iterative ("this interactive
        process repeats until the chip designer arrives at an answer"):
        when the first description carries the figure poorly (quantitative
        process figures), the designer issues a follow-up request for the
        annotations specifically — which still cannot restore pixel-level
        information, hence the manufacturing regression.
        """
        conversation = Conversation()
        conversation.add(Role.SYSTEM, DESIGNER_SYSTEM_PROMPT)
        conversation.add(Role.USER, question_user_prompt(question))
        # the designer has no eyes: a figure reference triggers a tool call
        tool_calls = 0
        if question.all_visuals:
            conversation.add(
                Role.ASSISTANT,
                f"I will consult the figure via {self.tool.name}.")
            description = self.tool.describe_question(question)
            conversation.add(Role.TOOL, description,
                             tool_name=self.tool.name)
            tool_calls = 1
            if self.tool.fidelity(question) < self.FOLLOWUP_FIDELITY:
                conversation.add(
                    Role.ASSISTANT,
                    "The description omits dimensions I need; please "
                    "read out every annotation and measurement in the "
                    "figure.")
                conversation.add(
                    Role.TOOL,
                    "Annotations visible: "
                    + "; ".join(v.description for v in question.all_visuals),
                    tool_name=self.tool.name)
                tool_calls += 1
        correct = plan.is_correct(question.qid)
        if correct:
            answer = self.designer.phrase_correct(question, seed=self.name)
        else:
            answer = self.designer.phrase_incorrect(question, seed=self.name)
        conversation.add(Role.ASSISTANT, answer)
        return AgentTrace(qid=question.qid, conversation=conversation,
                          answer=answer, tool_calls=tool_calls)

    # -- harness-compatible interface -------------------------------------------

    def answer_all(self, questions: Sequence[Question], setting: str,
                   resolution_factor: int = 1,
                   use_raster: bool = True) -> List[ModelAnswer]:
        """Answer a dataset; signature-compatible with ``SimulatedVLM``.

        The agent never looks at pixels, so the resolution factor is
        irrelevant to it (a property the harness can exploit in ablations).
        """
        plan = self.plan(questions, setting)
        answers: List[ModelAnswer] = []
        for question in questions:
            trace = self.solve(question, plan)
            answers.append(ModelAnswer(
                qid=question.qid,
                text=trace.answer,
                planned_correct=plan.is_correct(question.qid),
                perception=self.tool.fidelity(question),
                prompt=build_prompt(question, True),
            ))
        return answers
