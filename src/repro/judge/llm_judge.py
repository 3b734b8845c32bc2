"""The hybrid evaluation flow: auto-judge plus manual-check escalation.

The paper's evaluation (Section IV) prompts GPT-4 with a system prompt to
return a binary equivalence verdict, and escalates questions that need the
original prompt/visual context to human annotators.  Offline, the
"GPT-4 judge" is :class:`AutoJudge`, whose decision procedure is the
deterministic equivalence engine in :mod:`repro.judge.equivalence`; the
manual path is an explicit registry of per-question verdict overrides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.prompts import JUDGE_SYSTEM_PROMPT, judge_prompt
from repro.core.question import Question
from repro.judge.equivalence import answers_equivalent
from repro.judge.manual import ManualCheckRegistry


@dataclass(frozen=True)
class Verdict:
    """Outcome of judging one response."""

    correct: bool
    method: str            # "auto" or "manual"
    rationale: str = ""


class AutoJudge:
    """Binary-equivalence judge with the paper's YES/NO contract.

    ``transcript`` retains the (system, user, verdict) triples that a real
    GPT-4 deployment would log, so the prompt plumbing is exercised and
    inspectable in tests.
    """

    def __init__(self, keep_transcript: bool = False):
        self.keep_transcript = keep_transcript
        self.transcript: list = []

    def judge(self, question: Question, response: str) -> Verdict:
        correct = answers_equivalent(question, response)
        if self.keep_transcript:
            self.transcript.append({
                "system": JUDGE_SYSTEM_PROMPT,
                "user": judge_prompt(question.gold_text, response),
                "verdict": "YES" if correct else "NO",
            })
        return Verdict(correct=correct, method="auto",
                       rationale="equivalence engine")


class HybridJudge:
    """Auto-evaluation with manual-check overrides, as in the paper.

    Questions flagged ``requires_manual_check`` (or with a registered
    override) are resolved from the :class:`ManualCheckRegistry`; all
    others go through the auto judge.
    """

    def __init__(self, manual: Optional[ManualCheckRegistry] = None,
                 keep_transcript: bool = False):
        self.auto = AutoJudge(keep_transcript=keep_transcript)
        self.manual = manual or ManualCheckRegistry()

    def judge(self, question: Question, response: str) -> Verdict:
        manual_verdict = self.manual.lookup(question.qid, response)
        if manual_verdict is not None:
            return Verdict(correct=manual_verdict, method="manual",
                           rationale="annotator override")
        if question.answer.requires_manual_check:
            # unresolved manual questions default to a strict auto check
            auto = self.auto.judge(question, response)
            return Verdict(correct=auto.correct, method="manual",
                           rationale="manual-flagged, auto fallback")
        return self.auto.judge(question, response)
