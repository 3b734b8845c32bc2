"""Answer-equivalence decision procedures, one per :class:`AnswerKind`."""

from __future__ import annotations

import math

from repro.core.question import AnswerKind, AnswerSpec, Question
from repro.digital.expr import equivalent_text
from repro.judge.normalize import (
    contains_phrase,
    extract_option_letter,
    normalize_text,
    parse_number_with_unit,
    strip_leadin,
)


def numeric_equivalent(gold: str, response: str, rel_tol: float = 0.02,
                       unit_hint: str = "") -> bool:
    """Compare numeric answers with unit folding and relative tolerance.

    When the response omits its unit, the gold's unit (or the question's
    ``unit_hint``) is assumed — matching how human graders read "2.5"
    against a gold of "2.5 ns".
    """
    gold_parsed = parse_number_with_unit(gold)
    resp_parsed = parse_number_with_unit(response)
    if gold_parsed is None or resp_parsed is None:
        return False
    if gold_parsed[1] == "" and unit_hint:
        # the gold's surface form omits its unit; graders read it with the
        # question's declared unit attached
        hinted = parse_number_with_unit(f"{gold} {unit_hint}")
        if hinted is not None:
            gold_parsed = hinted
    gold_value, gold_unit = gold_parsed
    resp_value, resp_unit = resp_parsed
    if not resp_unit and (gold_unit or unit_hint):
        # unitless response: accept it against the gold's magnitude both
        # in SI terms and at the gold's displayed scale
        gold_display = _displayed_value(gold)
        if _close(resp_value, gold_display, rel_tol):
            return True
    if gold_unit and resp_unit and gold_unit != resp_unit:
        return False
    return _close(resp_value, gold_value, rel_tol)


def _displayed_value(text: str) -> float:
    from repro.judge.normalize import numbers_in

    numbers = numbers_in(text)
    return numbers[0] if numbers else float("nan")


def _close(a: float, b: float, rel_tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return False
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=1e-12)


def text_equivalent(gold: str, response: str,
                    aliases: tuple = ()) -> bool:
    """Normalised-text match against the gold or any alias.

    A containment rule accepts verbose responses ("it is a half adder")
    when the normalised gold appears as a whole phrase, provided the gold
    is long enough to be unambiguous.
    """
    norm_response = normalize_text(response)
    stripped_response = normalize_text(strip_leadin(response))
    candidates = [gold, *aliases]
    for candidate in candidates:
        norm_gold = normalize_text(candidate)
        if not norm_gold:
            continue
        if norm_gold in (norm_response, stripped_response):
            return True
        if len(norm_gold) >= 4 and contains_phrase(norm_response, norm_gold):
            return True
    return False


def boolean_equivalent(gold: str, response: str) -> bool:
    """Boolean-expression equivalence via exhaustive truth tables.

    Falls back to normalised text comparison when either side fails to
    parse (e.g. prose answers).
    """
    # strip leading "Q+ =" style prefixes handled by the parser itself
    if equivalent_text(gold, response):
        return True
    return normalize_text(gold) == normalize_text(response)


def choice_equivalent(question: Question, response: str) -> bool:
    """Does an MC response designate the correct option?

    Accepts the option letter in common phrasings, the full option text,
    or any registered alias of the gold answer.
    """
    letter = extract_option_letter(response)
    if letter is not None:
        # bare letters always designate options; benchmark questions whose
        # option *texts* are single letters align text with position
        return letter == question.gold_letter
    gold_text = question.choices[question.correct_choice]
    if text_equivalent(gold_text, response, question.answer.aliases):
        # guard: the response must not equally match a distractor
        for index, choice in enumerate(question.choices):
            if index != question.correct_choice and \
                    normalize_text(choice) == normalize_text(response):
                return False
        return True
    # numeric options ("4.4" vs "4.40 ns") compare numerically
    spec = question.answer
    if spec.kind in (AnswerKind.NUMERIC, AnswerKind.CHOICE):
        if numeric_equivalent(gold_text, response, spec.rel_tol, spec.unit):
            for index, choice in enumerate(question.choices):
                if index != question.correct_choice and numeric_equivalent(
                        choice, response, spec.rel_tol, spec.unit):
                    return False  # ambiguous between options
            return True
    if spec.kind is AnswerKind.BOOLEAN_EXPR:
        return boolean_equivalent(gold_text, response)
    return False


def answers_equivalent(question: Question, response: str) -> bool:
    """Top-level equivalence: dispatch on the question's answer kind."""
    if not response or not response.strip():
        return False
    spec: AnswerSpec = question.answer
    if question.is_multiple_choice:
        return choice_equivalent(question, response)
    if response == spec.text and normalize_text(response):
        # reflexive fast path: a non-MC response that *is* the gold
        # surface form verbatim is equivalent by definition — every
        # kind's decision procedure below answers True for gold-vs-gold
        # — so skip the parse/normalise pipeline entirely.  (MC stays
        # on the full path: its distractor-ambiguity guard can veto.)
        return True
    gold = spec.text
    if spec.kind is AnswerKind.NUMERIC:
        if numeric_equivalent(gold, response, spec.rel_tol, spec.unit):
            return True
        return text_equivalent(gold, response, spec.aliases)
    if spec.kind is AnswerKind.BOOLEAN_EXPR:
        if boolean_equivalent(gold, response):
            return True
        return text_equivalent(gold, response, spec.aliases)
    return text_equivalent(gold, response, spec.aliases)
