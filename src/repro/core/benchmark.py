"""ChipVQA benchmark assembly and structural validation.

:func:`build_chipvqa` gathers the five per-discipline generators into the
142-question standard collection and validates every Table I constraint
(category counts, MC/SA split, visual-type counts).  The "challenge
collection" — all multiple-choice questions replaced by short-answer ones —
is produced by :func:`build_chipvqa_challenge` via
:mod:`repro.core.transforms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional

from repro.core import perfstats
from repro.core.dataset import Dataset
from repro.core.question import (
    CATEGORY_COUNTS,
    CATEGORY_MC_COUNTS,
    Category,
    Question,
    QuestionType,
    TOTAL_MULTIPLE_CHOICE,
    TOTAL_QUESTIONS,
    TOTAL_SHORT_ANSWER,
    VISUAL_TYPE_COUNTS,
    VisualType,
)


def _all_questions() -> List[Question]:
    # imports are local so `repro.core` stays importable without the
    # discipline packages (and to avoid import cycles at package init).
    from repro.analog import generate_analog_questions
    from repro.arch import generate_architecture_questions
    from repro.digital import generate_digital_questions
    from repro.manufacturing import generate_manufacturing_questions
    from repro.physical import generate_physical_questions

    questions: List[Question] = []
    questions += generate_digital_questions()
    questions += generate_analog_questions()
    questions += generate_architecture_questions()
    questions += generate_manufacturing_questions()
    questions += generate_physical_questions()
    return questions


class BenchmarkIntegrityError(AssertionError):
    """The assembled benchmark violates a Table I constraint."""


@dataclass(frozen=True)
class BuildExpectations:
    """Structural constraints a built collection must satisfy.

    Validation is a property of the *build spec*, not of a single
    global constant: the canonical 142-question build checks the
    Table I counts verbatim (:meth:`table1`), while an ``n``-question
    scaled build checks the exact composition implied by the
    interleaved scaling scheme (:meth:`scaled`).
    """

    total: int
    type_counts: Mapping[QuestionType, int]
    category_counts: Mapping[Category, int]
    category_mc_counts: Mapping[Category, int]
    visual_type_counts: Optional[Mapping[VisualType, int]] = None

    @classmethod
    def table1(cls) -> "BuildExpectations":
        """The canonical Table I constraints (142 questions)."""
        return cls(
            total=TOTAL_QUESTIONS,
            type_counts={
                QuestionType.MULTIPLE_CHOICE: TOTAL_MULTIPLE_CHOICE,
                QuestionType.SHORT_ANSWER: TOTAL_SHORT_ANSWER,
            },
            category_counts=dict(CATEGORY_COUNTS),
            category_mc_counts=dict(CATEGORY_MC_COUNTS),
            visual_type_counts=dict(VISUAL_TYPE_COUNTS),
        )

    @classmethod
    def scaled(cls, total: int) -> "BuildExpectations":
        """Exact expectations of an ``n``-question scaled build."""
        from repro.core.databuild import expected_composition

        composition = expected_composition(total)
        return cls(
            total=composition.total,
            type_counts=composition.type_counts,
            category_counts=composition.category_counts,
            category_mc_counts=composition.category_mc_counts,
            visual_type_counts=composition.visual_type_counts,
        )


def validate_chipvqa(
    dataset: Dataset,
    expectations: Optional[BuildExpectations] = None,
) -> None:
    """Check a build's structural constraints; raise on drift.

    With no ``expectations`` the canonical Table I constraints apply
    (exactly the historical behaviour, including error messages).
    """
    spec = expectations or BuildExpectations.table1()
    if len(dataset) != spec.total:
        raise BenchmarkIntegrityError(
            f"expected {spec.total} questions, got {len(dataset)}")
    type_counts = dataset.type_counts()
    expected_mc = spec.type_counts.get(QuestionType.MULTIPLE_CHOICE, 0)
    if type_counts[QuestionType.MULTIPLE_CHOICE] != expected_mc:
        raise BenchmarkIntegrityError(
            f"expected {expected_mc} MC questions, got "
            f"{type_counts[QuestionType.MULTIPLE_CHOICE]}")
    expected_sa = spec.type_counts.get(QuestionType.SHORT_ANSWER, 0)
    if type_counts[QuestionType.SHORT_ANSWER] != expected_sa:
        raise BenchmarkIntegrityError(
            f"expected {expected_sa} SA questions, got "
            f"{type_counts[QuestionType.SHORT_ANSWER]}")
    for category, expected in spec.category_counts.items():
        actual = dataset.category_counts()[category]
        if actual != expected:
            raise BenchmarkIntegrityError(
                f"{category.short}: expected {expected} questions, got "
                f"{actual}")
    for category, expected in spec.category_mc_counts.items():
        actual = dataset.mc_counts_by_category()[category]
        if actual != expected:
            raise BenchmarkIntegrityError(
                f"{category.short}: expected {expected} MC questions, got "
                f"{actual}")
    if spec.visual_type_counts is not None:
        visual_counts = dataset.visual_counts()
        for visual_type, expected in spec.visual_type_counts.items():
            actual = visual_counts.get(visual_type, 0)
            if actual != expected:
                raise BenchmarkIntegrityError(
                    f"visual {visual_type.value!r}: expected {expected}, got "
                    f"{actual}")


#: Content-frozen dataset cache.  Both collections are deterministic
#: pure builds (the generators are seeded), so one assembled ``Dataset``
#: per name serves every harness, runner thread and CLI invocation; a
#: duplicate build under a thread race produces an identical dataset and
#: is benign.  Counters are exported via :mod:`repro.core.perfstats`.
_DATASET_CACHE = perfstats.LruCache(capacity=8, name="dataset")


def build_chipvqa(validate: bool = True) -> Dataset:
    """The 142-question ChipVQA standard collection (cached)."""
    dataset = _DATASET_CACHE.get("chipvqa")
    if dataset is None:
        dataset = Dataset(_all_questions(), name="chipvqa")
        dataset.build_spec = ("chipvqa",)
        if validate:
            validate_chipvqa(dataset)
        _DATASET_CACHE.put("chipvqa", dataset)
    return dataset


def build_chipvqa_challenge() -> Dataset:
    """The challenge collection: every MC question recast as short-answer.

    Prompts are unchanged; the answer options are simply removed, exactly
    as Section IV-A of the paper describes.  Cached like
    :func:`build_chipvqa` — the MC->SA transform no longer re-runs per
    call.
    """
    from repro.core.transforms import to_short_answer

    dataset = _DATASET_CACHE.get("chipvqa-challenge")
    if dataset is None:
        standard = build_chipvqa()
        dataset = standard.map(to_short_answer, name="chipvqa-challenge")
        dataset.build_spec = ("chipvqa-challenge",)
        _DATASET_CACHE.put("chipvqa-challenge", dataset)
    return dataset


def build_chipvqa_scaled(
    total: int,
    seed: int = 0,
    *,
    shard_size: Optional[int] = None,
    backend: Any = None,
    workers: int = 1,
    validate: bool = True,
    challenge: bool = False,
) -> Dataset:
    """An ``n``-question procedurally scaled ChipVQA collection.

    The global question sequence repeats the canonical collection in an
    interleaved order that preserves the Table I family proportions in
    every contiguous window; cycles beyond the first are seeded
    variants (fresh qids, permuted MC options, jittered difficulty)
    whose solver-derived gold answers are inherited unchanged.
    ``build_chipvqa_scaled(142, seed)`` therefore reproduces the seed
    dataset exactly, for every seed.

    Shards are built through the content-addressed build cache in
    :mod:`repro.core.databuild` — optionally in parallel across an
    executor ``backend`` — so warm rebuilds are near-free inside a
    scope with a disk tier (``--spill-dir``, or
    ``with perfstats.scope(spill_root)``).
    """
    from repro.core.databuild import build_scaled

    return build_scaled(
        total, seed, shard_size=shard_size, backend=backend,
        workers=workers, validate=validate, challenge=challenge)
