"""Evaluation records and pass@1 metrics with per-category breakdowns."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.question import Category


@dataclass(frozen=True)
class EvalRecord:
    """One judged model response."""

    qid: str
    category: Category
    response: str
    correct: bool
    judge_method: str = "auto"
    perception: float = 1.0


@dataclass
class EvalResult:
    """All records of one (model, dataset, setting) evaluation run.

    ``resolution_factor`` pins the Section IV-B axis the run used, and
    ``telemetry`` optionally carries runner-emitted measurements
    (wall time, retry counts, cache hits — see ``docs/RUNNER.md``).
    Both round-trip through :mod:`repro.core.results_io`.
    """

    model_name: str
    dataset_name: str
    setting: str
    records: List[EvalRecord] = field(default_factory=list)
    resolution_factor: int = 1
    telemetry: Optional[Dict[str, float]] = None

    def add(self, record: EvalRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # -- pass@1 ---------------------------------------------------------------

    def pass_at_1(self) -> float:
        """Overall pass@1 (fraction of correct first attempts)."""
        if not self.records:
            raise ValueError("no records")
        return sum(r.correct for r in self.records) / len(self.records)

    def pass_at_1_by_category(self) -> Dict[Category, float]:
        buckets: Dict[Category, List[bool]] = {}
        for record in self.records:
            buckets.setdefault(record.category, []).append(record.correct)
        return {
            category: sum(flags) / len(flags)
            for category, flags in buckets.items()
        }

    def correct_count(self) -> int:
        return sum(r.correct for r in self.records)

    def category_counts(self) -> Dict[Category, Tuple[int, int]]:
        """(correct, total) per category."""
        buckets: Dict[Category, List[bool]] = {}
        for record in self.records:
            buckets.setdefault(record.category, []).append(record.correct)
        return {
            category: (sum(flags), len(flags))
            for category, flags in buckets.items()
        }

    def row(self, categories: Sequence[Category]) -> List[float]:
        """Per-category pass@1 followed by the overall rate (a Table II row)."""
        by_category = self.pass_at_1_by_category()
        values = [by_category.get(c, 0.0) for c in categories]
        values.append(self.pass_at_1())
        return values

    def manual_check_count(self) -> int:
        return sum(1 for r in self.records if r.judge_method == "manual")

    def quarantined_count(self) -> int:
        """Questions salvaged by quarantine (``judge_method ==
        "quarantined"``); always counted incorrect — see
        :mod:`repro.core.resilience`."""
        return sum(1 for r in self.records
                   if r.judge_method == "quarantined")


def pass_at_k(n: int, c: int, k: int) -> float:
    """The unbiased pass@k estimator of Chen et al. (2021).

    Given ``n`` independent samples of which ``c`` were correct, the
    probability that at least one of ``k`` uniformly drawn samples is
    correct is ``1 - C(n-c, k) / C(n, k)``, computed exactly with
    integer binomials (no floating-point product drift).  ``k`` is
    clamped to ``n`` — with fewer samples than ``k`` the estimate
    degrades to pass@n, the standard convention for ragged sweeps.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0 <= c <= n:
        raise ValueError(f"correct count {c} outside [0, {n}]")
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, n)
    if c == 0:
        return 0.0
    if n - c < k:
        return 1.0
    return 1.0 - math.comb(n - c, k) / math.comb(n, k)


@dataclass
class MultiSampleResult:
    """All samples of one (model, dataset, setting) multi-sample sweep.

    ``samples[s]`` holds sample ``s``'s records for the same question
    sequence (every sample evaluates every question; the runner's
    sample-salted providers re-roll the per-question jitter while
    keeping the model's calibration).  Aggregates the per-question
    correct counts into unbiased :func:`pass_at_k` and majority-vote
    ``consensus@k`` scores.
    """

    model_name: str
    dataset_name: str
    setting: str
    samples: List[EvalResult] = field(default_factory=list)

    def add_sample(self, result: EvalResult) -> None:
        """Append one sample's :class:`EvalResult`."""
        self.samples.append(result)

    @property
    def sample_count(self) -> int:
        """Number of samples collected."""
        return len(self.samples)

    @property
    def question_count(self) -> int:
        """Number of questions per sample."""
        return len(self.samples[0].records) if self.samples else 0

    def _check(self) -> None:
        if not self.samples:
            raise ValueError("no samples")
        counts = {len(s.records) for s in self.samples}
        if len(counts) != 1:
            raise ValueError(
                f"ragged samples: record counts {sorted(counts)}")

    def _per_question(self) -> List[Tuple[EvalRecord, int]]:
        """(first-sample record, correct-count) per question position."""
        self._check()
        pairs = []
        for i, record in enumerate(self.samples[0].records):
            correct = sum(s.records[i].correct for s in self.samples)
            pairs.append((record, correct))
        return pairs

    def pass_at_k(self, k: int) -> float:
        """Mean unbiased pass@k over questions (n = sample count)."""
        pairs = self._per_question()
        n = self.sample_count
        return sum(pass_at_k(n, c, k) for _, c in pairs) / len(pairs)

    def pass_at_k_by_category(self, k: int) -> Dict[Category, float]:
        """Per-category mean unbiased pass@k."""
        buckets: Dict[Category, List[float]] = {}
        n = self.sample_count
        for record, c in self._per_question():
            buckets.setdefault(record.category, []).append(
                pass_at_k(n, c, k))
        return {category: sum(scores) / len(scores)
                for category, scores in buckets.items()}

    def consensus_at_k(self, k: Optional[int] = None) -> float:
        """Majority-vote accuracy over the first ``k`` samples.

        Per question, the most frequent response string across samples
        wins (ties break toward the earliest-appearing response); the
        question scores correct iff a sample giving the winning
        response was judged correct.  ``k=None`` uses every sample.
        """
        self._check()
        k = self.sample_count if k is None else min(k, self.sample_count)
        if k < 1:
            raise ValueError("k must be >= 1")
        used = self.samples[:k]
        total = len(used[0].records)
        score = 0
        for i in range(total):
            votes: Dict[str, int] = {}
            verdicts: Dict[str, bool] = {}
            for sample in used:
                record = sample.records[i]
                votes[record.response] = votes.get(record.response, 0) + 1
                verdicts.setdefault(record.response, record.correct)
            winner = max(votes, key=lambda r: (votes[r],
                                               -list(votes).index(r)))
            score += verdicts[winner]
        return score / total

    def as_dict(self, ks: Sequence[int] = (1, 5)) -> Dict[str, object]:
        """JSON-serialisable summary (results_io artifacts, manifests)."""
        usable = [k for k in ks if k >= 1]
        return {
            "model": self.model_name,
            "dataset": self.dataset_name,
            "setting": self.setting,
            "samples": self.sample_count,
            "questions": self.question_count,
            "pass_at_k": {str(k): self.pass_at_k(k) for k in usable},
            "consensus_at_k": {
                str(k): self.consensus_at_k(k) for k in usable},
        }


def mc_sa_gap(with_choice: EvalResult, no_choice: EvalResult) -> float:
    """The 'MC-as-RAG' gap: pass@1 drop when options are removed."""
    return with_choice.pass_at_1() - no_choice.pass_at_1()


def agreement(a: Sequence[bool], b: Sequence[bool]) -> float:
    """Fraction of positions where two verdict vectors agree."""
    if len(a) != len(b) or not a:
        raise ValueError("vectors must be equal-length and non-empty")
    return sum(x == y for x, y in zip(a, b)) / len(a)


def spearman_rank_correlation(x: Sequence[float],
                              y: Sequence[float]) -> float:
    """Spearman rho — used by the backbone-scaling ablation."""
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need two equal-length sequences of >= 2 points")

    def ranks(values: Sequence[float]) -> List[float]:
        order = sorted(range(len(values)), key=lambda i: values[i])
        result = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while (j + 1 < len(order)
                   and values[order[j + 1]] == values[order[i]]):
                j += 1
            mean_rank = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                result[order[k]] = mean_rank
            i = j + 1
        return result

    rank_x = ranks(x)
    rank_y = ranks(y)
    mean_x = sum(rank_x) / len(rank_x)
    mean_y = sum(rank_y) / len(rank_y)
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rank_x, rank_y))
    var_x = sum((a - mean_x) ** 2 for a in rank_x)
    var_y = sum((b - mean_y) ** 2 for b in rank_y)
    if var_x == 0 or var_y == 0:
        raise ValueError("constant sequence has no rank correlation")
    return cov / math.sqrt(var_x * var_y)
