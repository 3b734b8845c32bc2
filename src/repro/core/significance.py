"""Statistical significance for model comparisons on a shared question set.

Benchmark papers compare models on the *same* 142 questions, so paired
tests are the right tool: McNemar's exact test on the discordant pairs and
a paired-bootstrap confidence interval on the pass@1 difference.  Both are
implemented from first principles (no scipy dependency at runtime).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.metrics import EvalResult


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of comparing two models question-by-question."""

    model_a: str
    model_b: str
    both_correct: int
    both_wrong: int
    only_a: int     # A correct, B wrong
    only_b: int     # B correct, A wrong
    p_value: float  # McNemar exact (two-sided)
    diff: float     # pass@1(A) - pass@1(B)
    ci_low: float
    ci_high: float

    @property
    def n(self) -> int:
        return (self.both_correct + self.both_wrong
                + self.only_a + self.only_b)

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05

    def summary(self) -> str:
        verdict = "significant" if self.significant else "not significant"
        return (f"{self.model_a} vs {self.model_b}: "
                f"diff={self.diff:+.3f} "
                f"[{self.ci_low:+.3f}, {self.ci_high:+.3f}], "
                f"McNemar p={self.p_value:.4f} ({verdict})")


def _binom_two_sided_p(k: int, n: int) -> float:
    """Two-sided exact binomial p-value at p=0.5 (McNemar's exact test)."""
    if n == 0:
        return 1.0
    tail = min(k, n - k)
    cumulative = 0.0
    for i in range(tail + 1):
        cumulative += math.comb(n, i)
    p = 2.0 * cumulative / (2.0 ** n)
    return min(1.0, p)


def _aligned_flags(a: EvalResult, b: EvalResult) -> Tuple[List[bool], List[bool]]:
    by_qid_a = {r.qid: r.correct for r in a.records}
    by_qid_b = {r.qid: r.correct for r in b.records}
    if set(by_qid_a) != set(by_qid_b):
        raise ValueError("results cover different question sets")
    qids = sorted(by_qid_a)
    return ([by_qid_a[q] for q in qids], [by_qid_b[q] for q in qids])


def mcnemar(a: EvalResult, b: EvalResult) -> Tuple[int, int, float]:
    """(only-A-correct, only-B-correct, exact two-sided p) on shared qids."""
    flags_a, flags_b = _aligned_flags(a, b)
    only_a = sum(1 for x, y in zip(flags_a, flags_b) if x and not y)
    only_b = sum(1 for x, y in zip(flags_a, flags_b) if y and not x)
    return only_a, only_b, _binom_two_sided_p(only_a, only_a + only_b)


def paired_bootstrap_diff(a: EvalResult, b: EvalResult,
                          confidence: float = 0.95, resamples: int = 4000,
                          seed: int = 13) -> Tuple[float, float]:
    """CI of pass@1(A) - pass@1(B) by resampling questions jointly."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    flags_a, flags_b = _aligned_flags(a, b)
    n = len(flags_a)
    rng = random.Random(seed)
    diffs = []
    for _ in range(resamples):
        indices = [rng.randrange(n) for _ in range(n)]
        diff = sum(flags_a[i] for i in indices) \
            - sum(flags_b[i] for i in indices)
        diffs.append(diff / n)
    diffs.sort()
    alpha = (1.0 - confidence) / 2.0
    low = diffs[int(alpha * resamples)]
    high = diffs[min(resamples - 1, int((1.0 - alpha) * resamples))]
    return low, high


def compare(a: EvalResult, b: EvalResult) -> PairedComparison:
    """Full paired comparison of two evaluation runs."""
    flags_a, flags_b = _aligned_flags(a, b)
    only_a, only_b, p_value = mcnemar(a, b)
    ci_low, ci_high = paired_bootstrap_diff(a, b)
    return PairedComparison(
        model_a=a.model_name,
        model_b=b.model_name,
        both_correct=sum(1 for x, y in zip(flags_a, flags_b) if x and y),
        both_wrong=sum(1 for x, y in zip(flags_a, flags_b)
                       if not x and not y),
        only_a=only_a,
        only_b=only_b,
        p_value=p_value,
        diff=(sum(flags_a) - sum(flags_b)) / len(flags_a),
        ci_low=ci_low,
        ci_high=ci_high,
    )
