"""Core: question schema, dataset, benchmark assembly, harness, metrics."""

from repro.core import collection, fewshot, perfstats, significance
from repro.core.benchmark import (
    BenchmarkIntegrityError,
    build_chipvqa,
    build_chipvqa_challenge,
    validate_chipvqa,
)
from repro.core.dataset import Dataset, TokenStats
from repro.core.faults import (
    ChaosCheckpointWriter,
    FaultBoundary,
    LatencyBoundary,
    PermanentError,
    SimulatedCrash,
    TransientModelError,
)
from repro.core.harness import EvaluationHarness, run_table2
from repro.core.metrics import EvalRecord, EvalResult
from repro.core.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    QuarantinePolicy,
    Watchdog,
)
from repro.core.runcache import RunCache, question_key
from repro.core.runner import (
    ParallelRunner,
    RetryPolicy,
    RunOutcome,
    RunStats,
    WorkUnit,
)
from repro.core.question import (
    AnswerKind,
    AnswerSpec,
    Category,
    Question,
    QuestionType,
    VisualContent,
    VisualType,
)
from repro.core.transforms import to_short_answer

__all__ = [
    "AnswerKind",
    "collection",
    "fewshot",
    "perfstats",
    "significance",
    "AnswerSpec",
    "BenchmarkIntegrityError",
    "Category",
    "ChaosCheckpointWriter",
    "CircuitBreaker",
    "CircuitOpenError",
    "Dataset",
    "Deadline",
    "DeadlineExceeded",
    "QuarantinePolicy",
    "SimulatedCrash",
    "Watchdog",
    "EvalRecord",
    "EvalResult",
    "EvaluationHarness",
    "FaultBoundary",
    "LatencyBoundary",
    "ParallelRunner",
    "PermanentError",
    "Question",
    "RetryPolicy",
    "RunCache",
    "RunOutcome",
    "RunStats",
    "TransientModelError",
    "WorkUnit",
    "question_key",
    "QuestionType",
    "TokenStats",
    "VisualContent",
    "VisualType",
    "build_chipvqa",
    "build_chipvqa_challenge",
    "run_table2",
    "to_short_answer",
    "validate_chipvqa",
]
