"""Parallel, fault-tolerant evaluation runner with checkpoint/resume.

The paper's protocol is a long sweep — 12 models x 2 settings x 142
questions plus a resolution study — and real sweeps of that shape are
latency-bound, failure-prone pipelines.  :class:`ParallelRunner` shards
the sweep into :class:`WorkUnit`\\ s (one (model, dataset, setting,
resolution) cell each), executes them across a thread pool, and wraps
every unit in the reliability machinery a production evaluation service
needs:

* **memoization** — judged per-question answers are cached
  content-keyed in a :class:`~repro.core.runcache.RunCache`, so a
  retried or repeated unit replays only unanswered questions;
* **retry with exponential backoff** — a
  :class:`~repro.core.faults.TransientModelError` escaping the
  pluggable fault boundary re-runs the unit after a growing delay; a
  :class:`~repro.core.faults.PermanentError` marks the unit failed and
  the rest of the run proceeds;
* **checkpoint/resume** — each completed
  :class:`~repro.core.metrics.EvalResult` is written through
  :mod:`repro.core.results_io` into ``run_dir`` together with a
  ``manifest.json`` progress file; a re-launched run loads intact
  checkpoints instead of re-evaluating, and detects truncated ones;
* **telemetry** — :class:`RunStats` records per-unit wall time, retry
  counts, cache hits and queue depth, aggregated into the manifest
  together with the run's own counts of the perception-substrate
  caches (render / legibility / perception / dataset), kept by the
  :func:`repro.core.perfstats.scope` each run opens, so cache
  effectiveness is visible in every run artifact;
* **resilience** — the :mod:`repro.core.resilience` layer: a per-model
  :class:`~repro.core.resilience.CircuitBreaker` fast-fails the
  remaining units of a repeatedly-failing model, per-unit deadlines
  (cooperative :class:`~repro.core.resilience.Deadline` checks at
  every boundary crossing plus a
  :class:`~repro.core.resilience.Watchdog` for wedged workers) resolve
  hung units as ``timed_out``, and a
  :class:`~repro.core.resilience.QuarantinePolicy` salvages a unit
  around its permanently-faulting questions.  Checkpoints are
  checksummed (``results_io`` format v2) and resume rejects corrupt or
  stale files, counting them in :class:`RunStats`.

Determinism is a hard guarantee: unit evaluations are pure (seeded
simulation + deterministic judge), so ``workers=1`` and ``workers=8``
produce byte-identical JSONL artifacts.  See ``docs/RUNNER.md`` and
``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, Dict, List, Optional, Sequence, TYPE_CHECKING,
)

from repro.core import executor as executor_mod
from repro.core import perfstats
from repro.core.dataset import Dataset
from repro.core.engine import (
    FAILURE_STATUSES,
    MANIFEST_FORMAT_VERSION,
    MANIFEST_NAME,
    EvalEngine,
)
from repro.core.faults import FaultBoundary
from repro.core.metrics import EvalResult
from repro.core.resilience import (
    AdmissionPolicy,
    CircuitBreaker,
    QuarantinePolicy,
    Watchdog,
)
from repro.core.runcache import RunCache
from repro.models.providers import (
    ModelProvider,
    as_provider,
    create_provider,
)

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from repro.core.harness import EvaluationHarness
    from repro.models.providers import AsyncCallScheduler

__all__ = [
    "FAILURE_STATUSES", "MANIFEST_FORMAT_VERSION", "MANIFEST_NAME",
    "ParallelRunner", "RetryPolicy", "RunOutcome", "RunStats",
    "UnitStats", "WorkUnit", "read_manifest",
]


def _slug(text: str) -> str:
    """Filesystem-safe token for checkpoint file names."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", text)


@dataclass(frozen=True)
class WorkUnit:
    """One shardable evaluation cell.

    ``model`` accepts any :class:`~repro.models.providers.ModelProvider`,
    a raw ``answer_all``-compatible model (wrapped in a
    :class:`~repro.models.providers.LocalProvider`), or a provider
    *registry name* (a string, resolved against the default registry) —
    the serializable form checkpoints and manifests reference.

    ``use_raster=None`` defers to the harness default; the resolution
    study pins it ``True`` per unit instead of rebuilding the harness.
    """

    model: "ModelProvider | str"
    dataset: Dataset
    setting: str
    resolution_factor: int = 1
    use_raster: Optional[bool] = None

    def __post_init__(self) -> None:
        resolved = (create_provider(self.model)
                    if isinstance(self.model, str)
                    else as_provider(self.model))
        object.__setattr__(self, "model", resolved)

    @property
    def provider(self) -> ModelProvider:
        """The unit's resolved model provider (``model`` post-coercion)."""
        return self.model  # type: ignore[return-value]

    @property
    def unit_id(self) -> str:
        """Stable identifier; doubles as the checkpoint file stem."""
        return "__".join((
            _slug(self.provider.name),
            _slug(self.dataset.name),
            _slug(self.setting),
            f"r{self.resolution_factor}",
        ))


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff around transient model faults."""

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(self.max_delay,
                   self.base_delay * self.multiplier ** (attempt - 1))


@dataclass
class UnitStats:
    """Telemetry of one work unit's lifecycle."""

    unit_id: str
    #: pending | completed | failed | resumed | fast_failed | timed_out
    status: str = "pending"
    attempts: int = 0
    retries: int = 0
    wall_time_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    queue_depth: int = 0         # units still unstarted when this one began
    quarantined: int = 0         # questions salvaged as judge_method=quarantined
    corrupt_checkpoints: int = 0  # resume files rejected: parse/checksum
    stale_checkpoints: int = 0    # resume files rejected: metadata mismatch
    worker_respawns: int = 0      # process-backend worker deaths absorbed
    node: Optional[str] = None    # coordinator node that committed the unit
    steals: int = 0               # times a lease on this unit was stolen
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "unit_id": self.unit_id,
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "wall_time_s": round(self.wall_time_s, 6),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "queue_depth": self.queue_depth,
            "quarantined": self.quarantined,
            "corrupt_checkpoints": self.corrupt_checkpoints,
            "stale_checkpoints": self.stale_checkpoints,
            "worker_respawns": self.worker_respawns,
            "node": self.node,
            "steals": self.steals,
            "error": self.error,
        }


class RunStats:
    """Aggregated run telemetry (thread-safe registry of unit stats);
    :attr:`perf` is the :func:`~repro.core.perfstats.scope` a driver
    runs in."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._units: Dict[str, UnitStats] = {}
        self.perf = perfstats.Scope()
        self._coordinator: Dict[str, int] = {}

    def unit(self, unit_id: str) -> UnitStats:
        with self._lock:
            if unit_id not in self._units:
                self._units[unit_id] = UnitStats(unit_id=unit_id)
            return self._units[unit_id]

    def units(self) -> List[UnitStats]:
        with self._lock:
            return list(self._units.values())

    def _count(self, status: str) -> int:
        return sum(1 for u in self.units() if u.status == status)

    @property
    def completed(self) -> int:
        return self._count("completed")

    @property
    def failed(self) -> int:
        return self._count("failed")

    @property
    def resumed(self) -> int:
        return self._count("resumed")

    @property
    def fast_failed(self) -> int:
        return self._count("fast_failed")

    @property
    def timed_out(self) -> int:
        return self._count("timed_out")

    @property
    def quarantined(self) -> int:
        return sum(u.quarantined for u in self.units())

    @property
    def corrupt_checkpoints(self) -> int:
        return sum(u.corrupt_checkpoints for u in self.units())

    @property
    def stale_checkpoints(self) -> int:
        return sum(u.stale_checkpoints for u in self.units())

    @property
    def total_retries(self) -> int:
        return sum(u.retries for u in self.units())

    @property
    def cache_hits(self) -> int:
        return sum(u.cache_hits for u in self.units())

    @property
    def cache_misses(self) -> int:
        return sum(u.cache_misses for u in self.units())

    def cache_hit_rate(self) -> float:
        """Fraction of per-question lookups served from the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def perf_caches(self) -> Dict[str, Dict[str, int]]:
        """This run's hit/miss/eviction counters of the perception-
        substrate caches and its stage timers, whichever threads or
        worker processes evaluated its units (:attr:`perf`'s snapshot)."""
        return self.perf.snapshot()

    def record_coordinator(self, counters: Dict[str, int]) -> None:
        """Attach the sweep coordinator's fleet counters (nodes lost,
        units stolen, lease expirations, commit accounting, shared-store
        traffic) to the run telemetry; they surface in :meth:`as_dict`
        (hence the manifest) and ``--cache-stats``."""
        with self._lock:
            self._coordinator = dict(counters)

    @property
    def coordinator(self) -> Dict[str, int]:
        """Fleet counters of a coordinated run (empty for plain runs)."""
        with self._lock:
            return dict(self._coordinator)

    def absorb(self, other: "RunStats") -> None:
        """Add another run's unit stats and fleet counters (a sweep
        window's).  Fleet counters are summed, except ``nodes``, which
        is the fleet width; cache counters are not touched, because a
        run's scope already folds into the scope enclosing it."""
        units, counters = other.units(), other.coordinator
        with self._lock:
            for unit in units:
                self._units[unit.unit_id] = unit
            for key, value in counters.items():
                self._coordinator[key] = (
                    value if key == "nodes"
                    else self._coordinator.get(key, 0) + value)

    def total_wall_time(self) -> float:
        return sum(u.wall_time_s for u in self.units())

    def as_dict(self) -> Dict[str, object]:
        coordinator = self.coordinator
        extra: Dict[str, object] = (
            {"coordinator": coordinator} if coordinator else {})
        return dict({
            "units": len(self.units()),
            "completed": self.completed,
            "failed": self.failed,
            "resumed": self.resumed,
            "fast_failed": self.fast_failed,
            "timed_out": self.timed_out,
            "quarantined": self.quarantined,
            "corrupt_checkpoints": self.corrupt_checkpoints,
            "stale_checkpoints": self.stale_checkpoints,
            "retries": self.total_retries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate(), 6),
            "wall_time_s": round(self.total_wall_time(), 6),
            "perf_caches": self.perf_caches,
        }, **extra)


@dataclass
class RunOutcome:
    """What a run produced: results in input-unit order, plus telemetry.

    ``failures`` maps every unresolved unit — permanently failed,
    fast-failed by an open circuit breaker, or timed out past its
    deadline — to its error string.
    """

    results: Dict[str, EvalResult]          # unit_id -> result
    stats: RunStats
    failures: Dict[str, str] = field(default_factory=dict)

    def result_for(self, unit: WorkUnit) -> EvalResult:
        return self.results[unit.unit_id]

    def raise_on_failure(self) -> "RunOutcome":
        """Raise if any unit failed (for callers needing complete tables)."""
        if self.failures:
            detail = "; ".join(
                f"{uid}: {err}" for uid, err in sorted(self.failures.items()))
            raise RuntimeError(f"{len(self.failures)} unit(s) failed: {detail}")
        return self


class ParallelRunner:
    """Shard work units over an execution backend with cache/retry/checkpoint.

    ``workers=1`` preserves a strictly serial path (same code, no pool);
    any other value fans units out over a ``ThreadPoolExecutor``.
    ``sleep`` and ``clock`` are injectable so backoff and deadlines are
    testable without waiting.

    Resilience hooks (all optional, see ``docs/RESILIENCE.md``):
    ``breaker`` fast-fails units of a model whose circuit has opened;
    ``deadline_s`` bounds each unit's wall time (checked cooperatively
    at every fault-boundary crossing, and by a watchdog thread that
    marks wedged units ``timed_out``); ``quarantine`` salvages a unit
    around permanently-faulting questions; ``checkpoint_writer``
    replaces the atomic checkpoint write (the chaos harness injects
    crashes and torn writes through it).

    Each unit's lifecycle is the :attr:`engine`'s, and the backend runs
    the units: it calls back :meth:`admit`, :meth:`evaluate` (or
    :meth:`evaluate_async`) and :meth:`complete` for each, over the
    current run's units, stats and collected results.
    """

    def __init__(
        self,
        harness: "Optional[EvaluationHarness]" = None,
        workers: int = 1,
        cache: Optional[RunCache] = None,
        retry: Optional[RetryPolicy] = None,
        fault_boundary: Optional[FaultBoundary] = None,
        run_dir: "Optional[Path | str]" = None,
        resume: bool = True,
        sleep: Callable[[float], None] = time.sleep,
        breaker: Optional[CircuitBreaker] = None,
        quarantine: Optional[QuarantinePolicy] = None,
        deadline_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        checkpoint_writer: Optional[Callable[[Path, str], None]] = None,
        backend: "Optional[str | executor_mod.ExecutionBackend]" = None,
        spill_dir: "Optional[Path | str]" = None,
        admission: Optional[AdmissionPolicy] = None,
        on_unit_payload: Optional[
            Callable[[WorkUnit, str], None]] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.backend = executor_mod.resolve_backend(backend, workers)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        if admission is None:
            admission = AdmissionPolicy(
                breaker=breaker, quarantine=quarantine,
                deadline_s=deadline_s)
        #: the unit-lifecycle and artifact core this driver schedules
        #: over — the single source of truth for run_dir, resume,
        #: admission and the attempt-loop configuration
        self.engine = EvalEngine(
            run_dir=run_dir, resume=resume,
            checkpoint_writer=checkpoint_writer,
            admission=admission,
            on_unit_payload=on_unit_payload,
            harness=harness, cache=cache, retry=retry,
            fault_boundary=fault_boundary, sleep=sleep, clock=clock)
        #: the run cache (the engine's), shared by every run of this runner
        self.cache = self.engine.cache
        #: RunStats of the most recent :meth:`run` (for CLI summaries).
        self.last_stats: Optional[RunStats] = None
        self._units: List[WorkUnit] = []
        self._stats = RunStats()
        self._collected: Dict[str, EvalResult] = {}
        self._watchdog: Optional[Watchdog] = None
        self._lock = threading.Lock()
        self._not_started = 0

    # -- public API ----------------------------------------------------------

    def run(self, units: Sequence[WorkUnit]) -> RunOutcome:
        """Execute all units; never raises for model faults (they are
        recorded in ``outcome.failures``)."""
        units = list(units)
        stats = RunStats()
        self.last_stats = stats
        with perfstats.scope(self.spill_dir) as stats.perf:
            collected, pending = self.engine.prepare(units, stats)
            self._units, self._stats, self._collected = units, stats, collected
            self._not_started = len(pending)
            try:
                if pending:
                    self.backend.run_units(pending, self)
            finally:
                if self._watchdog is not None:
                    self._watchdog.stop()
                    self._watchdog = None
            return self.engine.finalize(units, stats, collected)

    # -- the unit steps a backend drives -------------------------------------

    def admit(self, unit: WorkUnit) -> bool:
        """Once per unit, before it first runs: queue-depth bookkeeping,
        then the engine's admission gate; a refusal lands in the
        progress manifest at once."""
        unit_stats = self._stats.unit(unit.unit_id)
        with self._lock:
            self._not_started -= 1
            unit_stats.queue_depth = self._not_started
        if self.engine.admit(unit, unit_stats):
            return True
        self.engine.write_manifest(self._units, self._stats)
        return False

    def evaluate(self, unit: WorkUnit) -> executor_mod.WorkerResult:
        """Run ``unit``'s attempt loop on the calling thread."""
        return self.engine.evaluate(unit, self._watch(),
                                    self._stats.unit(unit.unit_id))

    async def evaluate_async(self, unit: WorkUnit,
                             scheduler: "AsyncCallScheduler"
                             ) -> executor_mod.WorkerResult:
        """Run ``unit``'s attempt loop on the event loop, with its
        provider calls going through ``scheduler``."""
        return await self.engine.evaluate_async(
            unit, scheduler, self._watch(), self._stats.unit(unit.unit_id))

    def complete(self, unit: WorkUnit,
                 outcome: executor_mod.WorkerResult) -> None:
        """The engine's completion epilogue, into the current run."""
        self.engine.complete(unit, self._units, self._stats,
                             self._collected, outcome)

    def _watch(self) -> Optional[Watchdog]:
        """The run's deadline watchdog, started by its first in-process
        evaluation; worker processes check their deadlines themselves,
        and the process backend kills a wedged one."""
        if self.engine.admission.deadline_s is None:
            return None
        with self._lock:
            if self._watchdog is None:
                units, stats = self._units, self._stats
                self._watchdog = Watchdog(
                    clock=self.engine.clock,
                    on_timeout=lambda uid: self.engine.write_manifest(
                        units, stats))
                self._watchdog.start()
            return self._watchdog


def read_manifest(run_dir: "Path | str") -> Dict[str, object]:
    """Load a run's ``manifest.json`` (unknown keys are preserved)."""
    path = Path(run_dir) / MANIFEST_NAME
    return json.loads(path.read_text(encoding="utf-8"))
