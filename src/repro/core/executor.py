"""Pluggable execution backends: serial, thread and process fan-out.

The evaluation stack is CPU-bound pure Python/numpy — rendering,
legibility, perception, quota-IRT planning — so a thread pool is capped
by the GIL no matter how many workers it has.  This module gives
:class:`~repro.core.runner.ParallelRunner` a pluggable execution layer:

* :class:`SerialBackend` — in-process, in-order (the ``workers=1`` path);
* :class:`ThreadBackend` — a ``ThreadPoolExecutor`` sharing one address
  space (the historical ``workers=N`` path; right for latency-bound
  remote providers);
* :class:`ProcessBackend` — a ``ProcessPoolExecutor`` fanning units out
  across cores for true multicore scaling on CPU-bound sweeps;
* :class:`AsyncBackend` — a single asyncio event loop holding many
  provider calls in flight at once: the API-bound regime (remote
  endpoints), where concurrency is bounded by the provider's request
  budget rather than cores.  Each provider call goes through an
  ``AsyncCallScheduler`` (:mod:`repro.models.providers`), which awaits
  a provider's own ``answer_batch_async`` or runs its ``answer_batch``
  on a worker thread, and adds per-provider token-bucket pacing and
  hedged requests.

Processes cannot share live objects, so the process backend ships each
unit as a picklable :class:`UnitSpec` — a provider *registry name* (or,
failing that, a pickled provider), a dataset *build spec* (see
:attr:`repro.core.dataset.Dataset.build_spec`), the setting and the
resolution factor.  The worker rebuilds the unit, evaluates it through
the engine's shared attempt loop, and returns the serialized
checkpoint payload — the parent writes it verbatim, so process-backend
artifacts are byte-identical to the serial and thread paths (pinned by
``tests/test_executor.py``).

Each backend runs its own units (``run_units(pending, driver)``); the
driving :class:`~repro.core.runner.ParallelRunner` admits, evaluates and
completes each one.  :class:`ProcessBackend` owns every process pool in
the package, and every submit to one holds a process-wide spawn lock.

A thread-pool unit runs in a copy of its submitter's context, so it
counts in the run's :func:`repro.core.perfstats.scope`; a forked worker
counts only in the scope :func:`process_worker` opens.

Worker failure is part of the contract: a dead worker process
(``BrokenProcessPool``) rebuilds the pool and re-runs the interrupted
units one at a time so the culprit is identified without collateral
damage; a unit whose solo worker keeps dying is recorded ``failed``.  A
wedged worker — one that blows past the parent-side hard deadline — is
killed and its unit recorded ``timed_out``.  See ``docs/RUNNER.md``.

``multiprocessing``, the process pool and asyncio are imported where
:class:`ProcessBackend` and :class:`AsyncBackend` first use them, so the
serial and thread paths load none of them.
"""

from __future__ import annotations

import contextvars
import pickle
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    TYPE_CHECKING,
    Tuple,
    Union,
)

from repro.core import perfstats
from repro.core.faults import CompositeBoundary, FaultBoundary
from repro.core.metrics import EvalResult
from repro.core.resilience import AdmissionPolicy, QuarantinePolicy
from repro.models.providers import (
    AsyncCallScheduler,
    HedgePolicy,
    create_provider,
    provider_names,
)

if TYPE_CHECKING:  # runtime imports are deferred: runner imports us
    from concurrent.futures import ProcessPoolExecutor

    from repro.core.engine import EvalEngine
    from repro.core.runner import ParallelRunner, RetryPolicy, WorkUnit

#: Names accepted by :func:`create_backend` (and ``--backend``).
BACKEND_NAMES: Tuple[str, ...] = ("serial", "thread", "process", "async")


class ExecutorConfigError(ValueError):
    """A unit or option set cannot be shipped to the chosen backend."""


# -- picklable unit specs ----------------------------------------------------


@dataclass(frozen=True)
class UnitSpec:
    """A picklable recipe for rebuilding one :class:`WorkUnit`.

    The provider travels as a registry name whenever the default
    registry rebuilds an identically-fingerprinted provider; otherwise
    as a pickle (wrapped providers such as a remote stub with a
    non-default failure rate are not registry-reconstructible).  The
    dataset travels as its build spec.  Both forms are resolved in the
    worker process by :meth:`build_unit`.
    """

    provider_name: Optional[str]
    dataset_spec: Tuple[str, ...]
    setting: str
    resolution_factor: int = 1
    use_raster: Optional[bool] = None
    provider_pickle: Optional[bytes] = None

    def build_unit(self) -> "WorkUnit":
        """Materialise the work unit in the current process."""
        from repro.core.runner import WorkUnit

        if self.provider_pickle is not None:
            provider: Any = pickle.loads(self.provider_pickle)
        elif self.provider_name is not None:
            provider = create_provider(self.provider_name)
        else:  # pragma: no cover - spec_for never builds this
            raise ExecutorConfigError("unit spec carries no provider")
        return WorkUnit(
            model=provider,
            dataset=dataset_from_spec(self.dataset_spec),
            setting=self.setting,
            resolution_factor=self.resolution_factor,
            use_raster=self.use_raster,
        )


def spec_for(unit: "WorkUnit") -> UnitSpec:
    """Derive the picklable :class:`UnitSpec` for a live work unit.

    Raises :class:`ExecutorConfigError` when the unit cannot cross a
    process boundary: its dataset has no build spec, or its provider is
    neither registry-resolvable (same name *and* configuration
    fingerprint) nor picklable.
    """
    dataset_spec = getattr(unit.dataset, "build_spec", None)
    if dataset_spec is None:
        raise ExecutorConfigError(
            f"unit {unit.unit_id!r}: dataset {unit.dataset.name!r} has no "
            f"build_spec; register a builder via "
            f"register_dataset_builder() or use the thread backend")
    provider = unit.provider
    provider_name: Optional[str] = None
    provider_pickle: Optional[bytes] = None
    if provider.name in provider_names():
        rebuilt = create_provider(provider.name)
        if rebuilt.config_fingerprint() == provider.config_fingerprint():
            provider_name = provider.name
    if provider_name is None:
        try:
            provider_pickle = pickle.dumps(provider)
        except Exception as exc:
            raise ExecutorConfigError(
                f"unit {unit.unit_id!r}: provider {provider.name!r} is "
                f"neither registry-resolvable nor picklable ({exc}); "
                f"register a provider factory or use the thread backend"
            ) from exc
    return UnitSpec(
        provider_name=provider_name,
        dataset_spec=tuple(dataset_spec),
        setting=unit.setting,
        resolution_factor=unit.resolution_factor,
        use_raster=unit.use_raster,
        provider_pickle=provider_pickle,
    )


#: Extra dataset-spec roots registered at runtime (tests, extensions).
#: With the default ``fork`` start method, worker processes inherit
#: parent registrations automatically.
_DATASET_BUILDERS: Dict[str, Callable[[], Any]] = {}


def register_dataset_builder(name: str,
                             factory: Callable[[], Any]) -> None:
    """Register ``factory`` as the builder for dataset-spec root ``name``."""
    _DATASET_BUILDERS[name] = factory


def dataset_from_spec(spec: Sequence[str]) -> Any:
    """Rebuild a dataset from its build spec (root builder + ops)."""
    if not spec:
        raise ExecutorConfigError("empty dataset spec")
    root, ops = spec[0], list(spec[1:])
    factory = _DATASET_BUILDERS.get(root)
    if factory is None:
        from repro.core.benchmark import (
            build_chipvqa,
            build_chipvqa_challenge,
        )

        builtin: Dict[str, Callable[[], Any]] = {
            "chipvqa": build_chipvqa,
            "chipvqa-challenge": build_chipvqa_challenge,
        }
        factory = builtin.get(root)
    if factory is None and root.startswith("chipvqa-scaled:"):
        from repro.core.databuild import dataset_from_scaled_root

        def factory(root: str = root) -> Any:
            return dataset_from_scaled_root(root)
    if factory is None:
        raise ExecutorConfigError(f"unknown dataset builder {root!r}")
    dataset = factory()
    from repro.core.question import Category, QuestionType

    while ops:
        if len(ops) < 2:
            raise ExecutorConfigError(f"malformed dataset spec {tuple(spec)!r}")
        op, value = ops[0], ops[1]
        ops = ops[2:]
        if op == "by_category":
            dataset = dataset.by_category(Category(value))
        elif op == "by_type":
            dataset = dataset.by_type(QuestionType(value))
        else:
            raise ExecutorConfigError(f"unknown dataset op {op!r}")
    return dataset


# -- worker-side execution ---------------------------------------------------


@dataclass
class WorkerOptions:
    """Everything a worker process needs besides the unit spec.

    Must pickle cleanly — :func:`ensure_picklable` enforces this in the
    parent before any fork/submit, so misconfiguration fails fast with
    a clear error instead of a cryptic one from the pool machinery.
    """

    harness: Any = None
    retry: "Optional[RetryPolicy]" = None
    fault_boundary: Optional[FaultBoundary] = None
    quarantine: Optional[QuarantinePolicy] = None
    deadline_s: Optional[float] = None
    spill_root: Optional[str] = None

    @classmethod
    def for_engine(cls, engine: "EvalEngine",
                   heartbeat: Optional[FaultBoundary] = None
                   ) -> "WorkerOptions":
        """The options that rerun ``engine``'s attempt loop in a worker,
        with ``heartbeat`` (a fleet node's) leading the fault boundary
        and the current scope's spill root for the worker's scope."""
        current = perfstats.current()
        boundary = engine.fault_boundary
        if heartbeat is not None:
            boundary = (CompositeBoundary(heartbeat, boundary)
                        if boundary is not None else heartbeat)
        return cls(
            harness=engine.harness,
            retry=engine.retry,
            fault_boundary=boundary,
            quarantine=engine.admission.quarantine,
            deadline_s=engine.admission.deadline_s,
            spill_root=current.spill_root if current is not None else None,
        )


@dataclass
class WorkerResult:
    """What one unit evaluation produced: status, result and counters.

    The outcome of :meth:`repro.core.engine.EvalEngine.evaluate` on
    every driver.  In-process drivers carry the live ``result``;
    a worker process or fleet node instead carries ``payload``, the
    canonical serialized checkpoint
    (``results_io.dumps(result, telemetry=False)``), written verbatim by
    the parent — the property that keeps process-backend artifacts
    byte-identical to the thread path.  ``perf_delta`` is the tally of
    the scope the unit evaluated in, which the completion epilogue
    folds into the run's scope whichever thread or process produced it.
    """

    unit_id: str
    status: str  # completed | failed | timed_out
    payload: Optional[str] = None
    result: Optional[EvalResult] = None
    error: Optional[str] = None
    attempts: int = 0
    retries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    quarantined: int = 0
    wall_time_s: float = 0.0
    worker_respawns: int = 0  # filled in by the parent
    perf_delta: Dict[str, Dict[str, int]] = field(default_factory=dict)


def process_worker(spec: UnitSpec, options: WorkerOptions) -> WorkerResult:
    """Evaluate one unit spec in a worker process (or a fleet node).

    Top-level (not a closure) so it is picklable by every start method.
    Rebuilds the unit, runs it through
    :meth:`repro.core.engine.EvalEngine.evaluate` — the attempt loop
    every driver shares, which guarantees byte-identity with in-process
    execution — and returns the canonical checkpoint payload instead of
    the result object.  Wall time and the unit's tally span the whole
    call, rebuild and serialization included: it runs in an isolated
    scope rooted at ``options.spill_root``.  Anything that is not a
    model fault propagates to the parent.
    """
    from repro.core.engine import EvalEngine

    with perfstats.scope(options.spill_root, isolated=True) as tally:
        start = time.perf_counter()
        unit = spec.build_unit()
        engine = EvalEngine(
            harness=options.harness,
            retry=options.retry,
            fault_boundary=options.fault_boundary,
            admission=AdmissionPolicy(quarantine=options.quarantine,
                                      deadline_s=options.deadline_s),
        )
        outcome = engine.evaluate(unit)
        tally.fold(outcome.perf_delta)  # the attempts' own unit scope
        if outcome.result is not None:
            # the worker-side serialize-once site: these bytes cross the
            # process boundary and are checkpointed/streamed verbatim by
            # the parent (stage time rides home in perf_delta)
            outcome.payload = engine.canonical_payload(outcome.result)
            outcome.result = None
        outcome.wall_time_s = time.perf_counter() - start
    outcome.perf_delta = tally.counters()
    return outcome


def ensure_picklable(items: Sequence[Tuple[str, UnitSpec]],
                     options: WorkerOptions) -> None:
    """Fail fast in the parent on work that cannot cross a process.

    ``ProcessPoolExecutor`` pickles lazily on a feeder thread, which
    turns an unpicklable harness or fault boundary into an opaque
    broken-pool error; probing here yields an actionable one instead.
    """
    try:
        pickle.dumps(options)
    except Exception as exc:
        raise ExecutorConfigError(
            f"process backend requires picklable worker options (harness, "
            f"retry policy, fault boundary, quarantine): {exc}") from exc
    for unit_id, spec in items:
        try:
            pickle.dumps(spec)
        except Exception as exc:
            raise ExecutorConfigError(
                f"unit {unit_id!r}: spec is not picklable: {exc}") from exc


# -- backends ----------------------------------------------------------------


def _run_unit(driver: "ParallelRunner", unit: "WorkUnit") -> None:
    """One unit on the calling thread: admit, evaluate, complete."""
    if driver.admit(unit):
        driver.complete(unit, driver.evaluate(unit))


class SerialBackend:
    """In-process, in-order execution — the ``workers=1`` path."""

    name = "serial"

    def map_units(self, units: Sequence[Any],
                  fn: Callable[[Any], Any]) -> List[Any]:
        """Apply ``fn`` to every unit, in order, on the calling thread."""
        return [fn(unit) for unit in units]

    def run_units(self, pending: "Sequence[WorkUnit]",
                  driver: "ParallelRunner") -> None:
        """Run every unit to completion, in order, on this thread."""
        for unit in pending:
            _run_unit(driver, unit)


class ThreadBackend:
    """Fan units out over a ``ThreadPoolExecutor`` (shared memory).

    Right for latency-bound work — remote providers, I/O — where
    workers overlap waiting; the GIL caps speedup on CPU-bound sweeps
    (use :class:`ProcessBackend` there).
    """

    name = "thread"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    def map_units(self, units: Sequence[Any],
                  fn: Callable[[Any], Any]) -> List[Any]:
        """Apply ``fn`` to every unit across the thread pool.

        Results come back in submission order; the first exception
        propagates after the pool drains.  Each call runs in a fresh
        copy of the caller's context (and so in the caller's scope).
        """
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [pool.submit(contextvars.copy_context().run, fn, unit)
                       for unit in units]
            return [future.result() for future in futures]

    def run_units(self, pending: "Sequence[WorkUnit]",
                  driver: "ParallelRunner") -> None:
        """Run the units across the thread pool; a lone unit needs no
        pool and runs on this thread."""
        if len(pending) > 1:
            self.map_units(pending, lambda unit: _run_unit(driver, unit))
        else:
            for unit in pending:
                _run_unit(driver, unit)


#: Held around every process-pool submit in the process; a pool's first
#: submit forks its workers.  Under ``fork``, a thread forking while
#: another is between ``fork()`` and closing its end of the new worker's
#: sentinel pipe hands that end to the second worker, so the first
#: worker's death raises no ``BrokenProcessPool`` for as long as the
#: second lives.
_SPAWN_LOCK = threading.Lock()

#: Longest :meth:`ProcessBackend.run_units` waits on its in-flight units
#: before it checks their hard deadlines again.
POLL_INTERVAL_S = 0.05


class ProcessBackend:
    """Fan unit specs out over a ``ProcessPoolExecutor``.

    Submission is windowed — at most ``workers`` units in flight — so
    circuit-breaker decisions are made against current state, exactly
    like thread-pool execution order would.

    :meth:`_new_pool` builds every process pool in the package (fleet
    nodes and process prefetch builders included), forking where
    ``fork`` exists so workers inherit warm caches and runtime
    registrations; :meth:`submit` is the one way work reaches a pool.

    Failure handling (see the module docstring):

    * ``BrokenProcessPool`` — whether a future or ``submit`` itself
      reports it, the pool is rebuilt and every interrupted unit re-run
      *one at a time* (a unit ``submit`` refused never ran and is
      requeued uncharged); a pool that breaks with a single unit in
      flight convicts that unit, and ``max_respawns`` solo deaths mark
      it ``failed`` without poisoning its neighbours.
    * hard deadline — with ``deadline_s`` set, a worker is given
      ``deadline_s * hard_deadline_factor + hard_deadline_grace``
      seconds of wall time (the cooperative in-worker deadline should
      fire long before this); past that the unit is recorded
      ``timed_out``, the wedged pool is killed and innocent in-flight
      units are resubmitted.
    """

    name = "process"

    def __init__(
        self,
        workers: int,
        max_respawns: int = 2,
        hard_deadline_factor: float = 2.0,
        hard_deadline_grace: float = 0.5,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        import multiprocessing

        self.workers = workers
        self.max_respawns = max_respawns
        self.hard_deadline_factor = hard_deadline_factor
        self.hard_deadline_grace = hard_deadline_grace
        self._mp_context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)

    def hard_deadline(self, deadline_s: Optional[float]) -> Optional[float]:
        """Parent-side wall bound per worker (``None`` = unbounded)."""
        if deadline_s is None:
            return None
        return (deadline_s * self.hard_deadline_factor
                + self.hard_deadline_grace)

    def _new_pool(self) -> ProcessPoolExecutor:
        """A pool of ``workers`` processes, forked by its first submit,
        each leaving the scope it inherits."""
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.workers,
                                   mp_context=self._mp_context,
                                   initializer=perfstats.leave_scope)

    @staticmethod
    def submit(pool: ProcessPoolExecutor, fn: Callable[..., Any],
               *args: Any) -> Future:
        """``pool.submit(fn, *args)`` under the process-wide spawn lock
        (:data:`_SPAWN_LOCK`); raises ``BrokenProcessPool`` when a
        worker of ``pool`` died."""
        with _SPAWN_LOCK:
            return pool.submit(fn, *args)

    def map_units(self, units: Sequence[Any],
                  fn: Callable[[Any], Any]) -> List[Any]:
        """Apply a top-level picklable ``fn`` across the process pool.

        The generic fan-out path (dataset shard builds and other pure
        CPU-bound jobs) — no retry/deadline machinery, results in
        submission order, the first exception propagates after the pool
        drains.  Evaluation units go through :meth:`run_units`, which
        layers respawn and hard-deadline handling on top of the pool.
        """
        with self._new_pool() as pool:
            futures = [self.submit(pool, fn, unit) for unit in units]
            return [future.result() for future in futures]

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Forcefully terminate a pool whose worker is wedged."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.kill()
        pool.shutdown(wait=False, cancel_futures=True)

    def run_units(self, pending: "Sequence[WorkUnit]",
                  driver: "ParallelRunner") -> None:
        """Drive ``pending`` to completion in worker processes.

        Each unit ships as its :class:`UnitSpec` with the driver's
        engine configuration (:meth:`WorkerOptions.for_engine`); the
        worker returns the canonical checkpoint payload, which
        ``driver.complete`` writes verbatim.  ``driver.admit`` is asked
        once per unit, immediately before its first submission; a
        refused unit is skipped.  A unit re-submitted later (a solo
        re-run after a worker death, a unit ``submit`` found the pool
        broken for, a survivor of a hard-deadline kill) was admitted
        already and is not asked again, so a half-open breaker's trial
        is not refused by its own second ask.  ``driver.complete``
        receives exactly one terminal :class:`WorkerResult` per admitted
        unit.  Unexpected worker exceptions (anything that is not a
        model fault) propagate to the caller, matching in-process
        semantics.
        """
        from concurrent.futures.process import BrokenProcessPool

        options = WorkerOptions.for_engine(driver.engine)
        by_id = {unit.unit_id: unit for unit in pending}
        items = [(unit.unit_id, spec_for(unit)) for unit in pending]
        ensure_picklable(items, options)
        queue: Deque[Tuple[str, UnitSpec]] = deque(items)
        solo: Deque[Tuple[str, UnitSpec]] = deque()
        deaths: Dict[str, int] = {}
        admitted: Set[str] = set()
        hard = self.hard_deadline(options.deadline_s)
        in_flight: Dict[Future, Tuple[str, UnitSpec, float]] = {}
        pool = self._new_pool()

        def submit(source: Deque[Tuple[str, UnitSpec]], unit_id: str,
                   spec: UnitSpec) -> None:
            try:
                future = self.submit(pool, process_worker, spec, options)
            except BrokenProcessPool:
                # a worker died after the last wait returned: the unit
                # never ran, so it goes back uncharged
                source.appendleft((unit_id, spec))
                raise
            in_flight[future] = (unit_id, spec, time.monotonic())

        try:
            while queue or solo or in_flight:
                try:
                    if solo:
                        # crash recovery: run interrupted units one at a
                        # time so a repeat death convicts exactly one unit
                        if not in_flight:
                            unit_id, spec = solo.popleft()
                            submit(solo, unit_id, spec)
                    else:
                        while queue and len(in_flight) < self.workers:
                            unit_id, spec = queue.popleft()
                            if (unit_id in admitted
                                    or driver.admit(by_id[unit_id])):
                                admitted.add(unit_id)
                                submit(queue, unit_id, spec)
                except BrokenProcessPool:
                    # harvest what finished before the pool broke; the
                    # rest of the flight is interrupted below
                    broken = True
                    done = {future for future in in_flight
                            if future.done()}
                else:
                    if not in_flight:
                        continue
                    broken = False
                    done, _ = wait(set(in_flight), timeout=POLL_INTERVAL_S,
                                   return_when=FIRST_COMPLETED)
                interrupted: List[Tuple[str, UnitSpec]] = []
                flight_size = len(in_flight)
                for future in done:
                    unit_id, spec, _started = in_flight.pop(future)
                    exc = future.exception()
                    if exc is None:
                        outcome = future.result()
                        outcome.worker_respawns = deaths.get(unit_id, 0)
                        driver.complete(by_id[unit_id], outcome)
                    elif isinstance(exc, BrokenProcessPool):
                        broken = True
                        interrupted.append((unit_id, spec))
                    else:
                        raise exc
                if broken:
                    # the pool is unusable; everything still in flight
                    # died with it
                    interrupted.extend(
                        (uid, uspec)
                        for uid, uspec, _ in in_flight.values())
                    in_flight.clear()
                    if flight_size == 1 and interrupted:
                        uid = interrupted[0][0]
                        deaths[uid] = deaths.get(uid, 0) + 1
                        if deaths[uid] > self.max_respawns:
                            driver.complete(by_id[uid], WorkerResult(
                                unit_id=uid,
                                status="failed",
                                error=(f"WorkerCrash: worker process died "
                                       f"{deaths[uid]} time(s) running "
                                       f"this unit"),
                                worker_respawns=deaths[uid]))
                            interrupted = []
                    solo.extend(interrupted)
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = self._new_pool()
                    continue
                if hard is not None and in_flight:
                    now = time.monotonic()
                    expired = [
                        (future, entry)
                        for future, entry in in_flight.items()
                        if now - entry[2] > hard
                    ]
                    if expired:
                        for future, (unit_id, spec, _started) in expired:
                            del in_flight[future]
                            driver.complete(by_id[unit_id], WorkerResult(
                                unit_id=unit_id,
                                status="timed_out",
                                error=(f"DeadlineExceeded: no result within "
                                       f"the {hard:.3f}s hard deadline; "
                                       f"worker process killed"),
                                worker_respawns=deaths.get(unit_id, 0)))
                        # only killing the pool frees a wedged worker;
                        # innocents restart with a fresh clock
                        survivors = [
                            (uid, uspec)
                            for uid, uspec, _ in in_flight.values()]
                        in_flight.clear()
                        self._kill_pool(pool)
                        pool = self._new_pool()
                        queue.extendleft(reversed(survivors))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


class AsyncBackend:
    """Drive units as coroutines on one asyncio event loop.

    The backend for the API-bound regime: evaluation work per unit is
    tiny next to a remote call's round-trip, so one event loop holding
    ``workers`` units in flight matches a thread pool's throughput at a
    fraction of the footprint — and, unlike threads, ``workers`` may
    far exceed the core count (concurrency is bounded by the endpoint's
    request budget, not the GIL).

    The backend owns the scheduling policy of the async call path:
    ``rate_limit_per_s``/``rate_burst`` build per-provider token
    buckets the scheduler *awaits* before dispatching (client-side
    pacing), and ``hedge_after_s``/``max_hedges`` duplicate
    straggling calls, first success wins.  :meth:`make_scheduler`
    builds one fresh :class:`AsyncCallScheduler` per run so telemetry
    never bleeds across runs.

    Determinism is unchanged: the engine's cache/cohort/judge attempt
    loop is the same code the sync backends run — only the provider
    call and the backoff are awaited — so artifacts stay byte-identical
    (pinned by the cross-backend golden-digest test).
    """

    name = "async"

    def __init__(
        self,
        workers: int,
        rate_limit_per_s: Optional[float] = None,
        rate_burst: Optional[int] = None,
        hedge_after_s: Optional[float] = None,
        max_hedges: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if rate_limit_per_s is not None and rate_limit_per_s <= 0:
            raise ValueError("rate_limit_per_s must be > 0")
        if hedge_after_s is not None and hedge_after_s < 0:
            raise ValueError("hedge_after_s must be >= 0")
        if max_hedges < 1:
            raise ValueError("max_hedges must be >= 1")
        self.workers = workers
        self.rate_limit_per_s = rate_limit_per_s
        self.rate_burst = rate_burst
        self.hedge_after_s = hedge_after_s
        self.max_hedges = max_hedges
        #: scheduler of the most recent run (telemetry for summaries)
        self.last_scheduler: Optional[AsyncCallScheduler] = None

    def make_scheduler(self) -> AsyncCallScheduler:
        """A fresh per-run scheduler carrying this backend's policy."""
        hedge = (HedgePolicy(self.hedge_after_s, self.max_hedges)
                 if self.hedge_after_s is not None else None)
        scheduler = AsyncCallScheduler(
            rate_limit_per_s=self.rate_limit_per_s,
            rate_burst=self.rate_burst,
            hedge=hedge)
        self.last_scheduler = scheduler
        return scheduler

    def run_units(self, pending: "Sequence[WorkUnit]",
                  driver: "ParallelRunner") -> None:
        """Run the units as coroutines on one event loop, at most
        ``workers`` at a time, with a fresh scheduler for the run.

        An unexpected exception (anything the engine's attempt loop did
        not absorb — e.g. an injected crash from the chaos harness)
        propagates to the caller and *stops the world*: sibling tasks
        are cancelled before they can keep completing (and
        checkpointing) past the failure, matching what a process death
        leaves behind.  The ``sleep(0)`` after the semaphore pins a
        suspension point at the start of every unit, so cancellation
        can land even on units whose evaluation never otherwise yields
        (zero simulated latency).
        """
        import asyncio

        scheduler = self.make_scheduler()

        async def main() -> None:
            semaphore = asyncio.Semaphore(self.workers)

            async def run_unit(unit: "WorkUnit") -> None:
                async with semaphore:
                    await asyncio.sleep(0)
                    if driver.admit(unit):
                        driver.complete(unit, await driver.evaluate_async(
                            unit, scheduler))

            tasks = [asyncio.ensure_future(run_unit(unit))
                     for unit in pending]
            try:
                await asyncio.gather(*tasks)
            except BaseException:
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                raise

        asyncio.run(main())


#: Any of the four concrete backends.
ExecutionBackend = Union[SerialBackend, ThreadBackend, ProcessBackend,
                         AsyncBackend]


def create_backend(name: str, workers: int) -> ExecutionBackend:
    """Build the backend called ``name`` (one of :data:`BACKEND_NAMES`)."""
    if name == "serial":
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(workers)
    if name == "process":
        return ProcessBackend(workers)
    if name == "async":
        return AsyncBackend(workers)
    raise ExecutorConfigError(
        f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")


def resolve_backend(backend: "Optional[str | ExecutionBackend]",
                    workers: int) -> ExecutionBackend:
    """Coerce a backend argument to an instance.

    ``None`` preserves the historical default — serial at ``workers=1``,
    threads otherwise; a string goes through :func:`create_backend`;
    an instance passes through untouched.
    """
    if backend is None:
        return SerialBackend() if workers == 1 else ThreadBackend(workers)
    if isinstance(backend, str):
        return create_backend(backend, workers)
    return backend
