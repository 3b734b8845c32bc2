"""The shared evaluation-engine core behind every execution driver.

:class:`EvalEngine` owns one work unit's whole lifecycle and the run
artifacts around it:

* :meth:`prepare` — validate the unit list, create the run directory,
  and resume every recoverable unit (checkpoints, and — when the
  engine carries a commit log / shared store — reconciled against the
  exactly-once accounting);
* :meth:`admit` — the admission prologue: the
  :class:`~repro.core.resilience.AdmissionPolicy` refuses a unit
  (open breaker, cancelled job) and the refusal becomes its
  ``fast_failed`` terminal state;
* :meth:`evaluate` / :meth:`evaluate_async` — the attempt loop: retry
  with backoff, run-cache lookup, the one whole-unit provider call and
  judge-or-quarantine, classified into a
  :class:`~repro.core.executor.WorkerResult`.  The loop is written
  once, as a generator that yields its provider call and its backoff
  sleeps; the two drivers differ only in how they serve those.  It
  runs in the unit's own isolated :func:`repro.core.perfstats.scope`,
  whose tally is the outcome's ``perf_delta``;
* :meth:`complete` — the completion epilogue: counters folded into
  the unit's stats and its ``perf_delta`` into the run's scope, the
  checkpoint written (or committed through the commit log), telemetry
  attached, the breaker told, the payload streamed, and the progress
  manifest written when :data:`MANIFEST_INTERVAL_S` has passed since
  the last write;
* :meth:`finalize` — the final manifest, whose counters are the run
  scope's, and the ordered :class:`~repro.core.runner.RunOutcome`.

Drivers — the serial/thread/async/process ``ParallelRunner``, the
multi-node ``SweepCoordinator``, and the evaluation service's job
executor (:mod:`repro.service.jobs`) — own *scheduling* only: which
thread, coroutine, process or node runs a unit, and when.  Everything
the artifacts and the per-unit accounting are made of flows through
here, which is what keeps the golden Table II digest byte-identical
whichever driver ran the sweep.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional,
    Sequence, Tuple, cast,
)

from repro.core import perfstats, results_io
from repro.core.executor import WorkerResult
from repro.core.faults import (
    ModelCallError,
    PermanentError,
    TransientModelError,
)
from repro.core.metrics import EvalResult
from repro.core.question import Category, Question
from repro.core.resilience import (
    AdmissionPolicy,
    Deadline,
    DeadlineExceeded,
    Watchdog,
    quarantined_record,
)
from repro.core.runcache import RunCache, cohort_digest, question_key

if TYPE_CHECKING:  # driver types only; engine never schedules
    from repro.core.faults import FaultBoundary
    from repro.core.harness import EvaluationHarness
    from repro.core.runner import (
        RetryPolicy, RunOutcome, RunStats, UnitStats, WorkUnit,
    )
    from repro.models.providers import AsyncCallScheduler

#: The per-unit counters an outcome carries into the unit's stats.
OUTCOME_COUNTERS = ("attempts", "retries", "cache_hits", "cache_misses",
                    "quarantined", "worker_respawns", "wall_time_s")

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT_VERSION = 1

#: Least time, in seconds of the engine's ``clock``, between the
#: progress-manifest writes :meth:`EvalEngine.complete` makes.  Each
#: write rewrites every unit's entry, so writing per unit cost a run
#: time quadratic in its unit count; ``finalize``, a watchdog timeout
#: and an admission refusal still write at once.
MANIFEST_INTERVAL_S = 1.0

#: Unit statuses that count as failures in ``RunOutcome.failures``.
FAILURE_STATUSES = ("failed", "fast_failed", "timed_out")


def payload_digest(payload: str) -> str:
    """SHA-256 of a canonical checkpoint payload — the committed identity."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class EvalEngine:
    """Unit-lifecycle, artifact, resume and accounting core shared by
    all drivers.

    One engine serves one driver.  ``harness``, ``cache``, ``retry``,
    ``fault_boundary``, ``sleep`` and ``clock`` configure the attempt
    loop; per-run state (commit log, shared store, extra manifest
    blocks) is attached by coordinated drivers before :meth:`prepare`
    and read by the resume/commit/manifest paths.
    ``checkpoint_writer`` defaults to the atomic write-then-rename and
    is injectable so the chaos harness can tear writes at exactly the
    artifact boundary.
    """

    def __init__(
        self,
        run_dir: "Optional[Path | str]" = None,
        resume: bool = True,
        checkpoint_writer: Optional[Callable[[Path, str], None]] = None,
        admission: Optional[AdmissionPolicy] = None,
        on_unit_payload: Optional[
            Callable[["WorkUnit", str], None]] = None,
        harness: "Optional[EvaluationHarness]" = None,
        cache: Optional[RunCache] = None,
        retry: "Optional[RetryPolicy]" = None,
        fault_boundary: "Optional[FaultBoundary]" = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if harness is None:
            from repro.core.harness import EvaluationHarness
            harness = EvaluationHarness()
        if retry is None:
            from repro.core.runner import RetryPolicy
            retry = RetryPolicy()
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.resume = resume
        self.checkpoint_writer = (checkpoint_writer
                                  or results_io.atomic_write_text)
        self.admission = admission or AdmissionPolicy()
        #: byte-level completion hook: receives each unit's canonical
        #: checkpoint payload verbatim (serialize-once; the service's
        #: result stream attaches here)
        self.on_unit_payload = on_unit_payload
        self.harness = harness
        self.cache = cache if cache is not None else RunCache()
        self.retry = retry
        self.fault_boundary = fault_boundary
        self.sleep = sleep
        self.clock = clock
        #: exactly-once accounting, attached per run by coordinated
        #: drivers (duck-typed: ``committed(unit_id)`` / ``commit``)
        self.commit_log: Any = None
        #: shared cross-node result tier, attached per run (duck-typed:
        #: ``get(unit, expected_sha256)`` / ``put(unit, payload)``)
        self.store: Any = None
        #: extra top-level manifest blocks, attached by coordinated
        #: drivers (the coordinator's live fleet counters)
        self.manifest_extra: Optional[
            Callable[[], Dict[str, object]]] = None
        self._manifest_lock = threading.Lock()
        #: engine-clock time of the run's start or its last manifest
        #: write, whichever is later
        self._manifest_at = 0.0

    # -- canonical forms -----------------------------------------------------

    @staticmethod
    def canonical_payload(result: EvalResult) -> str:
        """The byte-stable checkpoint payload of one unit result.

        ``telemetry=False`` keeps checkpoints canonical across worker
        counts, retry histories and drivers; the timing side lives in
        ``manifest.json``.  This is the **serialize-once** site: drivers
        call it exactly once per completed unit and pass the bytes (and
        their digest) through checkpoint, store, commit log and stream
        verbatim.  Each call is credited to the ``serialize`` stage
        timer, so redundant serialization shows up as counted calls.
        """
        with perfstats.stage("serialize"):
            return results_io.dumps(result, telemetry=False) + "\n"

    @staticmethod
    def matches(result: EvalResult, unit: "WorkUnit") -> bool:
        """Does a recovered result belong to this exact unit?"""
        return (result.model_name == unit.provider.name
                and result.dataset_name == unit.dataset.name
                and result.setting == unit.setting
                and result.resolution_factor == unit.resolution_factor
                and len(result.records) == len(unit.dataset))

    def checkpoint_path(self, unit: "WorkUnit") -> Optional[Path]:
        """Where ``unit``'s checkpoint lives (None without a run dir)."""
        if self.run_dir is None:
            return None
        return self.run_dir / f"{unit.unit_id}.jsonl"

    # -- run lifecycle -------------------------------------------------------

    def prepare(self, units: "Sequence[WorkUnit]", stats: "RunStats"
                ) -> "Tuple[Dict[str, EvalResult], List[WorkUnit]]":
        """Validate, create the run dir, and resume recoverable units.

        Returns ``(collected, pending)``: results recovered without
        re-evaluation (marked ``resumed`` in the stats, streamed to
        ``on_unit_payload``) and the units the driver must execute.
        """
        ids = [unit.unit_id for unit in units]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate unit ids in {ids}")
        self._manifest_at = self.clock()
        if self.run_dir is not None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
        collected: Dict[str, EvalResult] = {}
        pending: "List[WorkUnit]" = []
        for unit in units:
            unit_stats = stats.unit(unit.unit_id)
            resumed = self.resume_unit(unit, unit_stats)
            if resumed is not None:
                unit_stats.status = "resumed"
                resumed.telemetry = {"resumed": 1.0}
                collected[unit.unit_id] = resumed
                self._stream(unit, resumed)
            else:
                pending.append(unit)
        return collected, pending

    def resume_unit(self, unit: "WorkUnit",
                    unit_stats: "UnitStats") -> Optional[EvalResult]:
        """Recover one unit from its checkpoint (and, when attached,
        the shared store), reconciled against the commit log.

        Rejections are never silent: a file that fails to parse or
        checksum counts as a ``corrupt_checkpoint``, a metadata or
        record-count mismatch as a ``stale_checkpoint``.  With a commit
        log attached, the log is the identity authority — an intact
        checkpoint whose digest disagrees with the committed one counts
        corrupt; an uncommitted artifact (a torn log tail) is
        re-committed on the spot; a commit with no surviving artifact
        falls through to the store, then to re-execution (which the
        commit gate dedups).
        """
        if not self.resume:
            return None
        log = self.commit_log
        unit_id = unit.unit_id
        committed = log.committed(unit_id) if log is not None else None
        path = self.checkpoint_path(unit)
        if path is not None and path.exists():
            result: Optional[EvalResult] = None
            try:
                result = results_io.load(path)
            except (ValueError, KeyError):
                # truncated, torn or checksum-mismatched: re-evaluate
                unit_stats.corrupt_checkpoints += 1
            if result is not None:
                if not self.matches(result, unit):
                    unit_stats.stale_checkpoints += 1
                elif log is None:
                    return result
                else:
                    canonical = self.canonical_payload(result)
                    if committed is None:
                        # the chain digest is computed over the exact
                        # canonical bytes, inside the log, once
                        log.append_commit(unit_id, canonical, "resume")
                        return result
                    if payload_digest(canonical) == committed:
                        return result
                    unit_stats.corrupt_checkpoints += 1
        if self.store is not None:
            payload = self.store.get(unit, expected_sha256=committed)
            if payload is not None:
                if self.run_dir is not None:
                    self.checkpoint_writer(
                        self.run_dir / f"{unit_id}.jsonl", payload)
                if log is not None and committed is None:
                    log.append_commit(unit_id, payload, "store")
                return results_io.loads(payload)
        return None

    # -- artifact writes -----------------------------------------------------

    def checkpoint(self, unit: "WorkUnit", result: EvalResult) -> None:
        """Write ``unit``'s canonical checkpoint (no-op without a run
        dir); the writer is atomic by default and chaos-injectable."""
        if self.run_dir is not None:
            self.checkpoint_bytes(unit, self.canonical_payload(result))

    def checkpoint_bytes(self, unit: "WorkUnit", payload: str) -> None:
        """Write an already-serialized checkpoint payload verbatim."""
        path = self.checkpoint_path(unit)
        if path is None:
            return
        with perfstats.stage("commit"):
            self.checkpoint_writer(path, payload)

    def commit_payload(self, unit: "WorkUnit", payload: str,
                       node: str, digest: Optional[str] = None) -> str:
        """Write one already-serialized payload through every attached
        tier — checkpoint, shared store, commit log — and return the
        commit status (``"committed"``, ``"duplicate"``, or
        ``"untracked"`` when no log is attached).

        ``digest`` is the payload's sha256 when the caller already
        computed it; it is computed here exactly once otherwise and
        carried verbatim into the store and the commit log — no tier
        re-hashes the bytes.

        The exactly-once gate lives in the log: a re-executed unit
        whose bytes match the committed digest is a counted duplicate,
        a mismatch raises
        :class:`~repro.core.coordinator.CommitConflict`.
        """
        with perfstats.stage("commit"):
            if digest is None:
                digest = payload_digest(payload)
            if self.run_dir is not None:
                self.checkpoint_writer(
                    self.run_dir / f"{unit.unit_id}.jsonl", payload)
            if self.store is not None:
                self.store.put(unit, payload, digest=digest)
            if self.commit_log is None:
                return "untracked"
            return self.commit_log.commit(unit.unit_id, digest, node)

    # -- the unit lifecycle --------------------------------------------------

    def admit(self, unit: "WorkUnit", unit_stats: "UnitStats") -> bool:
        """Admission prologue: ask the policy, and record a refusal as
        the unit's terminal ``fast_failed`` state (no boundary crossing,
        no retry budget spent).  True admits the unit."""
        refusal = self.admission.refuse_unit(unit.provider.name)
        if refusal is None:
            return True
        unit_stats.status = "fast_failed"
        unit_stats.error = refusal
        return False

    def evaluate(self, unit: "WorkUnit",
                 watchdog: Optional[Watchdog] = None,
                 unit_stats: "Optional[UnitStats]" = None) -> WorkerResult:
        """Run the attempt loop on this thread: the provider call is
        ``answer_batch``, backoff is the injectable ``sleep``."""
        steps = self._lifecycle(unit, watchdog, unit_stats)
        reply: object = None
        error: Optional[BaseException] = None
        while True:
            try:
                request = (steps.send(reply) if error is None
                           else steps.throw(error))
            except StopIteration as done:
                return done.value
            reply = error = None
            try:
                if isinstance(request, tuple):
                    reply = unit.provider.answer_batch(
                        request[0], unit.setting, unit.resolution_factor,
                        use_raster=request[1])
                else:
                    self.sleep(request)  # type: ignore[arg-type]
            except BaseException as exc:
                # thrown back in, so the loop handles it where the call
                # is made and re-raises what it does not (cancellation
                # included) after running its cleanup
                error = exc

    async def evaluate_async(self, unit: "WorkUnit",
                             scheduler: "AsyncCallScheduler",
                             watchdog: Optional[Watchdog] = None,
                             unit_stats: "Optional[UnitStats]" = None
                             ) -> WorkerResult:
        """Run the attempt loop on the event loop: the provider call is
        awaited through ``scheduler`` (rate pacing, hedging) and backoff
        suspends the coroutine — unless a test injected ``sleep``, which
        is honoured as-is so one fixture drives both drivers."""
        import asyncio  # only the async driver loads it

        steps = self._lifecycle(unit, watchdog, unit_stats)
        reply: object = None
        error: Optional[BaseException] = None
        while True:
            try:
                request = (steps.send(reply) if error is None
                           else steps.throw(error))
            except StopIteration as done:
                return done.value
            reply = error = None
            try:
                if isinstance(request, tuple):
                    reply = await scheduler.call(
                        unit.provider, request[0], unit.setting,
                        unit.resolution_factor, use_raster=request[1])
                elif self.sleep is time.sleep:
                    await asyncio.sleep(request)  # type: ignore[arg-type]
                else:
                    self.sleep(request)  # type: ignore[arg-type]
            except BaseException as exc:
                error = exc

    def _lifecycle(self, unit: "WorkUnit", watchdog: Optional[Watchdog],
                   unit_stats: "Optional[UnitStats]"
                   ) -> Generator[object, object, WorkerResult]:
        """One unit's attempts, retried with exponential backoff, timed
        and classified (``timed_out`` for a deadline overrun, ``failed``
        for any other model fault; anything else propagates).

        It yields a provider-call request ``(questions, use_raster)`` or
        a backoff delay, and is sent the answers or has the call's
        exception thrown in, so retry and quarantine see provider faults
        where the call is made.  ``watchdog`` watches the deadline.
        """
        deadline = self.admission.deadline(clock=self.clock)
        if deadline is not None and watchdog is not None:
            watchdog.register(unit.unit_id, deadline, unit_stats)
        outcome = WorkerResult(unit_id=unit.unit_id, status="completed")
        start = time.perf_counter()
        # The unit's own scope: it stays current across the yields, so
        # the provider calls the driver makes count in it too, and no
        # concurrent unit's lookups do; complete() folds its tally into
        # the run's scope.
        with perfstats.scope(isolated=True) as tally:
            try:
                for attempt in range(1, self.retry.max_attempts + 1):
                    outcome.attempts = attempt
                    try:
                        outcome.result = yield from self._attempt(
                            unit, outcome, deadline)
                        break
                    except TransientModelError as exc:
                        if attempt == self.retry.max_attempts:
                            raise TransientModelError(
                                f"{unit.unit_id}: transient fault "
                                f"persisted through {attempt} attempts: "
                                f"{exc}") from None
                        if deadline is not None:
                            # an overdue unit must not burn more backoff
                            deadline.check(unit.unit_id)
                        outcome.retries += 1
                        yield self.retry.delay(attempt)
            except ModelCallError as exc:
                outcome.status = ("timed_out"
                                  if isinstance(exc, DeadlineExceeded)
                                  else "failed")
                outcome.error = f"{type(exc).__name__}: {exc}"
            finally:
                if watchdog is not None:
                    watchdog.unregister(unit.unit_id)
            outcome.wall_time_s = time.perf_counter() - start
            perfstats.record_stage("eval", int(outcome.wall_time_s * 1e9))
        outcome.perf_delta = tally.counters()
        return outcome

    def _attempt(self, unit: "WorkUnit", outcome: WorkerResult,
                 deadline: Optional[Deadline]
                 ) -> Generator[object, object, EvalResult]:
        """One evaluation attempt; cache-aware, fault-boundary-guarded.

        The outcome plan is always computed over the unit's *full*
        question list (quota-IRT realises correctness per category over
        its members), so partially-cached attempts stay byte-identical
        to uncached ones — and the list travels in one provider call.
        """
        use_raster = (self.harness.use_raster if unit.use_raster is None
                      else unit.use_raster)
        provider = unit.provider
        fingerprint = provider.config_fingerprint()
        questions = list(unit.dataset)
        by_category: Dict[Category, List[Question]] = {}
        for question in questions:
            by_category.setdefault(question.category, []).append(question)
        cohorts = {category: cohort_digest(members)
                   for category, members in by_category.items()}
        answers = None
        result = EvalResult(
            model_name=provider.name,
            dataset_name=unit.dataset.name,
            setting=unit.setting,
            resolution_factor=unit.resolution_factor,
        )
        for question in questions:
            key = question_key(provider.name, question, unit.setting,
                               unit.resolution_factor, use_raster,
                               cohorts[question.category],
                               provider_fingerprint=fingerprint)
            record = self.cache.get(key)
            if record is not None:
                outcome.cache_hits += 1
                result.add(record)
                continue
            outcome.cache_misses += 1
            if deadline is not None:
                # the deadline-aware boundary crossing: an overdue unit
                # resolves as timed_out at the next question, not after
                # grinding through the remainder of the list
                deadline.check(unit.unit_id, question.qid)
            if answers is None:
                # the whole-unit model call; provider-level transport
                # faults (a RemoteStubProvider 429, a rejected request)
                # are thrown in here and flow through the same
                # retry/failure machinery as boundary faults
                batch = yield (questions, use_raster)
                answers = {answer.qid: answer
                           for answer in batch}  # type: ignore[attr-defined]
            try:
                if self.fault_boundary is not None:
                    self.fault_boundary(unit.unit_id, question.qid)
                record = self.harness.judge_answer(question,
                                                   answers[question.qid])
            except PermanentError:
                if not self.admission.may_quarantine(outcome.quarantined):
                    raise
                # salvage the unit: mark this question quarantined
                # (deterministically incorrect) and keep going
                outcome.quarantined += 1
                record = quarantined_record(question)
            self.cache.put(key, record)
            result.add(record)
        return result

    def complete(self, unit: "WorkUnit", units: "Sequence[WorkUnit]",
                 stats: "RunStats", collected: Dict[str, EvalResult],
                 outcome: WorkerResult, *,
                 node: Optional[str] = None) -> str:
        """Completion epilogue shared by every driver: fold the counters
        into the unit's stats and the unit's scope tally into the run's
        (the same for a unit from this thread, another thread or a
        worker process); checkpoint a completed unit's canonical
        bytes (through the commit log when attached), attach telemetry,
        tell the breaker, stream the payload; write the progress
        manifest once :data:`MANIFEST_INTERVAL_S` of the engine's clock
        has passed since the run's :meth:`prepare` or the last write.
        Worker processes and fleet nodes hand over the serialized
        payload, written verbatim; in-process drivers the
        ``EvalResult``.  Returns the commit status when a commit log is
        attached, else the unit's status.
        """
        stats.perf.fold(outcome.perf_delta)
        unit_stats = stats.unit(unit.unit_id)
        for counter in OUTCOME_COUNTERS:
            setattr(unit_stats, counter, getattr(outcome, counter))
        if node is not None:
            unit_stats.node = node
        status = unit_stats.status = outcome.status
        if status == "completed":
            payload = outcome.payload
            result = (cast(EvalResult, outcome.result) if payload is None
                      else results_io.loads(payload))
            # serialize-once: the same bytes are the checkpoint, the
            # commit digest and the stream payload, and are never
            # produced when nothing consumes them
            if payload is None and (self.run_dir is not None
                                    or self.on_unit_payload is not None
                                    or self.commit_log is not None):
                payload = self.canonical_payload(result)
            if payload is not None:
                if self.commit_log is not None:
                    status = self.commit_payload(unit, payload, node or "")
                else:
                    self.checkpoint_bytes(unit, payload)
            self.attach_telemetry(result, unit_stats, outcome.perf_delta)
            collected[unit.unit_id] = result
            self.admission.record_success(unit.provider.name)
            self._stream(unit, result, payload)
        else:
            unit_stats.error = outcome.error
            self.admission.record_failure(unit.provider.name,
                                          outcome.error or status)
        if self._manifest_due():
            self.write_manifest(units, stats)
        return status

    def _manifest_due(self) -> bool:
        """Claim the next progress-manifest write if the interval has
        passed; of concurrent completions, one wins the write."""
        if self.run_dir is None:
            return False
        with self._manifest_lock:
            now = self.clock()
            if now - self._manifest_at < MANIFEST_INTERVAL_S:
                return False
            self._manifest_at = now
            return True

    @staticmethod
    def attach_telemetry(result: EvalResult, unit_stats: "UnitStats",
                         perf_delta: Dict[str, Dict[str, int]]) -> None:
        """Attach the run-side telemetry block to a completed result.

        Telemetry never reaches checkpoints (they are canonical); it
        rides on the in-memory result so callers see wall time, retry
        and cache movement per unit.
        """
        result.telemetry = {
            "wall_time_s": unit_stats.wall_time_s,
            "attempts": float(unit_stats.attempts),
            "retries": float(unit_stats.retries),
            "cache_hits": float(unit_stats.cache_hits),
            "cache_misses": float(unit_stats.cache_misses),
            "perf_cache_hits": float(
                perfstats.total(perf_delta, "hits")),
            "perf_cache_misses": float(
                perfstats.total(perf_delta, "misses")),
        }
        if unit_stats.quarantined:
            result.telemetry["quarantined"] = float(
                unit_stats.quarantined)

    def _stream(self, unit: "WorkUnit", result: EvalResult,
                payload: Optional[str] = None) -> None:
        """Hand a completed (or resumed) unit's canonical bytes to the
        ``on_unit_payload`` hook, serializing only when the caller did
        not already hold them (a resume from an in-memory artifact)."""
        if self.on_unit_payload is None:
            return
        if payload is None:
            payload = self.canonical_payload(result)
        with perfstats.stage("stream"):
            self.on_unit_payload(unit, payload)

    # -- manifest + outcome --------------------------------------------------

    def write_manifest(self, units: "Sequence[WorkUnit]",
                       stats: "RunStats",
                       extra: Optional[Dict[str, object]] = None) -> None:
        """Write the run's progress manifest (atomic, lock-serialized)
        now; the write restarts :meth:`complete`'s interval.

        ``extra`` merges driver-specific top-level blocks, defaulting to
        the attached :attr:`manifest_extra` (the coordinator's fleet
        counters); the breaker snapshot appears whenever the admission
        policy carries one.
        """
        if self.run_dir is None:
            return
        if extra is None and self.manifest_extra is not None:
            extra = self.manifest_extra()
        with self._manifest_lock:
            payload: Dict[str, object] = {
                "format_version": MANIFEST_FORMAT_VERSION,
                "units": [
                    dict(stats.unit(unit.unit_id).as_dict(),
                         path=f"{unit.unit_id}.jsonl",
                         provider=unit.provider.name,
                         provider_fingerprint=(
                             unit.provider.config_fingerprint()))
                    for unit in units
                ],
                "totals": stats.as_dict(),
            }
            if extra:
                payload.update(extra)
            if self.admission.breaker is not None:
                payload["breaker"] = self.admission.breaker.as_dict()
            results_io.atomic_write_text(
                self.run_dir / MANIFEST_NAME,
                json.dumps(payload, indent=2, sort_keys=True) + "\n")
            self._manifest_at = self.clock()

    def finalize(self, units: "Sequence[WorkUnit]", stats: "RunStats",
                 collected: Dict[str, EvalResult]) -> "RunOutcome":
        """Write the final manifest and fold everything into an
        input-ordered :class:`RunOutcome`."""
        from repro.core.runner import RunOutcome

        self.write_manifest(units, stats)
        ordered = {unit.unit_id: collected[unit.unit_id]
                   for unit in units if unit.unit_id in collected}
        failures = {
            unit.unit_id: stats.unit(unit.unit_id).error or "failed"
            for unit in units
            if stats.unit(unit.unit_id).status in FAILURE_STATUSES
        }
        return RunOutcome(results=ordered, stats=stats, failures=failures)


def build_driver(
    harness=None,
    *,
    workers: int = 1,
    nodes: int = 1,
    backend=None,
    run_dir: "Optional[Path | str]" = None,
    resume: bool = True,
    quarantine=None,
    breaker=None,
    deadline_s: Optional[float] = None,
    spill_dir: "Optional[Path | str]" = None,
):
    """Resolve the (workers, nodes, backend) knobs to an execution driver.

    The selection logic the CLI and :mod:`repro.core.sweep` used to
    duplicate: ``nodes > 1`` builds a fault-tolerant
    :class:`~repro.core.coordinator.SweepCoordinator` fleet (inline
    nodes by default, process groups under ``backend="process"``),
    anything else a single :class:`~repro.core.runner.ParallelRunner`
    over the requested backend.  The two parallelism knobs are
    exclusive — a coordinated fleet runs one unit per node.
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    if nodes > 1:
        if workers > 1:
            raise ValueError(
                "pass workers (one runner) or nodes (a coordinated "
                "fleet), not both")
        from repro.core.coordinator import SweepCoordinator

        return SweepCoordinator(
            nodes=nodes,
            harness=harness,
            node_backend=("process" if backend == "process" else "inline"),
            run_dir=run_dir,
            resume=resume,
            quarantine=quarantine,
            breaker=breaker,
            deadline_s=deadline_s,
            spill_dir=spill_dir)
    from repro.core.runner import ParallelRunner

    return ParallelRunner(
        harness=harness,
        workers=workers,
        run_dir=run_dir,
        resume=resume,
        quarantine=quarantine,
        breaker=breaker,
        deadline_s=deadline_s,
        backend=backend,
        spill_dir=spill_dir)
