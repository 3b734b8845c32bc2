"""The async job queue behind the evaluation service.

A *job* is one served Table-II-shaped sweep: a JSON spec naming
registry models (plus optional serving knobs), executed by a worker
thread through a per-job :class:`~repro.core.runner.ParallelRunner` —
the exact substrate batch runs use, which is why a served job's
checkpoints are byte-identical to a batch run's.  The queue adds the
service semantics on top:

* **admission** — :meth:`JobQueue.submit` counts queued plus running
  jobs: a backlog at ``max_pending`` raises :class:`JobRejected` (the
  HTTP layer maps it to 503) instead of queueing into an unbounded
  hang;
* **cancellation** — :meth:`JobQueue.cancel` flips the job's cancel
  event, which the per-job admission policy checks before every unit:
  a queued job dies immediately, a running job stops at the next unit
  boundary with its completed units checkpointed (unit granularity —
  an in-flight unit finishes; docs/SERVICE.md);
* **streaming** — the engine's ``on_unit_payload`` hook fires once a
  unit's *canonical checkpoint* is on disk, and the job's result log
  records the unit id in completion order; :meth:`Job.results_since`
  reads each streamed line back from the job's checkpoints (the
  checkpoint's own bytes, serialized once), so clients can stream and
  digest results incrementally with an offset cursor, and server
  memory no longer grows with the number of jobs served by their
  payloads — a finished job keeps only its status record, and only the
  :data:`MAX_FINISHED_JOBS` most recently finished jobs keep even that
  (a forgotten job's run directory goes with its record).

Job specs (all keys except ``models`` optional)::

    {"models": ["gpt-4o", ...],      # registry names (required)
     "setting": "both",              # both | standard | challenge
     "backend": "async",             # serial | thread | process | async
     "workers": 4,                   # runner fan-out within the job
     "deadline_s": null,             # per-unit deadline
     "breaker": null,                # per-model breaker threshold
     "quarantine": false,            # salvage faulting questions
     "latency_s": 0.0,               # simulated endpoint latency
     "failure_rate": 0.0}            # simulated transient-fault rate

Each model is served by one provider: ``latency_s``/``failure_rate``
wrap it in a :class:`~repro.models.providers.RemoteStubProvider`;
answers stay keyed on the provider *name*, so even a remote-wrapped
job reproduces the canonical bytes.  ``"replicas": 1`` is still
accepted (older clients send it); any other value is refused, as
provider replicas were removed.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
import uuid
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.resilience import (
    AdmissionPolicy,
    CircuitBreaker,
    QuarantinePolicy,
)

#: Spec values accepted for ``setting``.
SETTINGS = ("both", "standard", "challenge")

#: Spec values accepted for ``backend``.
BACKENDS = ("serial", "thread", "process", "async")

#: Default cap on queued-plus-running jobs before 503-style rejection.
DEFAULT_MAX_PENDING = 64

#: Finished jobs the queue remembers; past this, the one that finished
#: first is forgotten, its run directory removed, and its id answers
#: like an unknown one.
MAX_FINISHED_JOBS = 256


class JobRejected(RuntimeError):
    """Admission refused the job (queue full); maps to HTTP 503."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


class Job:
    """One submitted evaluation job and its streamable result log."""

    def __init__(self, spec: Dict[str, object], run_dir: Path) -> None:
        self.job_id = uuid.uuid4().hex
        self.spec = spec
        self.run_dir = run_dir
        #: queued | running | completed | failed | cancelled
        self.status = "queued"
        self.error: Optional[str] = None
        self.cancel_event = threading.Event()
        self.units_total = 0
        self.units_done = 0
        self.units_failed = 0
        self.created_s = time.monotonic()
        self.finished_s: Optional[float] = None
        self._lock = threading.Lock()
        #: ids of the units whose checkpoints are streamed, in
        #: completion order; the payloads stay on disk
        self._unit_ids: List[str] = []
        self._terminal = threading.Event()

    # -- result streaming ----------------------------------------------------

    def append_result(self, unit_id: str) -> None:
        """Record that ``unit_id``'s checkpoint is written."""
        with self._lock:
            self._unit_ids.append(unit_id)
            self.units_done += 1

    def results_since(self, offset: int) -> Tuple[List[str], int, bool]:
        """Result lines from ``offset`` on, the next cursor, and
        whether the job is terminal (no more lines will ever come).

        Each line is a unit's checkpoint, read back verbatim; a
        checkpoint removed from the run dir raises ``OSError``.
        """
        # terminal is read first: once it is set no unit is appended,
        # so a page that says complete can never miss a last line
        complete = self._terminal.is_set()
        with self._lock:
            unit_ids = self._unit_ids[max(0, offset):]
            next_offset = len(self._unit_ids)
        lines = [(self.run_dir / f"{unit_id}.jsonl").read_bytes()
                 .decode("utf-8") for unit_id in unit_ids]
        return lines, next_offset, complete

    # -- lifecycle -----------------------------------------------------------

    def finish(self, status: str, error: Optional[str] = None) -> None:
        self.status = status
        self.error = error
        self.finished_s = time.monotonic()
        self._terminal.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; True if it finished."""
        return self._terminal.wait(timeout)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready status view served by ``GET /v1/jobs/<id>``."""
        with self._lock:
            done = self.units_done
        return {
            "job_id": self.job_id,
            "status": self.status,
            "error": self.error,
            "units_total": self.units_total,
            "units_done": done,
            "units_failed": self.units_failed,
            "run_dir": str(self.run_dir),
        }


def validate_spec(spec: Dict[str, object]) -> Dict[str, object]:
    """Validate and normalise a job spec (raises ``ValueError``)."""
    _require(isinstance(spec, dict), "job spec must be a JSON object")
    models = spec.get("models")
    _require(isinstance(models, list) and bool(models)
             and all(isinstance(m, str) for m in models),
             "spec.models must be a non-empty list of registry names")
    setting = spec.get("setting", "both")
    _require(setting in SETTINGS,
             f"spec.setting must be one of {SETTINGS}")
    backend = spec.get("backend", "async")
    _require(backend in BACKENDS,
             f"spec.backend must be one of {BACKENDS}")
    workers = int(spec.get("workers", 1))
    _require(workers >= 1, "spec.workers must be >= 1")
    _require(spec.get("replicas", 1) == 1,
             "spec.replicas: provider replicas were removed; each model "
             "is served by one provider, so only 1 is accepted")
    return dict(spec, setting=setting, backend=backend, workers=workers)


class JobQueue:
    """Thread-backed async job queue over the evaluation substrate.

    ``queue_workers`` bounds concurrently *running* jobs; ``max_pending``
    bounds queued-plus-running jobs, at which :meth:`submit` raises
    :class:`JobRejected`.  ``run_root`` holds one checkpoint directory
    per job (a temp directory by default).  ``harness`` is shared
    across jobs — the perception caches make consecutive jobs over the
    same models dramatically cheaper.  Queued and running jobs are
    always kept; of the finished ones, the last
    :data:`MAX_FINISHED_JOBS` to finish are, each with its run directory.
    """

    def __init__(
        self,
        harness=None,
        queue_workers: int = 2,
        run_root: "Optional[Path | str]" = None,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> None:
        if queue_workers < 1:
            raise ValueError("queue_workers must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if harness is None:
            from repro.core.harness import EvaluationHarness
            harness = EvaluationHarness()
        self.harness = harness
        self.run_root = (Path(run_root) if run_root is not None
                         else Path(tempfile.mkdtemp(prefix="repro-serve-")))
        self.max_pending = max_pending
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        #: ids of finished jobs still in ``_jobs``, in finishing order
        self._finished: Deque[str] = deque()
        self._queue: Deque[Job] = deque()
        self._running = 0
        self._shutdown = False
        self._counters: Dict[str, int] = {
            "jobs_submitted": 0,
            "jobs_rejected": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "jobs_cancelled": 0,
            "units_evaluated": 0,
        }
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"job-worker-{index}", daemon=True)
            for index in range(queue_workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- public API ----------------------------------------------------------

    def submit(self, spec: Dict[str, object]) -> Job:
        """Admit one job (raises :class:`JobRejected` past saturation,
        ``ValueError`` for a malformed spec)."""
        spec = validate_spec(spec)
        from repro.models.providers import provider_names

        known = set(provider_names())
        unknown = [m for m in spec["models"]  # type: ignore[union-attr]
                   if m not in known]
        if unknown:
            raise ValueError(
                f"unknown model(s) {sorted(unknown)}; known registry "
                f"names: {sorted(known)}")
        with self._cv:
            if self._shutdown:
                raise JobRejected("queue is shut down")
            pending = len(self._queue) + self._running
            if pending >= self.max_pending:
                self._counters["jobs_rejected"] += 1
                raise JobRejected(
                    f"queue full: {pending} job(s) pending >= "
                    f"max_pending {self.max_pending}")
            job = Job(spec, self.run_root / "pending")
            job.run_dir = self.run_root / f"job-{job.job_id}"
            self._jobs[job.job_id] = job
            self._queue.append(job)
            self._counters["jobs_submitted"] += 1
            self._cv.notify()
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            return self._jobs[job_id]

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; a queued job dies immediately, a
        running one stops at its next unit boundary."""
        job = self.get(job_id)
        job.cancel_event.set()
        with self._cv:
            if job.status == "queued":
                try:
                    self._queue.remove(job)
                except ValueError:
                    pass  # a worker grabbed it; the event stops it
                else:
                    self._finish_locked(job, "cancelled",
                                        "cancelled before start")
        return job

    def metrics(self) -> Dict[str, int]:
        """Live counters for ``/metrics`` (sorted-key stable)."""
        with self._lock:
            data = dict(self._counters)
            data["jobs_queued"] = len(self._queue)
            data["jobs_running"] = self._running
        return data

    def shutdown(self, timeout: Optional[float] = 5.0) -> None:
        """Stop admitting, cancel queued jobs, join worker threads."""
        with self._cv:
            self._shutdown = True
            while self._queue:
                job = self._queue.popleft()
                self._finish_locked(job, "cancelled", "queue shut down")
            self._cv.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)

    # -- execution -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._shutdown:
                    self._cv.wait()
                if self._shutdown and not self._queue:
                    return
                job = self._queue.popleft()
                self._running += 1
            try:
                self._execute(job)
            except BaseException as exc:  # the queue must survive a job
                with self._lock:
                    self._finish_locked(job, "failed",
                                        f"{type(exc).__name__}: {exc}")
            finally:
                with self._cv:
                    self._running -= 1
                    self._cv.notify()

    def _finish_locked(self, job: Job, status: str,
                       error: Optional[str] = None) -> None:
        """End ``job`` as ``status`` and count it, first forgetting the
        earliest-finished jobs past :data:`MAX_FINISHED_JOBS` and
        removing their run directories, so a waiter woken by the finish
        sees the table already bounded (caller holds the lock)."""
        self._counters[f"jobs_{status}"] += 1
        self._finished.append(job.job_id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            forgotten = self._jobs.pop(self._finished.popleft())
            shutil.rmtree(forgotten.run_dir, ignore_errors=True)
        job.finish(status, error)

    def _build_units(self, job: Job) -> list:
        from repro.core.benchmark import (build_chipvqa,
                                          build_chipvqa_challenge)
        from repro.core.runner import WorkUnit
        from repro.models.vlm import NO_CHOICE, WITH_CHOICE

        spec = job.spec
        providers = [self._provider_for(name, spec)
                     for name in spec["models"]]  # type: ignore[index]
        cells = []
        if spec["setting"] in ("both", "standard"):
            cells.append((build_chipvqa(), WITH_CHOICE))
        if spec["setting"] in ("both", "challenge"):
            cells.append((build_chipvqa_challenge(), NO_CHOICE))
        return [WorkUnit(model=provider, dataset=dataset, setting=setting)
                for provider in providers
                for dataset, setting in cells]

    def _provider_for(self, name: str, spec: Dict[str, object]):
        """One model's provider, behind the remote stub when the spec
        asks for simulated latency or faults."""
        from repro.models.providers import (RemoteStubProvider,
                                            create_provider)

        provider = create_provider(name)
        latency = float(spec.get("latency_s", 0.0) or 0.0)
        failure_rate = float(spec.get("failure_rate", 0.0) or 0.0)
        if latency or failure_rate:
            provider = RemoteStubProvider(
                provider, base_latency_s=latency,
                transient_rate=failure_rate,
                seed=int(spec.get("seed", 0) or 0))
        return provider

    def _job_admission(self, job: Job) -> AdmissionPolicy:
        """Fold the spec's resilience knobs and the cancel event into
        one per-job admission policy (docs/SERVICE.md)."""
        spec = job.spec
        breaker = None
        if spec.get("breaker"):
            breaker = CircuitBreaker(int(spec["breaker"]))  # type: ignore
        quarantine = QuarantinePolicy() if spec.get("quarantine") else None
        deadline_raw = spec.get("deadline_s")
        deadline_s = (float(deadline_raw)  # type: ignore[arg-type]
                      if deadline_raw is not None else None)
        return AdmissionPolicy(
            breaker=breaker, quarantine=quarantine, deadline_s=deadline_s,
            cancelled=job.cancel_event.is_set)

    def _execute(self, job: Job) -> None:
        from repro.core.runner import ParallelRunner

        if job.cancel_event.is_set():
            with self._lock:
                self._finish_locked(job, "cancelled",
                                    "cancelled before start")
            return
        job.status = "running"
        units = self._build_units(job)
        job.units_total = len(units)
        spec = job.spec
        runner = ParallelRunner(
            harness=self.harness,
            workers=int(spec["workers"]),  # type: ignore[index]
            run_dir=job.run_dir,
            backend=str(spec["backend"]),  # type: ignore[index]
            admission=self._job_admission(job),
            # the engine calls the hook after the unit's checkpoint is
            # written, so the stream can serve those bytes from disk
            # (the engine times the hand-off as the ``stream`` stage)
            on_unit_payload=lambda unit, payload: job.append_result(
                unit.unit_id),
        )
        outcome = runner.run(units)
        job.units_failed = len(outcome.failures)
        status = "completed"
        error: Optional[str] = None
        if job.cancel_event.is_set():
            status = "cancelled"
            error = (f"cancelled mid-run; {len(outcome.results)}/"
                     f"{len(units)} unit(s) completed")
        elif outcome.failures:
            status = "failed"
            error = f"{len(outcome.failures)} unit(s) failed: " + "; ".join(
                f"{uid}: {err}"
                for uid, err in sorted(outcome.failures.items()))
        with self._lock:
            self._counters["units_evaluated"] += len(outcome.results)
            self._finish_locked(job, status, error)
