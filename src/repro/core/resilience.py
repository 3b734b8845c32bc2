"""Resilience primitives for long evaluation sweeps.

A production benchmark service treats partial failure as the steady
state: a provider melting down should not burn the retry budget of
every remaining cell, one hung call should not stall a worker pool
forever, and one poison question should not discard an otherwise
healthy (model, dataset, setting) cell.  This module supplies the
pieces the :class:`~repro.core.runner.ParallelRunner` wires together:

* :class:`CircuitBreaker` — per-model breaker that opens after K
  *consecutive* unit failures (permanent faults, exhausted transient
  retries, or deadline timeouts) and fast-fails that model's remaining
  units; with ``cooldown_s`` set it half-opens after the cooldown and
  admits one trial unit before fully re-closing;
* :class:`Deadline` / :class:`DeadlineExceeded` — a per-unit time
  budget checked at every fault-boundary crossing, so an overdue unit
  resolves as ``timed_out`` instead of looping through retries;
* :class:`Watchdog` — a monitor (optionally a daemon thread) that
  marks overdue units ``timed_out`` in the run telemetry even when the
  worker thread is wedged inside a call that never reaches a boundary
  crossing, so observers see the stall instead of a healthy manifest;
* :class:`QuarantinePolicy` / :func:`quarantined_record` — question
  -level quarantine: a permanently-faulting question is recorded as a
  deterministic incorrect ``judge_method="quarantined"`` record and
  the rest of the unit is salvaged;
* :class:`AdmissionPolicy` — the composition seam: breaker, deadline
  and quarantine folded into one admission/failure policy consumed by
  the :class:`~repro.core.engine.EvalEngine` per run; the evaluation
  service (:mod:`repro.service`) builds one per job, so per-tenant
  deadlines and cooperative cancellation reuse the same primitives
  batch runs do.

Everything here is thread-safe and clock-injectable; nothing imports
the runner, so boundaries and tests can compose these pieces freely.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.faults import ModelCallError
from repro.core.metrics import EvalRecord
from repro.core.question import Question

#: ``EvalRecord.judge_method`` value marking a quarantined question.
QUARANTINED_METHOD = "quarantined"


class CircuitOpenError(ModelCallError):
    """Raised (or recorded) when a model's circuit breaker is open."""


class DeadlineExceeded(ModelCallError):
    """A unit exceeded its per-unit deadline.

    Deliberately *not* a :class:`~repro.core.faults.TransientModelError`
    subclass: retrying an already-overdue unit only burns more wall
    time, so the runner resolves it immediately as ``timed_out``.
    """


class CircuitBreaker:
    """Per-key (per-model) circuit breaker with a consecutive-failure trip.

    The breaker stays **closed** while a model's units succeed; each
    unit-level failure (permanent fault, exhausted transient retries,
    deadline timeout) increments a consecutive counter, and reaching
    ``failure_threshold`` **opens** the circuit for that key.  An open
    circuit fast-fails every remaining unit of the model without
    crossing the fault boundary or spending retry backoff — the
    failure mode of a revoked credential or a melted-down provider.

    With ``cooldown_s`` set, an open circuit becomes **half-open** once
    the cooldown has elapsed since it (last) opened: :meth:`allow`
    admits exactly one *trial* unit, whose outcome decides the
    circuit's fate — success closes it fully, failure re-opens it and
    re-arms the cooldown.  This keeps a transiently melted-down
    provider from being locked out for the rest of a long sweep or a
    multi-node coordinated run.  Without ``cooldown_s`` (the default)
    the historical semantics hold: the circuit stays open for the rest
    of the run unless :meth:`reset` is called (a relaunch starts
    closed).
    """

    def __init__(self, failure_threshold: int = 3,
                 cooldown_s: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s is not None and cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._consecutive: Dict[str, int] = {}
        self._open: Dict[str, str] = {}        # key -> opening error
        self._opened_at: Dict[str, float] = {}  # key -> (re)open time
        self._trial: set = set()               # keys with a probe in flight
        self._fast_fails: Dict[str, int] = {}

    def _cooled_down(self, key: str) -> bool:
        """(Lock held.)  Has ``key``'s open circuit finished cooling?"""
        if self.cooldown_s is None:
            return False
        opened = self._opened_at.get(key)
        return opened is not None and (
            self._clock() - opened >= self.cooldown_s)

    def allow(self, key: str) -> bool:
        """True while the circuit for ``key`` is closed — or when a
        cooled-down open circuit admits this call as its half-open
        trial (one probe at a time)."""
        with self._lock:
            if key not in self._open:
                return True
            if key in self._trial or not self._cooled_down(key):
                return False
            self._trial.add(key)
            return True

    def check(self, key: str) -> None:
        """Raise :class:`CircuitOpenError` if the circuit is open (and
        not admitting a half-open trial)."""
        if not self.allow(key):
            with self._lock:
                last = self._open.get(key, "failure threshold reached")
            raise CircuitOpenError(
                f"circuit open for {key!r} after "
                f"{self.failure_threshold} consecutive failures "
                f"(last: {last})")

    def record_success(self, key: str) -> None:
        """A unit of ``key`` completed: reset its consecutive counter
        (and fully close a half-open circuit whose trial succeeded)."""
        with self._lock:
            self._consecutive[key] = 0
            self._open.pop(key, None)
            self._opened_at.pop(key, None)
            self._trial.discard(key)

    def record_failure(self, key: str, error: str = "") -> bool:
        """A unit of ``key`` failed; returns True if this trip opened
        the circuit.  A failed half-open trial re-opens the circuit and
        re-arms the cooldown."""
        with self._lock:
            if key in self._open:
                # a failed trial (or straggler): stay open, fresh cooldown
                self._opened_at[key] = self._clock()
                self._trial.discard(key)
                if error:
                    self._open[key] = error
                return False
            count = self._consecutive.get(key, 0) + 1
            self._consecutive[key] = count
            if count >= self.failure_threshold:
                self._open[key] = error or "failure threshold reached"
                self._opened_at[key] = self._clock()
                return True
            return False

    def record_fast_fail(self, key: str) -> None:
        """Count a unit skipped because the circuit was already open."""
        with self._lock:
            self._fast_fails[key] = self._fast_fails.get(key, 0) + 1

    def state(self, key: str) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` for ``key``.

        Half-open means the circuit is open but its cooldown has
        elapsed (or a trial probe is already in flight), so the next
        :meth:`allow` admits — or has admitted — a trial unit.
        """
        with self._lock:
            if key not in self._open:
                return "closed"
            if key in self._trial or self._cooled_down(key):
                return "half_open"
            return "open"

    def open_keys(self) -> List[str]:
        """Sorted keys whose circuits are currently open."""
        with self._lock:
            return sorted(self._open)

    def fast_fail_count(self, key: Optional[str] = None) -> int:
        """Fast-failed unit count for ``key`` (or total across keys)."""
        with self._lock:
            if key is not None:
                return self._fast_fails.get(key, 0)
            return sum(self._fast_fails.values())

    def reset(self, key: Optional[str] = None) -> None:
        """Close the circuit for ``key`` (or all keys)."""
        with self._lock:
            if key is None:
                self._consecutive.clear()
                self._open.clear()
                self._opened_at.clear()
                self._trial.clear()
            else:
                self._consecutive.pop(key, None)
                self._open.pop(key, None)
                self._opened_at.pop(key, None)
                self._trial.discard(key)

    def as_dict(self) -> Dict[str, object]:
        """Manifest-ready snapshot: open circuits and fast-fail counts.

        ``cooldown_s``/``half_open`` appear only when half-open probing
        is configured, keeping snapshots byte-stable for the default
        configuration.
        """
        with self._lock:
            data: Dict[str, object] = {
                "failure_threshold": self.failure_threshold,
                "open": sorted(self._open),
                "fast_fails": dict(sorted(self._fast_fails.items())),
            }
            if self.cooldown_s is not None:
                data["cooldown_s"] = self.cooldown_s
                data["half_open"] = sorted(self._trial)
            return data


class Deadline:
    """A monotonic per-unit time budget.

    Created when a unit starts; :meth:`check` is the deadline-aware
    fault-boundary hook the runner calls once per evaluated question,
    raising :class:`DeadlineExceeded` once the budget is spent.  The
    clock is injectable so tests advance time deterministically.
    """

    def __init__(self, seconds: float,
                 clock: Callable[[], float] = time.monotonic):
        if seconds < 0:
            raise ValueError("deadline must be >= 0 seconds")
        self.seconds = seconds
        self._clock = clock
        self._start = clock()

    @property
    def elapsed(self) -> float:
        """Seconds since the deadline started."""
        return self._clock() - self._start

    @property
    def expired(self) -> bool:
        """True once the budget is spent."""
        return self.elapsed > self.seconds

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self.seconds - self.elapsed)

    def check(self, unit_id: str = "", qid: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed."""
        if self.expired:
            raise DeadlineExceeded(
                f"unit {unit_id or '<unknown>'} exceeded its "
                f"{self.seconds}s deadline"
                + (f" at question {qid}" if qid else ""))


class Watchdog:
    """Marks overdue units ``timed_out`` instead of letting them stall
    silently.

    The cooperative :class:`Deadline` check only fires at boundary
    crossings; a worker wedged *inside* a model call never reaches one.
    The watchdog holds the registry of in-flight ``(unit_id, deadline,
    unit_stats)`` entries and — either from its daemon thread
    (:meth:`start`) or driven synchronously via :meth:`sweep` — flips
    overdue units to ``status="timed_out"`` in the run telemetry and
    fires ``on_timeout`` so the manifest on disk reflects the stall.
    The wedged thread itself cannot be killed (Python threads are not
    cancellable); if it eventually resolves, that resolution wins and
    overwrites the provisional status.

    ``unit_stats`` is duck-typed (any object with ``status`` and
    ``error`` attributes) so this module stays independent of the
    runner.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 interval: float = 0.05,
                 on_timeout: Optional[Callable[[str], None]] = None):
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self._clock = clock
        self.interval = interval
        self.on_timeout = on_timeout
        self._lock = threading.Lock()
        self._active: Dict[str, Tuple[Deadline, object]] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.timed_out: List[str] = []

    def register(self, unit_id: str, deadline: Deadline,
                 unit_stats: object) -> None:
        """Start watching a unit until :meth:`unregister` or timeout."""
        with self._lock:
            self._active[unit_id] = (deadline, unit_stats)

    def unregister(self, unit_id: str) -> None:
        """The unit resolved on its own; stop watching it."""
        with self._lock:
            self._active.pop(unit_id, None)

    def sweep(self) -> List[str]:
        """One monitoring pass; returns unit ids newly marked overdue."""
        overdue: List[Tuple[str, object]] = []
        with self._lock:
            for unit_id, (deadline, unit_stats) in list(self._active.items()):
                if deadline.expired:
                    overdue.append((unit_id, unit_stats))
                    del self._active[unit_id]
        for unit_id, unit_stats in overdue:
            unit_stats.status = "timed_out"
            unit_stats.error = (
                f"DeadlineExceeded: watchdog marked {unit_id} overdue")
            with self._lock:
                self.timed_out.append(unit_id)
            if self.on_timeout is not None:
                self.on_timeout(unit_id)
        return [unit_id for unit_id, _ in overdue]

    def start(self) -> None:
        """Run :meth:`sweep` every ``interval`` seconds on a daemon
        thread until :meth:`stop`."""
        if self._thread is not None:
            return
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(self.interval):
                self.sweep()

        self._thread = threading.Thread(
            target=_loop, name="runner-watchdog", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the daemon thread (final sweep included) and join it."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        self.sweep()


@dataclass(frozen=True)
class QuarantinePolicy:
    """Question-level quarantine of permanently-faulting questions.

    With a policy installed, a :class:`~repro.core.faults.PermanentError`
    raised while evaluating *one question* no longer discards the whole
    unit: the question is recorded as a deterministic incorrect
    :class:`~repro.core.metrics.EvalRecord` with
    ``judge_method="quarantined"`` and the rest of the unit is
    salvaged.  ``max_per_unit`` bounds how many questions a single unit
    may quarantine before the unit is declared poisoned and fails
    outright (``None`` = unlimited) — the signal a circuit breaker
    then aggregates across units.
    """

    max_per_unit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_per_unit is not None and self.max_per_unit < 0:
            raise ValueError("max_per_unit must be >= 0 or None")

    def admit(self, already_quarantined: int) -> bool:
        """May one more question of this unit be quarantined?"""
        if self.max_per_unit is None:
            return True
        return already_quarantined < self.max_per_unit


class AdmissionPolicy:
    """Composable admission/failure policy of one run.

    The three resilience primitives — :class:`CircuitBreaker`,
    :class:`Deadline` and :class:`QuarantinePolicy` — historically
    arrived at the runner as three separate constructor arguments and
    were consulted ad hoc at three different call sites.  An
    ``AdmissionPolicy`` composes them behind one seam:
    :meth:`refuse_unit` is the unit-admission gate the
    :class:`~repro.core.engine.EvalEngine` drivers consult before
    evaluating a unit (breaker fast-fail, cooperative cancellation),
    :meth:`deadline` mints the per-unit time budget, and
    :meth:`may_quarantine` arbitrates question-level salvage.

    The evaluation service builds one policy per submitted job:
    ``deadline_s`` is then the per-tenant deadline, and ``cancelled``
    lets the job's cancel event fast-fail its remaining units mid-run.
    All members are optional; an empty policy admits everything.
    """

    def __init__(self, breaker: Optional[CircuitBreaker] = None,
                 quarantine: Optional[QuarantinePolicy] = None,
                 deadline_s: Optional[float] = None,
                 cancelled: Optional[Callable[[], bool]] = None):
        if deadline_s is not None and deadline_s < 0:
            raise ValueError("deadline_s must be >= 0")
        self.breaker = breaker
        self.quarantine = quarantine
        self.deadline_s = deadline_s
        self.cancelled = cancelled

    def refuse_unit(self, model_key: str) -> Optional[str]:
        """The unit-admission gate: ``None`` admits the unit; a string
        refuses it, and is recorded verbatim as the unit's
        ``fast_failed`` error.

        Cancellation outranks the breaker — a cancelled run must not
        spend breaker bookkeeping on units it will never evaluate.  A
        breaker refusal counts a fast-fail against the model's key.
        """
        if self.cancelled is not None and self.cancelled():
            return ("JobCancelled: run cancelled before this unit "
                    "started")
        if self.breaker is not None and not self.breaker.allow(model_key):
            self.breaker.record_fast_fail(model_key)
            return (
                f"CircuitOpenError: circuit open for model {model_key!r} "
                f"after {self.breaker.failure_threshold} consecutive "
                f"failures")
        return None

    def deadline(self, clock: Callable[[], float] = time.monotonic
                 ) -> Optional[Deadline]:
        """A fresh per-unit :class:`Deadline` (None when unbounded)."""
        if self.deadline_s is None:
            return None
        return Deadline(self.deadline_s, clock=clock)

    def may_quarantine(self, already_quarantined: int) -> bool:
        """May one more question be salvaged as quarantined?  False
        without a quarantine policy — the permanent fault then fails
        the unit, exactly the historical semantics."""
        return (self.quarantine is not None
                and self.quarantine.admit(already_quarantined))

    def record_success(self, model_key: str) -> None:
        """Forward a unit success to the breaker (no-op without one)."""
        if self.breaker is not None:
            self.breaker.record_success(model_key)

    def record_failure(self, model_key: str, error: str = "") -> None:
        """Forward a unit failure to the breaker (no-op without one)."""
        if self.breaker is not None:
            self.breaker.record_failure(model_key, error)


def quarantined_record(question: Question) -> EvalRecord:
    """The deterministic record written for a quarantined question.

    Only stable question facts go in — never the fault message, which
    may differ between runs — so artifacts from a chaos run and a
    fault-free run diverge *only* in the ``correct``/``judge_method``
    fields of quarantined lines.
    """
    return EvalRecord(
        qid=question.qid,
        category=question.category,
        response="",
        correct=False,
        judge_method=QUARANTINED_METHOD,
        perception=0.0,
    )
