"""Fault taxonomy, pluggable fault boundaries, and the chaos harness.

Real VLM evaluation is dominated by remote model calls that fail in two
distinct ways: *transient* faults (rate limits, timeouts, connection
resets) that a retry absorbs, and *permanent* faults (content filters,
revoked credentials, malformed requests) that no amount of retrying
fixes.  The :class:`~repro.core.runner.ParallelRunner` threads every
model call through a **fault boundary** — a pluggable hook invoked once
per (unit, question) evaluation — so tests can inject either class of
failure deterministically and benchmarks can emulate the call latency
that parallel workers exist to hide.

Beyond boundary faults, the chaos harness injects failures at the
*artifact* layer: :class:`ChaosCheckpointWriter` simulates process
kills mid-checkpoint (:class:`SimulatedCrash`) and silent torn writes,
which the checksummed resume path of :mod:`repro.core.results_io` must
detect and repair.  ``tests/test_chaos.py`` proves a run under the full
stack (flakes + poison + judge faults + crashes + tears) converges to
artifacts byte-identical to a fault-free run.

All boundaries here are thread-safe: the runner invokes them
concurrently from its worker pool.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Mapping, Sequence, Tuple,
)


class ModelCallError(RuntimeError):
    """Base class for simulated model-call failures."""


class TransientModelError(ModelCallError):
    """A retryable failure (timeout, rate limit, dropped connection)."""


class PermanentError(ModelCallError):
    """A non-retryable failure; the unit is recorded as failed and
    skipped without killing the rest of the run."""


class SimulatedCrash(RuntimeError):
    """A simulated process kill (chaos injection).

    Deliberately *not* a :class:`ModelCallError`: the runner's fault
    handling must not absorb it — like a real ``kill -9`` it escapes
    the run, leaving whatever artifacts were (partially) written for
    the next launch to resume from.
    """


class NodeKilled(RuntimeError):
    """A coordinator node died mid-unit (chaos injection or real).

    Raised when a :class:`~repro.core.coordinator.Node`'s process group
    breaks (``BrokenProcessPool``, SIGKILL) or when the chaos harness
    scripts an in-process node death.  Like :class:`SimulatedCrash` it
    is *not* a :class:`ModelCallError` — no retry/quarantine layer may
    absorb it; only the coordinator's lease/steal machinery handles it,
    by requeueing the node's unit for a healthy sibling.
    """


class FaultBoundary:
    """Base boundary: never faults.

    Subclasses override :meth:`check`, which is called once per
    evaluated question *before* its answer is accepted; raising
    :class:`TransientModelError` triggers the runner's retry/backoff
    path, raising :class:`PermanentError` fails the unit.
    """

    def check(self, unit_id: str, qid: str) -> None:
        """Hook point; the default implementation is a no-op."""

    def __call__(self, unit_id: str, qid: str) -> None:
        self.check(unit_id, qid)


class RecordingBoundary(FaultBoundary):
    """Counts boundary crossings without ever faulting (test spy).

    ``calls`` retains every ``(unit_id, qid)`` pair in invocation order;
    :meth:`calls_for` filters by unit — the resume tests use this to
    prove finished units are not re-evaluated.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls: List[Tuple[str, str]] = []

    def check(self, unit_id: str, qid: str) -> None:
        with self._lock:
            self.calls.append((unit_id, qid))

    def calls_for(self, unit_id: str) -> List[str]:
        with self._lock:
            return [qid for uid, qid in self.calls if uid == unit_id]

    def units_evaluated(self) -> List[str]:
        """Unique unit ids that crossed the boundary, in first-call order."""
        seen: List[str] = []
        with self._lock:
            for uid, _ in self.calls:
                if uid not in seen:
                    seen.append(uid)
        return seen


class ScriptedFaults(FaultBoundary):
    """Raise a scripted sequence of exceptions per question id.

    ``script`` maps a qid (or ``"unit_id::qid"`` for unit-scoped
    entries) to a list of exceptions consumed one per boundary crossing;
    once the list is exhausted the question succeeds.  This makes
    "fails twice then recovers" one line of test setup::

        ScriptedFaults({"dig-01": [TransientModelError("429"),
                                   TransientModelError("timeout")]})
    """

    def __init__(self, script: Mapping[str, Sequence[Exception]]):
        self._lock = threading.Lock()
        self._pending: Dict[str, List[Exception]] = {
            key: list(faults) for key, faults in script.items()
        }

    def check(self, unit_id: str, qid: str) -> None:
        with self._lock:
            for key in (f"{unit_id}::{qid}", qid):
                pending = self._pending.get(key)
                if pending:
                    raise pending.pop(0)

    def exhausted(self) -> bool:
        """True once every scripted fault has been raised."""
        with self._lock:
            return not any(self._pending.values())


class FlakyBoundary(FaultBoundary):
    """Deterministic pseudo-random transient faults.

    A stable fraction ``rate`` of (unit, question) pairs — chosen by
    hashing, so independent of thread scheduling — fail with
    :class:`TransientModelError` on their first ``failures`` crossings
    and succeed afterwards.  A run under this boundary must converge to
    artifacts byte-identical to a fault-free run.
    """

    def __init__(self, rate: float = 0.1, failures: int = 1, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if failures < 1:
            raise ValueError("failures must be >= 1")
        self.rate = rate
        self.failures = failures
        self.seed = seed
        self._lock = threading.Lock()
        self._crossings: Dict[Tuple[str, str], int] = {}

    def _is_flaky(self, unit_id: str, qid: str) -> bool:
        digest = hashlib.sha256(
            f"{self.seed}|{unit_id}|{qid}".encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") / 2 ** 32 < self.rate

    def check(self, unit_id: str, qid: str) -> None:
        if not self._is_flaky(unit_id, qid):
            return
        key = (unit_id, qid)
        with self._lock:
            crossing = self._crossings.get(key, 0)
            self._crossings[key] = crossing + 1
        if crossing < self.failures:
            raise TransientModelError(
                f"injected flake {crossing + 1}/{self.failures} for {qid}")


class LatencyBoundary(FaultBoundary):
    """Emulate per-call model latency (never faults).

    Real sweeps are dominated by network round-trips, which is exactly
    what thread workers overlap; the scaling benchmark uses this
    boundary so speedups reflect the API-bound regime rather than
    single-core CPU contention.  ``sleep`` is injectable for tests.
    """

    def __init__(self, per_question: float = 0.001,
                 sleep: Callable[[float], None] = time.sleep):
        if per_question < 0:
            raise ValueError("per_question latency must be >= 0")
        self.per_question = per_question
        self._sleep = sleep

    def check(self, unit_id: str, qid: str) -> None:
        if self.per_question:
            self._sleep(self.per_question)


class BusyBoundary(FaultBoundary):
    """Burn CPU while *holding the GIL* on every crossing (never faults).

    The inverse of :class:`LatencyBoundary`: instead of sleeping (which
    releases the GIL and lets thread workers overlap), each crossing
    runs a tight ``sha256`` chain over tiny buffers — pure Python-level
    compute the interpreter cannot parallelise across threads.  The
    process-scaling benchmark uses this to model the CPU-bound regime
    where only :class:`~repro.core.executor.ProcessBackend` scales.
    Stateless, hence trivially picklable for process workers.
    """

    def __init__(self, spins: int = 400):
        if spins < 0:
            raise ValueError("spins must be >= 0")
        self.spins = spins

    def check(self, unit_id: str, qid: str) -> None:
        digest = hashlib.sha256(f"{unit_id}|{qid}".encode("utf-8")).digest()
        for _ in range(self.spins):
            # small buffers keep hashlib from releasing the GIL
            digest = hashlib.sha256(digest).digest()


class WorkerKillBoundary(FaultBoundary):
    """SIGKILL the current process at a scripted (unit, question) crossing.

    Simulates a real worker-process death — OOM kill, segfault, operator
    ``kill -9`` — which no in-process exception handling can observe;
    only the parent's broken-pool recovery (or a relaunch, for in-process
    backends) can handle it.  ``kill_on`` is a qid or ``"unit_id::qid"``
    as in :class:`ScriptedFaults`.

    The one-shot latch is a *file*, not memory, so it survives both the
    process boundary and relaunches: the first worker to reach the
    scripted crossing claims ``flag_path`` atomically (``O_EXCL``) and
    dies; every later crossing — same run, sibling worker, or a resumed
    launch — sees the flag and passes.  No locks, so instances pickle
    cleanly into process-backend workers.
    """

    def __init__(self, flag_path: "Path | str", kill_on: str):
        self.flag_path = str(flag_path)
        self.kill_on = kill_on

    def check(self, unit_id: str, qid: str) -> None:
        if qid != self.kill_on and f"{unit_id}::{qid}" != self.kill_on:
            return
        try:
            fd = os.open(self.flag_path,
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)


class NodeCrashBoundary(FaultBoundary):
    """Kill the executing coordinator node at a scripted crossing.

    The in-process analogue of :class:`WorkerKillBoundary` for
    coordinator chaos tests: instead of SIGKILLing a worker process it
    raises :class:`NodeKilled`, which escapes the evaluation stack
    (nothing below the coordinator absorbs it) and takes the node out
    of the fleet mid-unit.  ``crash_on`` is a qid or ``"unit_id::qid"``.
    The one-shot latch is a flag file claimed with ``O_EXCL`` — exactly
    as in :class:`WorkerKillBoundary` — so the crossing faults once per
    flag even across the re-execution that work-stealing triggers.
    """

    def __init__(self, flag_path: "Path | str", crash_on: str):
        self.flag_path = str(flag_path)
        self.crash_on = crash_on

    def check(self, unit_id: str, qid: str) -> None:
        if qid != self.crash_on and f"{unit_id}::{qid}" != self.crash_on:
            return
        try:
            fd = os.open(self.flag_path,
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        raise NodeKilled(f"injected node death at {unit_id}::{qid}")


class GateBoundary(FaultBoundary):
    """Wedge the executing node at a scripted crossing (never faults).

    Models a heartbeat blackout: the node thread blocks inside the
    crossing, so it stops beating and stops renewing its lease while
    remaining alive — the coordinator must steal its unit and a healthy
    node must finish it.  ``block_on`` is a qid or ``"unit_id::qid"``.
    The flag-file latch makes the gate one-shot, so the stolen
    re-execution of the same unit passes straight through.  The block
    releases when :meth:`release` is called or after ``max_block_s``
    (so a test's wedged thread always unwinds before the run is torn
    down).  Thread-state (an Event) makes this inline-node only.
    """

    def __init__(self, flag_path: "Path | str", block_on: str,
                 max_block_s: float = 30.0):
        if max_block_s <= 0:
            raise ValueError("max_block_s must be > 0")
        self.flag_path = str(flag_path)
        self.block_on = block_on
        self.max_block_s = max_block_s
        self._gate = threading.Event()

    def release(self) -> None:
        """Unblock a currently-gated (and any future) crossing."""
        self._gate.set()

    def check(self, unit_id: str, qid: str) -> None:
        if qid != self.block_on and f"{unit_id}::{qid}" != self.block_on:
            return
        try:
            fd = os.open(self.flag_path,
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        self._gate.wait(timeout=self.max_block_s)


class HeartbeatBoundary(FaultBoundary):
    """Invoke a beat callback on every crossing (never faults).

    The coordinator composes this *first* in a node's boundary chain so
    each evaluated question doubles as a liveness signal: the callback
    renews the node's lease.  Carries a live callable, hence not
    picklable — inline nodes only; process nodes use
    :class:`FileHeartbeatBoundary`.
    """

    def __init__(self, beat: Callable[[], None]):
        self._beat = beat

    def check(self, unit_id: str, qid: str) -> None:
        self._beat()


class FileHeartbeatBoundary(FaultBoundary):
    """Touch a file on every crossing (never faults; picklable).

    The cross-process heartbeat: a worker process cannot call back into
    the coordinator, so it bumps a per-node file's mtime instead and
    the coordinator's monitor reads the advancing mtime as liveness.
    No locks or live objects, so instances pickle cleanly into process
    workers.
    """

    def __init__(self, path: "Path | str"):
        self.path = str(path)

    def check(self, unit_id: str, qid: str) -> None:
        with open(self.path, "ab"):
            pass
        os.utime(self.path, None)


class CompositeBoundary(FaultBoundary):
    """Chain several boundaries; each crossing visits all in order.

    A raising boundary short-circuits the chain: boundaries after it
    are not consulted for that crossing (so e.g. a latency boundary
    placed *after* a fault injector does not sleep for calls that
    failed before reaching the provider).
    """

    def __init__(self, *boundaries: FaultBoundary):
        self.boundaries = boundaries

    def check(self, unit_id: str, qid: str) -> None:
        for boundary in self.boundaries:
            boundary.check(unit_id, qid)


class PoisonedQuestions(FaultBoundary):
    """Permanently fail a fixed set of questions on *every* crossing.

    Keys are qids or ``"unit_id::qid"`` for unit-scoped poison.  Unlike
    :class:`ScriptedFaults` the fault never exhausts — this models a
    genuinely poison input (a request the provider always rejects),
    the case question-level quarantine exists to salvage.
    """

    def __init__(self, keys: Iterable[str], message: str = "poison input"):
        self._keys = frozenset(keys)
        self.message = message

    def check(self, unit_id: str, qid: str) -> None:
        if qid in self._keys or f"{unit_id}::{qid}" in self._keys:
            raise PermanentError(f"{self.message}: {qid}")


class ChaosCheckpointWriter:
    """Injectable checkpoint writer that simulates kills and torn writes.

    The runner checkpoints through a pluggable ``(path, text)`` writer
    (default: :func:`repro.core.results_io.atomic_write_text`).  This
    chaos variant consults two one-shot scripts keyed by the artifact's
    file stem (the unit id):

    * ``crash_on`` — write only ``keep_fraction`` of the payload
      *directly to the final path* (a non-atomic torn write, as a
      pre-rename kill of a naive writer would leave) and raise
      :class:`SimulatedCrash`, aborting the run mid-checkpoint;
    * ``tear_on`` — the same torn write, but silently: the run carries
      on believing the checkpoint landed, and only a checksum-verifying
      resume or ``repro verify-run`` can tell.

    Each stem faults once; subsequent writes go through atomically, so
    a relaunch loop converges.  ``crashes`` and ``tears`` record the
    stems actually faulted, in order, for assertions.
    """

    def __init__(self, crash_on: Iterable[str] = (),
                 tear_on: Iterable[str] = (),
                 keep_fraction: float = 0.5):
        if not 0.0 <= keep_fraction < 1.0:
            raise ValueError("keep_fraction must be in [0, 1)")
        self._lock = threading.Lock()
        self._pending_crash = set(crash_on)
        self._pending_tear = set(tear_on)
        self.keep_fraction = keep_fraction
        self.crashes: List[str] = []
        self.tears: List[str] = []

    def pending(self) -> bool:
        """True while any scripted crash or tear has not fired yet."""
        with self._lock:
            return bool(self._pending_crash or self._pending_tear)

    def __call__(self, path: "Path | str", text: str) -> None:
        from repro.core.results_io import atomic_write_text

        path = Path(path)
        stem = path.stem
        with self._lock:
            if stem in self._pending_crash:
                self._pending_crash.discard(stem)
                self.crashes.append(stem)
                mode = "crash"
            elif stem in self._pending_tear:
                self._pending_tear.discard(stem)
                self.tears.append(stem)
                mode = "tear"
            else:
                mode = "clean"
        if mode == "clean":
            atomic_write_text(path, text)
            return
        torn = text[: max(1, int(len(text) * self.keep_fraction))]
        path.write_text(torn, encoding="utf-8")
        if mode == "crash":
            raise SimulatedCrash(f"simulated kill mid-checkpoint of {stem}")
