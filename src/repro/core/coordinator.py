"""Fault-tolerant multi-node sweep coordination.

:class:`SweepCoordinator` partitions a sweep into work units and
dispatches them to N :class:`Node` workers, surviving the failures a
fleet actually exhibits — stragglers, wedged nodes, killed process
groups, corrupted shared state — while converging to artifacts
byte-identical to a single-node run.  Three mechanisms carry that
guarantee:

* **Leases + work-stealing** — a node owns a unit only while its lease
  is live; every fault-boundary crossing doubles as a heartbeat that
  renews the lease (:class:`~repro.core.faults.HeartbeatBoundary`
  in-process, :class:`~repro.core.faults.FileHeartbeatBoundary` across
  processes).  A lease that expires — the node died, wedged, or blacked
  out — returns the unit to the queue, where a healthy node steals it.
* **Exactly-once commit accounting** — results are recorded in an
  append-only, sha256-chained commit log
  (:data:`~repro.core.results_io.COMMIT_LOG_NAME`).  A unit re-executed
  after a steal is *deduplicated at commit time*: an identical payload
  is a counted ``duplicate``, a differing payload raises
  :class:`CommitConflict` (corruption must be loud).  A torn log tail
  is repaired on open by truncating to the longest valid chain prefix.
* **Shared result tier with quarantine** — :class:`ResultStore`
  promotes the :class:`~repro.core.perfstats.SpillStore` to a
  cross-node artifact tier; a corrupt entry (bit flip, truncation,
  commit-log disagreement) is evicted and rebuilt, never crashes a
  node.

Degradation is graceful: the coordinator finishes a sweep with fewer
nodes than it started with, and surfaces ``nodes_lost`` /
``units_stolen`` / ``lease_expirations`` through
:meth:`~repro.core.runner.RunStats.record_coordinator` into the
manifest and ``--cache-stats``.  ``tests/test_chaos.py`` proves the
four chaos scenarios (node kill mid-unit, heartbeat blackout,
commit-log tear, store bit-flip) all converge to the golden Table II
digest.  See ``docs/COORDINATOR.md``.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import os
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Set,
    Tuple,
)

from repro.core import executor as executor_mod
from repro.core import perfstats, results_io
from repro.core.engine import EvalEngine, payload_digest
from repro.core.faults import (
    FaultBoundary,
    FileHeartbeatBoundary,
    HeartbeatBoundary,
    NodeKilled,
)
from repro.core.metrics import EvalResult
from repro.core.resilience import (
    AdmissionPolicy,
    CircuitBreaker,
    QuarantinePolicy,
)
from repro.core.runner import (
    RetryPolicy,
    RunOutcome,
    RunStats,
    WorkUnit,
)

if TYPE_CHECKING:  # a process node imports the pool where it forks
    from concurrent.futures import ProcessPoolExecutor

#: Re-exported for convenience; the constant lives in results_io so
#: ``verify_run`` can special-case the file without importing us.
COMMIT_LOG_NAME = results_io.COMMIT_LOG_NAME

#: ``prev`` hash of the first commit entry (an all-zero digest).
GENESIS = "0" * 64

#: Node execution modes accepted by :class:`SweepCoordinator`.
NODE_BACKENDS: Tuple[str, ...] = ("inline", "process")

#: How long a finished run waits for each healthy node thread to exit.
DRAIN_TIMEOUT_S = 10.0


class CommitConflict(RuntimeError):
    """Two *different* result payloads claimed the same unit.

    Deterministic evaluation means a re-executed unit must reproduce
    its committed payload byte-for-byte; a mismatch is corruption (or a
    config drift mid-run) and must abort the run rather than silently
    pick a winner.
    """


def _entry_digest(body: Dict[str, object]) -> str:
    """SHA-256 of one commit entry's canonical (sorted-keys) body dump."""
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


_ENTRY_FIELDS = frozenset(
    ("unit_id", "payload_sha256", "node", "prev", "seq"))


def _read_chain(
        path: Path) -> Tuple[List[str], List[Dict[str, object]], int, str]:
    """Walk a commit log, returning its longest valid chain prefix.

    Returns ``(valid_lines, valid_entries, total_lines, detail)`` where
    ``detail`` describes the first broken entry (empty when the whole
    chain verifies).  Each entry must parse, carry every field, hash to
    its recorded ``entry_sha256``, chain ``prev`` to the previous
    entry's hash, and hold the next sequence number.
    """
    lines = [line for line in
             path.read_text(encoding="utf-8").splitlines() if line.strip()]
    head = GENESIS
    valid_lines: List[str] = []
    entries: List[Dict[str, object]] = []
    detail = ""
    for index, line in enumerate(lines):
        try:
            entry = json.loads(line)
        except ValueError as exc:
            detail = f"unparseable entry: {exc}"
            break
        if not isinstance(entry, dict):
            detail = "entry is not an object"
            break
        recorded = entry.get("entry_sha256")
        body = {key: value for key, value in entry.items()
                if key != "entry_sha256"}
        if not _ENTRY_FIELDS.issubset(body):
            detail = f"missing fields {sorted(_ENTRY_FIELDS - set(body))}"
            break
        if body["prev"] != head:
            detail = "prev-hash does not chain to the previous entry"
            break
        if body["seq"] != index:
            detail = f"sequence gap: expected {index}, found {body['seq']}"
            break
        if _entry_digest(body) != recorded:
            detail = "entry checksum mismatch"
            break
        head = recorded
        valid_lines.append(line)
        entries.append(body)
    return valid_lines, entries, len(lines), detail


def audit_commit_log(path: "Path | str") -> Tuple[int, int, str]:
    """Verify a commit log's hash chain without modifying it.

    Returns ``(valid_entries, total_lines, detail)``; the chain is
    whole iff ``valid_entries == total_lines``.  Backs the
    ``commits.jsonl`` special case in
    :func:`repro.core.results_io.verify_run`.
    """
    _, entries, total, detail = _read_chain(Path(path))
    return len(entries), total, detail


class CommitLog:
    """Append-only, sha256-chained record of committed unit results.

    Each line is a JSON object ``{unit_id, payload_sha256, node, prev,
    seq, entry_sha256}`` where ``entry_sha256`` hashes the canonical
    body and ``prev`` chains to the previous entry's hash (the first
    entry chains to :data:`GENESIS`) — so any torn tail, reorder or
    edit breaks verification at a precise entry.  Appends go through a
    single ``O_APPEND`` write under a lock: concurrent committers
    serialise, and a crash can tear at most the final line, which
    :meth:`open` repairs by truncating to the valid prefix (counted in
    :attr:`repaired`).

    :meth:`commit` is the exactly-once gate: committing a unit that is
    already in the log returns ``"duplicate"`` without appending when
    the payload digest matches, and raises :class:`CommitConflict` when
    it does not.  With ``path=None`` the log is memory-only (run
    directories are optional).
    """

    def __init__(self, path: "Optional[Path | str]" = None) -> None:
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._head = GENESIS
        self._seq = 0
        self._committed: Dict[str, str] = {}
        #: entries dropped by tail repair at :meth:`open` time
        self.repaired = 0

    @classmethod
    def open(cls, path: "Path | str", fresh: bool = False) -> "CommitLog":
        """Load (and, if needed, repair) the commit log at ``path``.

        ``fresh=True`` discards any existing log — the non-resume path,
        where stale commits must not shadow a from-scratch run.  A torn
        or corrupted tail is truncated to the longest valid chain
        prefix, atomically rewritten, and counted in :attr:`repaired`.
        """
        log = cls(path)
        assert log.path is not None
        if fresh:
            try:
                log.path.unlink()
            except FileNotFoundError:
                pass
            return log
        if not log.path.exists():
            return log
        valid_lines, entries, total, _detail = _read_chain(log.path)
        if len(valid_lines) < total:
            results_io.atomic_write_text(
                log.path, "".join(line + "\n" for line in valid_lines))
            log.repaired = total - len(valid_lines)
        for body in entries:
            log._committed[str(body["unit_id"])] = str(body["payload_sha256"])
            log._head = _entry_digest(body)
            log._seq += 1
        return log

    def committed(self, unit_id: str) -> Optional[str]:
        """The committed payload digest for ``unit_id`` (None if absent)."""
        with self._lock:
            return self._committed.get(unit_id)

    def commit(self, unit_id: str, payload_sha256: str, node: str) -> str:
        """Record a unit result; returns ``"committed"`` or ``"duplicate"``.

        A duplicate (same unit, same payload digest — the signature of
        a re-execution after a stolen lease) is deduplicated without a
        second append.  A same-unit commit with a *different* digest
        raises :class:`CommitConflict`.
        """
        with self._lock:
            existing = self._committed.get(unit_id)
            if existing is not None:
                if existing != payload_sha256:
                    raise CommitConflict(
                        f"unit {unit_id!r}: node {node!r} produced payload "
                        f"{payload_sha256[:12]}… but {existing[:12]}… is "
                        f"already committed — double-commit corruption")
                return "duplicate"
            body: Dict[str, object] = {
                "unit_id": unit_id,
                "payload_sha256": payload_sha256,
                "node": node,
                "prev": self._head,
                "seq": self._seq,
            }
            entry_sha = _entry_digest(body)
            if self.path is not None:
                line = json.dumps(dict(body, entry_sha256=entry_sha),
                                  sort_keys=True) + "\n"
                fd = os.open(str(self.path),
                             os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
                try:
                    os.write(fd, line.encode("utf-8"))
                finally:
                    os.close(fd)
            self._committed[unit_id] = payload_sha256
            self._head = entry_sha
            self._seq += 1
            return "committed"

    def append_commit(self, unit_id: str, payload: str,
                      node: str) -> Tuple[str, str]:
        """Commit a unit straight from its serialized payload bytes.

        The sha256 that enters the hash chain is computed over
        ``payload`` **here, once** — callers holding only the bytes
        need not pre-hash them, and the chain provably covers the exact
        bytes that were checkpointed (no parse/re-dump hop in between).
        Returns ``(status, digest)`` with the same
        ``"committed"`` / ``"duplicate"`` / :class:`CommitConflict`
        semantics as :meth:`commit`, so the digest can be carried on to
        the other artifact tiers.
        """
        digest = payload_digest(payload)
        return self.commit(unit_id, digest, node), digest

    def __len__(self) -> int:
        with self._lock:
            return len(self._committed)


@dataclass
class Lease:
    """One unit's current ownership claim."""

    node: str
    expires_at: float


class LeaseTable:
    """Unit-ownership leases with expiry and steal detection.

    Not self-locking: the coordinator guards every call with its fleet
    lock, which keeps acquire/renew/expire decisions atomic with the
    queue and terminal-set state they act on.
    """

    def __init__(self, lease_s: float) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        self.lease_s = lease_s
        self._leases: Dict[str, Lease] = {}
        self._last_owner: Dict[str, str] = {}

    def acquire(self, unit_id: str, node: str, now: float) -> bool:
        """Lease ``unit_id`` to ``node``; True when this is a *steal*
        (a different node held the unit before)."""
        previous = self._last_owner.get(unit_id)
        self._leases[unit_id] = Lease(node, now + self.lease_s)
        self._last_owner[unit_id] = node
        return previous is not None and previous != node

    def renew_node(self, node: str, now: float) -> None:
        """Extend every lease ``node`` holds (called on its heartbeat)."""
        for lease in self._leases.values():
            if lease.node == node:
                lease.expires_at = now + self.lease_s

    def release(self, unit_id: str, node: str) -> None:
        """Drop ``node``'s lease on ``unit_id`` (no-op if not the holder)."""
        lease = self._leases.get(unit_id)
        if lease is not None and lease.node == node:
            del self._leases[unit_id]

    def holder(self, unit_id: str) -> Optional[str]:
        """The node currently leasing ``unit_id``, if any."""
        lease = self._leases.get(unit_id)
        return lease.node if lease is not None else None

    def expired(self, now: float) -> List[Tuple[str, str]]:
        """(unit_id, node) pairs whose lease has lapsed at ``now``."""
        return [(unit_id, lease.node)
                for unit_id, lease in self._leases.items()
                if lease.expires_at <= now]


def _decode_payload(payload: object) -> str:
    """Spill-store decoder: a stored unit result must be a string."""
    if not isinstance(payload, str):
        raise TypeError("unit-result payload must be a string")
    return payload


class ResultStore:
    """Shared cross-node result tier with corruption quarantine.

    Promotes the :class:`~repro.core.perfstats.SpillStore` to the
    fleet's artifact tier: committed unit payloads are written through
    (content-addressed by unit id, provider fingerprint and dataset
    size) so a resumed or rebuilt run can recover results whose
    checkpoints were lost.  :meth:`get` verifies everything before
    trusting an entry — checkpoint-format checksum, unit metadata, and
    (when the commit log knows the unit) the committed payload digest;
    a failing entry is **quarantined**: evicted from disk, counted, and
    reported as a miss so the caller rebuilds instead of crashing.
    """

    def __init__(self, root: "Path | str") -> None:
        self._store = perfstats.SpillStore(
            root, "unit_results", lambda payload: payload, _decode_payload)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.digest_reuse = 0
        #: sha256 of what this process last wrote per unit — lets a
        #: duplicate commit (stolen lease, rebuilt checkpoint) skip the
        #: redundant disk write instead of re-spilling identical bytes
        self._written: Dict[str, str] = {}

    def key_for(self, unit: WorkUnit) -> Tuple[object, ...]:
        """Content-addressed store key of ``unit``'s result."""
        return ("unit_result", unit.unit_id,
                unit.provider.config_fingerprint(), len(unit.dataset))

    def path_for(self, unit: WorkUnit) -> Path:
        """On-disk location of ``unit``'s entry (for chaos injection)."""
        return self._store.path_for(self.key_for(unit))

    def get(self, unit: WorkUnit,
            expected_sha256: Optional[str] = None) -> Optional[str]:
        """The verified payload for ``unit``, or None (miss/quarantine)."""
        key = self.key_for(unit)
        payload = self._store.get(key)
        if payload is None:
            with self._lock:
                self.misses += 1
            return None
        try:
            if not EvalEngine.matches(results_io.loads(payload), unit):
                raise ValueError("stored result does not match the unit")
            if (expected_sha256 is not None
                    and payload_digest(payload) != expected_sha256):
                raise ValueError(
                    "stored result disagrees with the commit log")
        except (KeyError, TypeError, ValueError):
            self._store.evict(key)
            with self._lock:
                self.quarantined += 1
                self.misses += 1
                # the disk entry is gone: a rebuild's put must rewrite
                # even if it reproduces the exact bytes we spilled
                self._written.pop(unit.unit_id, None)
            return None
        with self._lock:
            self.hits += 1
        return payload

    def put(self, unit: WorkUnit, payload: str,
            digest: Optional[str] = None) -> None:
        """Write ``unit``'s committed payload through to the tier.

        ``digest`` is the payload's sha256 when the caller already
        holds it (the serialize-once commit path always does); the
        reuse is counted in ``store_digest_reuse`` and saves this tier
        its own hash.  Either way the digest keys a write-dedup check:
        re-committing bytes this process already spilled for the unit
        (a stolen lease finishing twice, a rebuilt checkpoint) skips
        the redundant disk write.
        """
        if digest is not None:
            with self._lock:
                self.digest_reuse += 1
        else:
            digest = payload_digest(payload)
        with self._lock:
            if self._written.get(unit.unit_id) == digest:
                return
        self._store.put(self.key_for(unit), payload)
        with self._lock:
            self._written[unit.unit_id] = digest

    def counters(self) -> Dict[str, int]:
        """Traffic counters for the coordinator's stats block."""
        with self._lock:
            return {"store_hits": self.hits,
                    "store_misses": self.misses,
                    "store_quarantined": self.quarantined,
                    "store_digest_reuse": self.digest_reuse}


class Node:
    """One member of the coordinator's fleet.

    ``mode="inline"`` evaluates units on the node's own thread through
    :func:`repro.core.executor.process_worker` — the same code path as
    a worker process, minus the fork; right for the API-bound regime
    and for deterministic tests.  ``mode="process"`` gives the node a
    single-worker process group, built, forked (under the process-wide
    spawn lock) and killed by a
    :class:`~repro.core.executor.ProcessBackend`; a broken group
    (SIGKILL, segfault) raises :class:`~repro.core.faults.NodeKilled`,
    which is a *node death*, not a unit failure — the coordinator
    requeues the unit and retires the node (no respawn; that is
    :class:`~repro.core.executor.ProcessBackend`'s job for worker-level
    deaths).
    """

    def __init__(self, node_id: str, mode: str,
                 clock: Callable[[], float] = time.monotonic,
                 heartbeat_path: "Optional[Path | str]" = None) -> None:
        if mode not in NODE_BACKENDS:
            raise ValueError(
                f"unknown node backend {mode!r}; expected one of "
                f"{NODE_BACKENDS}")
        self.node_id = node_id
        self.mode = mode
        self._clock = clock
        self.heartbeat_path = (Path(heartbeat_path)
                               if heartbeat_path is not None else None)
        self.last_beat = clock()
        self._hb_mtime = -1.0
        self.lost = False
        self.busy = False
        self.current_unit: Optional[str] = None
        #: the group's owner; inline nodes build none, so they never
        #: load multiprocessing
        self._backend = (executor_mod.ProcessBackend(1)
                         if mode == "process" else None)
        self._pool: Optional[ProcessPoolExecutor] = None

    def begin(self, unit_id: str, now: float) -> None:
        """Mark the node busy on ``unit_id`` (resets its beat clock)."""
        self.busy = True
        self.current_unit = unit_id
        self.last_beat = now

    def finish(self, now: float) -> None:
        """Mark the node idle again."""
        self.busy = False
        self.current_unit = None
        self.last_beat = now

    def beat(self, now: float) -> None:
        """Record a liveness signal (inline-mode heartbeat)."""
        self.last_beat = now

    def refresh_beat(self, now: float) -> bool:
        """Fold heartbeat-file mtime advancement into ``last_beat``.

        Process-mode nodes beat by touching a file from the worker
        process; the monitor calls this to observe it.  Returns True
        when the node has beaten since the last check.
        """
        if self.heartbeat_path is None:
            return False
        try:
            mtime = self.heartbeat_path.stat().st_mtime
        except OSError:
            return False
        if mtime > self._hb_mtime:
            self._hb_mtime = mtime
            self.last_beat = now
            return True
        return False

    def execute(self, spec: executor_mod.UnitSpec,
                options: executor_mod.WorkerOptions,
                poll_interval: float = 0.05) -> executor_mod.WorkerResult:
        """Run one unit spec to completion on this node.

        Raises :class:`~repro.core.faults.NodeKilled` when the node's
        process group dies under the unit or the coordinator declared
        the node lost mid-execution (the group is then killed rather
        than left running as a zombie committer).
        """
        backend = self._backend
        if backend is None:  # inline
            return executor_mod.process_worker(spec, options)
        from concurrent.futures.process import BrokenProcessPool

        try:
            if self._pool is None:
                self._pool = backend._new_pool()
            # submit raises BrokenProcessPool itself when the group died
            # after its last unit returned
            future = backend.submit(self._pool, executor_mod.process_worker,
                                    spec, options)
            while True:
                try:
                    return future.result(timeout=poll_interval)
                except FutureTimeout:
                    if self.lost:
                        self.kill()
                        raise NodeKilled(
                            f"{self.node_id} declared lost while running "
                            f"{spec.setting!r} unit; process group killed")
        except BrokenProcessPool as exc:
            self._pool = None
            raise NodeKilled(
                f"{self.node_id} worker process died: "
                f"{type(exc).__name__}") from exc

    def kill(self) -> None:
        """Forcefully terminate the node's process group (if any)."""
        if self._pool is not None:
            executor_mod.ProcessBackend._kill_pool(self._pool)
            self._pool = None

    def shutdown(self) -> None:
        """Release the node's process group without waiting."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


class SweepCoordinator:
    """Partition a sweep across N fault-tolerant nodes.

    Drop-in for :class:`~repro.core.runner.ParallelRunner` where sweeps
    consume it (``run(units)`` → :class:`~repro.core.runner.RunOutcome`,
    plus ``last_stats`` and ``workers``), but execution is a *fleet*:
    each node pulls units from a shared queue under a lease, heartbeats
    while evaluating, and commits results exactly once through the
    chained commit log.  See the module docstring for the failure
    model and ``docs/COORDINATOR.md`` for the full matrix.

    ``lease_s`` bounds how long a silent node keeps a unit;
    ``heartbeat_timeout_s`` (default ``2 * lease_s``) is the harsher
    threshold past which a busy, silent node is declared *lost* — its
    unit is stolen either way, but a lost node is also retired from
    the fleet and its late result dropped.
    """

    def __init__(
        self,
        nodes: int = 2,
        harness=None,
        node_backend: str = "inline",
        run_dir: "Optional[Path | str]" = None,
        resume: bool = True,
        retry: Optional[RetryPolicy] = None,
        fault_boundary: Optional[FaultBoundary] = None,
        quarantine: Optional[QuarantinePolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        deadline_s: Optional[float] = None,
        lease_s: float = 30.0,
        heartbeat_timeout_s: Optional[float] = None,
        poll_interval: float = 0.02,
        store_dir: "Optional[Path | str]" = None,
        spill_dir: "Optional[Path | str]" = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        checkpoint_writer: Optional[Callable[[Path, str], None]] = None,
    ) -> None:
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        if node_backend not in NODE_BACKENDS:
            raise ValueError(
                f"unknown node backend {node_backend!r}; expected one of "
                f"{NODE_BACKENDS}")
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")
        self.nodes = nodes
        self.node_backend = node_backend
        #: the unit-lifecycle and artifact core: it holds the attempt-loop
        #: configuration shipped to every node, runs admission and the
        #: completion epilogue, and carries the per-run commit log and
        #: shared store that :meth:`run` attaches.
        self.engine = EvalEngine(
            run_dir=run_dir, resume=resume,
            checkpoint_writer=checkpoint_writer,
            admission=AdmissionPolicy(
                breaker=breaker, quarantine=quarantine,
                deadline_s=deadline_s),
            harness=harness, retry=retry, fault_boundary=fault_boundary)
        self.engine.manifest_extra = lambda: {
            "coordinator": self._snapshot_counters()}
        self.lease_s = lease_s
        self.heartbeat_timeout_s = (heartbeat_timeout_s
                                    if heartbeat_timeout_s is not None
                                    else 2.0 * lease_s)
        self.poll_interval = poll_interval
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._clock = clock
        self._sleep = sleep
        #: RunStats of the most recent :meth:`run` (for CLI summaries).
        self.last_stats: Optional[RunStats] = None
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._fatal: Optional[BaseException] = None
        self._queue: Deque[WorkUnit] = deque()
        self._terminal: Set[str] = set()
        self._target: Set[str] = set()
        self._by_id: Dict[str, WorkUnit] = {}
        self._lease = LeaseTable(lease_s)
        self._done = threading.Event()
        self._fleet: List[Node] = []

    @property
    def workers(self) -> int:
        """Fleet width — what sweep windowing sizes itself against."""
        return self.nodes

    # -- public API ----------------------------------------------------------

    def run(self, units: Sequence[WorkUnit]) -> RunOutcome:
        """Execute all units across the fleet; model faults never raise
        (they land in ``outcome.failures``), but a chaos crash escaping
        a node — like a real ``kill -9`` of the coordinator — does."""
        units = list(units)
        stats = RunStats()
        self.last_stats = stats
        engine = self.engine
        if engine.run_dir is not None:
            engine.run_dir.mkdir(parents=True, exist_ok=True)
            log = CommitLog.open(engine.run_dir / COMMIT_LOG_NAME,
                                 fresh=not engine.resume)
        else:
            log = CommitLog()
        self._fatal = None
        self._counters = {
            "nodes": self.nodes,
            "nodes_lost": 0,
            "units_stolen": 0,
            "lease_expirations": 0,
            "duplicate_commits": 0,
            "late_results": 0,
            "commit_repairs": log.repaired,
        }
        self._by_id = {unit.unit_id: unit for unit in units}
        engine.commit_log = log
        engine.store = (ResultStore(self.store_dir)
                        if self.store_dir is not None else None)
        with perfstats.scope(self.spill_dir) as stats.perf:
            collected, pending = engine.prepare(units, stats)
            specs = {unit.unit_id: executor_mod.spec_for(unit)
                     for unit in pending}
            if pending:
                self._run_fleet(pending, specs, units, stats, collected)
            if self._fatal is not None:
                raise self._fatal
            stats.record_coordinator(self._snapshot_counters())
            return engine.finalize(units, stats, collected)

    # -- fleet machinery -----------------------------------------------------

    def _run_fleet(self, pending: List[WorkUnit],
                   specs: Dict[str, executor_mod.UnitSpec],
                   all_units: Sequence[WorkUnit], stats: RunStats,
                   collected: Dict[str, EvalResult]) -> None:
        """Spawn the fleet, monitor leases/heartbeats, join the healthy."""
        self._queue = deque(pending)
        self._terminal = set()
        self._target = {unit.unit_id for unit in pending}
        self._lease = LeaseTable(self.lease_s)
        self._done = threading.Event()
        hb_dir: Optional[Path] = None
        if self.node_backend == "process":
            run_dir = self.engine.run_dir
            hb_dir = (run_dir / ".heartbeats" if run_dir is not None
                      else Path(tempfile.mkdtemp(prefix="repro-hb-")))
            hb_dir.mkdir(parents=True, exist_ok=True)
        fleet = [
            Node(f"node-{index}", self.node_backend, self._clock,
                 heartbeat_path=(hb_dir / f"node-{index}.beat"
                                 if hb_dir is not None else None))
            for index in range(self.nodes)
        ]
        self._fleet = fleet
        if self.node_backend == "process":
            executor_mod.ensure_picklable(
                list(specs.items()), self._node_options(fleet[0]))
        # each node thread starts in a copy of this context: it sees the
        # run's scope, and a scope it opens stays its own
        threads = [
            threading.Thread(
                target=contextvars.copy_context().run,
                args=(self._node_loop, node, specs, all_units, stats,
                      collected),
                name=node.node_id, daemon=True)
            for node in fleet
        ]
        for thread in threads:
            thread.start()
        try:
            self._monitor(fleet, stats)
        finally:
            self._done.set()
            for node, thread in zip(fleet, threads):
                if not node.lost:
                    thread.join(timeout=DRAIN_TIMEOUT_S)
            for node in fleet:
                node.shutdown()

    def _monitor(self, fleet: List[Node], stats: RunStats) -> None:
        """Lease expiry, heartbeat-loss detection, zero-node degradation."""
        while True:
            with self._lock:
                if self._fatal is not None:
                    return
                if self._target <= self._terminal:
                    return
                now = self._clock()
                for node in fleet:
                    if not node.lost and node.busy and node.refresh_beat(now):
                        self._lease.renew_node(node.node_id, now)
                for unit_id, owner in self._lease.expired(now):
                    self._lease.release(unit_id, owner)
                    self._counters["lease_expirations"] += 1
                    self._requeue_locked(unit_id)
                for node in fleet:
                    if (not node.lost and node.busy
                            and now - node.last_beat
                            > self.heartbeat_timeout_s):
                        self._declare_lost_locked(node)
                if all(node.lost for node in fleet):
                    self._fail_remaining_locked(stats)
                    return
            self._sleep(self.poll_interval)

    def _requeue_locked(self, unit_id: str) -> None:
        """Return a unit to the queue for stealing (fleet lock held)."""
        if (unit_id not in self._terminal
                and all(unit.unit_id != unit_id for unit in self._queue)):
            self._queue.append(self._by_id[unit_id])

    def _declare_lost_locked(self, node: Node) -> None:
        """Retire a silent node and requeue its unit (fleet lock held)."""
        node.lost = True
        self._counters["nodes_lost"] += 1
        unit_id = node.current_unit
        if unit_id is not None:
            self._lease.release(unit_id, node.node_id)
            self._requeue_locked(unit_id)

    def _fail_remaining_locked(self, stats: RunStats) -> None:
        """Every node is gone: fail what is left instead of hanging."""
        for unit_id in self._target - self._terminal:
            unit_stats = stats.unit(unit_id)
            unit_stats.status = "failed"
            unit_stats.error = (
                f"NodeLost: all {self.nodes} node(s) lost before this "
                f"unit completed")
            self._terminal.add(unit_id)

    def _node_died(self, node: Node, unit: WorkUnit,
                   exc: NodeKilled) -> None:
        """Handle a :class:`NodeKilled` escaping a node's execution."""
        with self._lock:
            if not node.lost:
                node.lost = True
                self._counters["nodes_lost"] += 1
            self._lease.release(unit.unit_id, node.node_id)
            node.finish(self._clock())
            self._requeue_locked(unit.unit_id)

    def _record_fatal(self, exc: BaseException) -> None:
        """First unexpected exception wins; the fleet drains and
        :meth:`run` re-raises it (chaos-crash escape semantics)."""
        with self._lock:
            if self._fatal is None:
                self._fatal = exc
        self._done.set()

    def _on_beat(self, node: Node) -> None:
        """Inline-node heartbeat: renew every lease the node holds."""
        now = self._clock()
        node.beat(now)
        with self._lock:
            self._lease.renew_node(node.node_id, now)

    def _node_options(self, node: Node) -> executor_mod.WorkerOptions:
        """Per-node worker options: the node's heartbeat leads its fault
        boundary, so it registers as alive even on crossings where the
        user boundary raises.  Inline nodes beat in-thread; process
        nodes touch their heartbeat file.  Either carries the run
        scope's spill root."""
        heartbeat: FaultBoundary
        if node.mode == "inline":
            heartbeat = HeartbeatBoundary(
                lambda node=node: self._on_beat(node))
        else:
            heartbeat = FileHeartbeatBoundary(str(node.heartbeat_path))
        return executor_mod.WorkerOptions.for_engine(self.engine, heartbeat)

    def _node_loop(self, node: Node, specs: Dict[str, executor_mod.UnitSpec],
                   all_units: Sequence[WorkUnit], stats: RunStats,
                   collected: Dict[str, EvalResult]) -> None:
        """One node's life: acquire → execute → commit, until drained."""
        while True:
            unit = self._acquire_unit(node, all_units, stats)
            if unit is None:
                break
            try:
                outcome = node.execute(specs[unit.unit_id],
                                       self._node_options(node),
                                       self.poll_interval)
            except NodeKilled as exc:
                self._node_died(node, unit, exc)
                break
            except BaseException as exc:
                self._record_fatal(exc)
                break
            if node.lost:
                # declared lost mid-unit (heartbeat blackout past the
                # timeout): a retired node must not commit late work,
                # though the work still counts in the run
                stats.perf.fold(outcome.perf_delta)
                with self._lock:
                    self._counters["late_results"] += 1
                break
            try:
                self._complete(node, unit, outcome, stats, all_units,
                               collected)
            except BaseException as exc:
                # includes SimulatedCrash from a chaos checkpoint writer
                # and CommitConflict — both must escape the run
                self._record_fatal(exc)
                break

    def _acquire_unit(self, node: Node, all_units: Sequence[WorkUnit],
                      stats: RunStats) -> Optional[WorkUnit]:
        """Pull the next unit under a fresh lease (None = drained)."""
        while True:
            if node.lost or self._done.is_set():
                return None
            fast_failed = False
            with self._lock:
                if self._fatal is not None:
                    return None
                if self._target <= self._terminal:
                    return None
                if self._queue:
                    unit = self._queue.popleft()
                    unit_id = unit.unit_id
                    if unit_id in self._terminal:
                        continue
                    unit_stats = stats.unit(unit_id)
                    if not self.engine.admit(unit, unit_stats):
                        unit_stats.node = node.node_id
                        self._terminal.add(unit_id)
                        fast_failed = True
                    else:
                        now = self._clock()
                        if self._lease.acquire(unit_id, node.node_id, now):
                            self._counters["units_stolen"] += 1
                            unit_stats.steals += 1
                        node.begin(unit_id, now)
                        return unit
            if fast_failed:
                self.engine.write_manifest(all_units, stats)
                continue
            self._sleep(self.poll_interval)

    def _complete(self, node: Node, unit: WorkUnit,
                  outcome: executor_mod.WorkerResult, stats: RunStats,
                  all_units: Sequence[WorkUnit],
                  collected: Dict[str, EvalResult]) -> None:
        """Release the lease and gate late results; a unit's first
        result goes through the engine's completion epilogue, which
        commits it exactly once."""
        unit_id = unit.unit_id
        with self._lock:
            was_terminal = unit_id in self._terminal
            self._lease.release(unit_id, node.node_id)
            node.finish(self._clock())
        if was_terminal:
            # the original owner of a stolen unit finished late: dedup
            # at commit time, never double-append (a divergent payload
            # raises CommitConflict); its work still counts in the run
            stats.perf.fold(outcome.perf_delta)
            log = self.engine.commit_log
            counter = "late_results"
            if (outcome.payload is not None
                    and log.committed(unit_id) is not None):
                log.commit(unit_id, payload_digest(outcome.payload),
                           node.node_id)
                counter = "duplicate_commits"
            with self._lock:
                self._counters[counter] += 1
            return
        status = self.engine.complete(unit, all_units, stats, collected,
                                      outcome, node=node.node_id)
        with self._lock:
            if status == "duplicate":
                # committed before (log survived, checkpoint did not):
                # the rebuild reproduced the committed bytes
                self._counters["duplicate_commits"] += 1
            self._terminal.add(unit_id)

    # -- artifacts -----------------------------------------------------------

    def _snapshot_counters(self) -> Dict[str, int]:
        """Fleet + store counters for stats, manifest and CLI."""
        with self._lock:
            data = dict(self._counters)
        if self.engine.store is not None:
            data.update(self.engine.store.counters())
        return data
