"""Cache telemetry: counters, a shared thread-safe LRU, and run scopes.

Every memoization layer in the perception pipeline — the raster render
cache, the raster legibility cache, the encoder perception cache and the
dataset caches — is built on :class:`LruCache` and exports hit/miss/
eviction counters through the registry here.

Every count lands in a process total, which :func:`snapshot` reports
(``/metrics``, the benchmark), and in the **run scope** open on the
calling context: a :mod:`contextvars` value (:func:`scope`) holding
one run's tally and spill root.  Each run opens one, the package's
threads start in a copy of the context that starts them, and each
unit evaluates in an isolated scope whose tally the run folds in, so a
run's manifest, ``--cache-stats`` and ``--metrics-out`` count that run
alone, whatever else the process runs meanwhile.

A scope with a spill root backs every cache constructed with a
``spill_codec`` by an on-disk, content-addressed :class:`SpillStore`:
a memory miss consults the store before recomputing, and every put is
written through, so sibling *processes* — the multiprocess execution
backend's workers, a later run — share rendering, raster scoring and
shard builds instead of each paying the cold-start cost.  Only work
that costs more than a disk round trip declares a codec.  Spill
traffic has its own ``spill_hits`` / ``spill_misses`` counters,
reported only once the tier has been consulted so snapshots stay
stable for spill-free runs.

The module is deliberately stdlib-only: it sits below
:mod:`repro.visual`, :mod:`repro.models` and :mod:`repro.core`'s
heavier modules in the import graph and must stay importable from any
of them.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple,
)

#: The counters one cache keeps.
_COUNTERS = ("hits", "misses", "evictions", "spill_hits", "spill_misses",
             "spill_corrupt")


def _shaped(counts: Dict[str, int]) -> Dict[str, int]:
    """One cache's counters in snapshot shape: hits, misses and
    evictions always; the spill counters only once the tier has been
    consulted, keeping snapshots byte-stable for spill-free runs."""
    data = {"hits": counts.get("hits", 0),
            "misses": counts.get("misses", 0),
            "evictions": counts.get("evictions", 0)}
    if counts.get("spill_hits") or counts.get("spill_misses"):
        data["spill_hits"] = counts.get("spill_hits", 0)
        data["spill_misses"] = counts.get("spill_misses", 0)
    if counts.get("spill_corrupt"):
        data["spill_corrupt"] = counts["spill_corrupt"]
    return data


class CacheStats:
    """Thread-safe hit/miss/eviction counters for one named cache.

    Every count adds to the process total here and to the tally of the
    scope open on the calling context (see :func:`scope`).
    """

    __slots__ = ("name", "_lock") + _COUNTERS

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        for counter in _COUNTERS:
            setattr(self, counter, 0)

    def _record(self, counter: str, count: int) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + count)
        current = _SCOPE.get()
        if current is not None:
            current.count(self.name, counter, count)

    def record_hit(self, count: int = 1) -> None:
        self._record("hits", count)

    def record_miss(self, count: int = 1) -> None:
        self._record("misses", count)

    def record_eviction(self, count: int = 1) -> None:
        self._record("evictions", count)

    def record_spill_hit(self, count: int = 1) -> None:
        """A lookup served from the on-disk spill tier."""
        self._record("spill_hits", count)

    def record_spill_miss(self, count: int = 1) -> None:
        """A spill-tier probe that found nothing on disk."""
        self._record("spill_misses", count)

    def record_spill_corrupt(self, count: int = 1) -> None:
        """A spill entry evicted because it no longer parsed/decoded."""
        self._record("spill_corrupt", count)

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return _shaped({counter: getattr(self, counter)
                            for counter in _COUNTERS})

    def reset(self) -> None:
        with self._lock:
            for counter in _COUNTERS:
                setattr(self, counter, 0)


#: A spill codec: ``(encode, decode)`` where ``encode(value)`` returns a
#: JSON-serialisable payload and ``decode(payload)`` reconstructs the
#: value.  Caches without a codec are never spilled to disk.
SpillCodec = Tuple[Callable[[Any], Any], Callable[[Any], Any]]

#: Codec for values that are already JSON-native (floats, strings, …).
JSON_VALUE_CODEC: SpillCodec = (lambda value: value, lambda payload: payload)


class SpillStore:
    """Content-addressed on-disk cache tier shared across processes.

    Entries live under ``<root>/<cache name>/<aa>/<sha256>.json`` where
    the digest is the sha256 of the cache key's ``repr`` — keys are
    tuples of primitives, so the digest is deterministic across
    processes.  Writes are atomic (pid-unique temp file, then rename),
    so concurrent workers can never observe a torn entry; an existing
    entry is never rewritten, which makes write-through from many
    sibling processes cheap.

    A *corrupt* entry — one that exists but no longer parses or decodes
    (an external truncation, a bit flip on disk) — is **quarantined**:
    the bad file is evicted so the next put can rebuild it, the event is
    counted in the owning cache's ``spill_corrupt`` counter (when
    ``stats`` is attached), and the lookup degrades to a miss so the
    caller recomputes instead of crashing.  A missing entry is a plain
    miss and touches no counter.
    """

    def __init__(self, root: "Path | str", name: str,
                 encode: Callable[[Any], Any],
                 decode: Callable[[Any], Any],
                 stats: Optional[CacheStats] = None) -> None:
        self.root = Path(root) / name
        self._encode = encode
        self._decode = decode
        self.stats = stats

    def path_for(self, key: Hashable) -> Path:
        """Deterministic on-disk location of ``key``'s entry."""
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        return self.root / digest[:2] / (digest + ".json")

    def evict(self, key: Hashable) -> bool:
        """Remove ``key``'s entry from disk; True if a file was removed."""
        try:
            self.path_for(key).unlink()
            return True
        except OSError:
            return False

    def _quarantine(self, key: Hashable) -> None:
        """Evict a corrupt entry and count it (never raises)."""
        self.evict(key)
        if self.stats is not None:
            self.stats.record_spill_corrupt()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Decode the stored value for ``key``, or ``default``.

        Corrupt entries are quarantined (evicted + counted) and fall
        through to ``default`` so callers recompute; see the class
        docstring.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return default
        try:
            payload = json.loads(text)
            return self._decode(payload)
        except (KeyError, TypeError, ValueError):
            self._quarantine(key)
            return default

    def put(self, key: Hashable, value: Any) -> None:
        """Persist ``value`` under ``key`` (no-op if already present).

        The temp-file name embeds the writer's pid: sibling *processes*
        racing to spill the same key must not share a temp path, or the
        loser's rename fails after the winner consumed it.  Entries are
        pure functions of their key, so whichever writer wins, the
        stored value is the same — a lost race is silently dropped.
        """
        path = self.path_for(key)
        if path.exists():
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(self._encode(value), sort_keys=True),
                           encoding="utf-8")
            tmp.replace(path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass


class LruCache:
    """A bounded, thread-safe LRU mapping with integrated counters.

    Values must be safe to share between callers (the perception caches
    store immutable floats and read-only arrays).  ``get_or_create``
    runs the factory *outside* the lock: under a race two threads may
    both compute, but entries are pure functions of their key, so the
    duplicate work is benign and lock hold times stay tiny.

    A cache constructed with a ``spill_codec`` is backed by a
    :class:`SpillStore` inside a scope with a spill root (see
    :func:`scope`): ``get`` consults the store after a memory miss
    (promoting found values back into memory), ``put`` writes through.
    Because every entry is a pure function of its key, the disk tier
    never changes results — it only moves the compute.
    """

    def __init__(self, capacity: int, name: Optional[str] = None,
                 stats: Optional[CacheStats] = None,
                 spill_codec: Optional[SpillCodec] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = stats or CacheStats(name or "anonymous")
        self.spill_codec = spill_codec
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        if name is not None:
            register(name, self)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership probe; does not touch the counters or LRU order."""
        with self._lock:
            return key in self._entries

    def _spill(self) -> Optional[SpillStore]:
        """This cache's disk tier in the scope open on this context."""
        current = _SCOPE.get()
        return current.spill_store(self) if current is not None else None

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look ``key`` up, counting a hit or miss and refreshing recency.

        Inside a scope with a spill root, a memory miss falls through to
        the disk tier; a value found there counts as a hit (plus a
        ``spill_hit``) and is promoted back into memory.
        """
        sentinel = _MISS
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                value = self._entries[key]
            else:
                value = sentinel
        if value is not sentinel:
            self.stats.record_hit()
            return value
        spill = self._spill()
        if spill is not None:
            value = spill.get(key, sentinel)
            if value is not sentinel:
                self.stats.record_spill_hit()
                self.stats.record_hit()
                self._store(key, value)
                return value
            self.stats.record_spill_miss()
        self.stats.record_miss()
        return default

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Look ``key`` up without touching counters or recency."""
        with self._lock:
            return self._entries.get(key, default)

    def values(self) -> List[Any]:
        """Snapshot of the in-memory tier's values, LRU-first.

        Does not touch counters or recency; used by residency gauges
        (e.g. ``StreamingDataset.peak_resident_questions``) to measure
        what the memory tier is actually holding.
        """
        with self._lock:
            return list(self._entries.values())

    def _store(self, key: Hashable, value: Any) -> None:
        """Insert into the in-memory tier only, counting evictions."""
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            self.stats.record_eviction(evicted)

    def put(self, key: Hashable, value: Any) -> None:
        self._store(key, value)
        spill = self._spill()
        if spill is not None:
            spill.put(key, value)

    def get_or_create(self, key: Hashable,
                      factory: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss."""
        sentinel = _MISS
        value = self.get(key, sentinel)
        if value is not sentinel:
            return value
        value = factory()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop all entries (counters are left untouched; see ``reset``)."""
        with self._lock:
            self._entries.clear()

    def reset(self) -> None:
        """Drop all entries and zero the counters."""
        self.clear()
        self.stats.reset()

    def snapshot(self) -> Dict[str, int]:
        """Counters plus the current entry count."""
        data = self.stats.snapshot()
        data["size"] = len(self)
        return data


_MISS = object()

_REGISTRY_LOCK = threading.Lock()
_REGISTRY: Dict[str, LruCache] = {}


# -- run scopes ---------------------------------------------------------------


class Scope:
    """One run's counter tally and spill root; :func:`scope` opens one.

    The tally has :func:`snapshot`'s shape — ``{cache: {counter: n}}``
    plus a :data:`STAGE_TIMINGS_NAME` entry — and holds what was counted
    while the scope was current, plus what was folded in.  With a spill
    root, each spill-capable cache gets one :class:`SpillStore` per
    scope, built on first use.
    """

    def __init__(self, spill_root: "Optional[Path | str]" = None) -> None:
        self.spill_root = str(spill_root) if spill_root is not None else None
        self._lock = threading.Lock()
        self._tally: Dict[str, Dict[str, int]] = {}
        self._stores: Dict[LruCache, SpillStore] = {}

    def count(self, name: str, counter: str, count: int = 1) -> None:
        """Add ``count`` to entry ``name``'s ``counter``."""
        with self._lock:
            entry = self._tally.get(name)
            if entry is None:
                entry = self._tally[name] = {}
            entry[counter] = entry.get(counter, 0) + count

    def fold(self, counters: Dict[str, Dict[str, int]]) -> None:
        """Add a tally counted elsewhere: a unit's, a worker process's."""
        with self._lock:
            merge_counters(self._tally, counters)

    def counters(self) -> Dict[str, Dict[str, int]]:
        """A copy of the raw tally, in the form :meth:`fold` takes."""
        with self._lock:
            return {name: dict(entry) for name, entry in self._tally.items()}

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """The tally in :func:`snapshot`'s shape: every registered cache
        with its hits, misses and evictions in this scope and its
        current ``size``, spill counters only where this scope consulted
        the disk tier, and the stage timers only once it timed a stage.
        """
        tally = self.counters()
        stages = tally.pop(STAGE_TIMINGS_NAME, None)
        with _REGISTRY_LOCK:
            caches = dict(_REGISTRY)
        data: Dict[str, Dict[str, int]] = {}
        for name in sorted(set(caches) | set(tally)):
            entry = _shaped(tally.get(name, {}))
            if name in caches:
                entry["size"] = len(caches[name])
            data[name] = entry
        if stages:
            data[STAGE_TIMINGS_NAME] = stages
        return data

    def spill_store(self, cache: LruCache) -> Optional[SpillStore]:
        """``cache``'s disk tier in this scope (``None`` without a spill
        root, or for a cache without a codec)."""
        if self.spill_root is None or cache.spill_codec is None:
            return None
        with self._lock:
            store = self._stores.get(cache)
            if store is None:
                encode, decode = cache.spill_codec
                store = self._stores[cache] = SpillStore(
                    self.spill_root, cache.stats.name, encode, decode,
                    stats=cache.stats)
            return store


_SCOPE: "contextvars.ContextVar[Optional[Scope]]" = contextvars.ContextVar(
    "repro_perfstats_scope", default=None)


@contextmanager
def scope(spill_root: "Optional[Path | str]" = None, *,
          isolated: bool = False) -> Iterator[Scope]:
    """Open a run scope on the current context for a ``with`` block.

    While it is current, every counter also counts into the new scope,
    and spill-capable caches use ``spill_root`` as their disk tier —
    the enclosing scope's root when none is given.  When the block
    ends, the scope's tally folds into the enclosing scope, so a run
    inside a sweep counts in the sweep.  An ``isolated`` scope does not
    fold: its opener hands the tally on itself (a unit's becomes its
    ``WorkerResult.perf_delta``).
    """
    enclosing = _SCOPE.get()
    if spill_root is None and enclosing is not None:
        spill_root = enclosing.spill_root
    opened = Scope(spill_root)
    token = _SCOPE.set(opened)
    try:
        yield opened
    finally:
        _SCOPE.reset(token)
        if enclosing is not None and not isolated:
            enclosing.fold(opened.counters())


def current() -> Optional[Scope]:
    """The scope open on the current context, or ``None``."""
    return _SCOPE.get()


def leave_scope() -> None:
    """Leave the scope the current context inherited, for good.

    Every process pool's initializer: a forked worker starts in its
    forking thread's context, but must count only into the scopes it
    opens, never into the parent's scope object, whose lock another
    parent thread may have held at fork time.
    """
    _SCOPE.set(None)


# -- per-stage hot-path timers ------------------------------------------------

#: Registry entry name the stage timers publish under in :func:`snapshot`.
STAGE_TIMINGS_NAME = "stage_timings"

#: Stage names the sweep pipeline records (see docs/PERF.md): time the
#: evaluator spent blocked waiting for a shard build, evaluating,
#: serialising canonical payloads, committing artifacts (checkpoint +
#: store + commit log), and streaming results to observers.
PIPELINE_STAGES = ("build_wait", "eval", "serialize", "commit", "stream")


#: The process's stage totals: a scope never opened on any context,
#: which :func:`record_stage` counts into beside the current scope.
_STAGES = Scope()


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Time one pipeline stage: ``with perfstats.stage("commit"): ...``."""
    start = time.perf_counter_ns()
    try:
        yield
    finally:
        record_stage(name, time.perf_counter_ns() - start)


def record_stage(name: str, ns: int, calls: int = 1) -> None:
    """Credit ``ns`` nanoseconds (``{name}_ns``) and ``calls`` calls
    (``{name}_calls``) to a stage, in the process total and the current
    scope; integer counters merge like any cache counter."""
    for tally in (_STAGES, _SCOPE.get()):
        if tally is not None:
            tally.count(STAGE_TIMINGS_NAME, f"{name}_ns", int(ns))
            tally.count(STAGE_TIMINGS_NAME, f"{name}_calls", calls)


def stage_snapshot() -> Dict[str, int]:
    """The process's stage timers alone (:func:`snapshot`'s entry):
    ``{stage}_ns`` and ``{stage}_calls`` per timed stage, empty until a
    stage has been timed."""
    return dict(sorted(
        _STAGES.counters().get(STAGE_TIMINGS_NAME, {}).items()))


def stage_seconds(counters: Dict[str, Dict[str, int]],
                  name: str) -> float:
    """One stage's accumulated seconds out of a snapshot-shaped dict."""
    entry = counters.get(STAGE_TIMINGS_NAME, {})
    return entry.get(f"{name}_ns", 0) / 1e9


# -- consumer idle windows ----------------------------------------------------

_IDLE_LOCK = threading.Lock()
_IDLE_DEPTH = 0
_IDLE_EVENT = threading.Event()


@contextmanager
def idle_window(stage_name: str = "transport_wait") -> Iterator[None]:
    """Mark a window in which the calling thread is blocked off-CPU.

    Transport layers wrap their latency waits (a socket read, a
    simulated endpoint's sleep) in this context.  Two things happen:
    the wait is credited to the ``stage_name`` stage timer, and a
    process-wide event (:func:`idle_event`) is raised for as long as at
    least one window is open — the hint background workers (the shard
    prefetcher's builder pool on single-CPU hosts) use to schedule
    their CPU bursts inside the waits of the foreground consumer
    instead of timeslicing against its compute phases.
    """
    global _IDLE_DEPTH
    with _IDLE_LOCK:
        _IDLE_DEPTH += 1
        _IDLE_EVENT.set()
    start = time.perf_counter_ns()
    try:
        yield
    finally:
        record_stage(stage_name, time.perf_counter_ns() - start)
        with _IDLE_LOCK:
            _IDLE_DEPTH -= 1
            if _IDLE_DEPTH == 0:
                _IDLE_EVENT.clear()


def idle_event() -> threading.Event:
    """The event raised while any :func:`idle_window` is open."""
    return _IDLE_EVENT


def register(name: str, cache: LruCache) -> LruCache:
    """Register ``cache`` under ``name`` (last registration wins)."""
    with _REGISTRY_LOCK:
        _REGISTRY[name] = cache
    return cache


def get_cache(name: str) -> Optional[LruCache]:
    """The cache registered under ``name``, or ``None``."""
    with _REGISTRY_LOCK:
        return _REGISTRY.get(name)


def snapshot() -> Dict[str, Dict[str, int]]:
    """The process totals of every registered cache, keyed by cache
    name — what ``/metrics`` reports (a run's own counters are its
    scope's, :meth:`Scope.snapshot`, in the same shape).

    When any pipeline stage has been timed, a
    :data:`STAGE_TIMINGS_NAME` entry rides along in the same shape —
    integer counters keyed by name — so stage time flows through the
    manifest, ``--cache-stats`` and ``/metrics`` without a parallel
    channel.
    """
    with _REGISTRY_LOCK:
        caches = dict(_REGISTRY)
    data = {name: cache.snapshot()
            for name, cache in sorted(caches.items())}
    stages = stage_snapshot()
    if stages:
        data[STAGE_TIMINGS_NAME] = stages
    return data


def delta(before: Dict[str, Dict[str, int]],
          after: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Counter movement between two :func:`snapshot` calls.

    ``size`` is reported as the *after* value (it is a level, not a
    counter); caches absent from ``before`` count from zero.
    """
    moved: Dict[str, Dict[str, int]] = {}
    for name, counters in after.items():
        base = before.get(name, {})
        moved[name] = {
            key: (value if key == "size" else value - base.get(key, 0))
            for key, value in counters.items()
        }
    return moved


def total(counters: Dict[str, Dict[str, int]], field: str) -> int:
    """Sum one counter field across a snapshot (e.g. all hits)."""
    return sum(entry.get(field, 0) for entry in counters.values())


def merge_counters(
    into: Dict[str, Dict[str, int]],
    moved: Dict[str, Dict[str, int]],
) -> Dict[str, Dict[str, int]]:
    """Accumulate one snapshot-shaped delta into another, in place.

    Counter fields add; the ``size`` field is a level, not a counter,
    so it takes the maximum.  :meth:`Scope.fold` folds a unit's or a
    worker process's tally into a run's with it.  Returns ``into``.
    """
    for name, counters in moved.items():
        entry = into.setdefault(name, {})
        for key, value in counters.items():
            if key == "size":
                entry[key] = max(entry.get(key, 0), value)
            else:
                entry[key] = entry.get(key, 0) + value
    return into


def reset() -> None:
    """Empty every registered cache and zero its counters (test hook)."""
    global _STAGES
    with _REGISTRY_LOCK:
        caches = list(_REGISTRY.values())
    for cache in caches:
        cache.reset()
    _STAGES = Scope()
