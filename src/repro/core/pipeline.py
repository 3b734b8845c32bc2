"""Bounded-lookahead prefetching for pipelined scaled sweeps.

:func:`repro.core.sweep.run_scaled_table2` historically ran its stages
strictly serialized: build shard *i*, evaluate it, commit it, build
shard *i+1*.  On a scaled sweep the build stage is pure CPU over the
procedural generator while evaluation waits on providers, so the two
overlap almost perfectly — a :class:`Prefetcher` runs a small builder
pool that keeps shards *i+1..i+k* building while shard *i* evaluates.

The design is a backpressured producer/consumer with **ordered
delivery**:

* a pool of builder threads claims shard indices in order and builds
  each through :func:`repro.core.databuild.build_shard` — i.e. through
  the content-addressed shard cache and its on-disk spill tier, the
  same tiers the executor-backend bulk builds
  (:func:`~repro.core.databuild.build_shards`,
  :func:`~repro.core.databuild.prime_build_cache`) populate, so a
  prefetched sweep shares warm shards with any prior run;
  ``builder="process"`` moves the build CPU itself into a small child
  pool (the threads become dispatchers), sidestepping the GIL when the
  evaluating consumer is itself CPU-hungry;
* a **lookahead budget** of ``k`` bounds the number of items that are
  building or built-but-unconsumed at any instant, so resident memory
  stays O(lookahead × shard) no matter how far the builders could run
  ahead (:attr:`Prefetcher.max_resident` exposes the high-water mark,
  pinned by the property tests);
* :meth:`Prefetcher.get` delivers item *i* when asked for item *i* —
  builders may *finish* out of order, but the consumer observes shard
  order, which is what keeps a prefetched sweep's accumulation order
  (and therefore its artifacts) byte-identical to the serial loop's.

Time the consumer spends blocked in :meth:`~Prefetcher.get` is
recorded as the ``build_wait`` stage in
:mod:`repro.core.perfstats` — on a well-overlapped sweep it collapses
to near zero while the serial loop charges the full build time there,
which is exactly the delta ``benchmarks/bench_sweep_pipeline.py``
measures.
"""

from __future__ import annotations

import os
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional

from repro.core import databuild, perfstats
from repro.core.databuild import StreamingDataset
from repro.core.dataset import Dataset

if TYPE_CHECKING:  # the pool is imported where a process builder starts
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["Prefetcher", "ShardPrefetcher"]

#: Builder pools a :class:`ShardPrefetcher` can run.
PREFETCH_BUILDERS = ("thread", "process")


def _cpu_cores() -> int:
    """Cores actually available to this process (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _builder_init(spill_root: Optional[str]) -> None:
    """Initializer for process-pool builders (runs once per child).

    Warms the canonical build (mirroring
    :func:`repro.core.databuild.build_shards`' pre-fork warm) and
    attaches the same on-disk shard tier the parent uses, so child
    builds write through to disk and later runs start warm.
    """
    databuild.canonical_cycle()
    if spill_root is not None:
        databuild.enable_build_cache(spill_root)


def _warm_question_digests(built: Dict[str, Dataset]) -> None:
    """Precompute every question's content digest while still inside
    the build stage.

    :func:`repro.core.runcache.question_digest` memoises on the
    (frozen) question instance, so warming here moves the
    serialise-and-hash the runner's cache keys need off the eval
    critical path and into the overlapped prefetch — part of handing
    the consumer a shard that is *ready*, not merely built.
    """
    from repro.core.runcache import question_digest

    for dataset in built.values():
        for question in dataset:
            question_digest(question)


def _build_shard_job(streams: Dict[str, StreamingDataset],
                     index: int) -> Dict[str, Dataset]:
    """Worker body for process builders (top-level, picklable).

    The streams are plain value objects (total/seed/shard size), so the
    job pickle is tiny; the built shard travels back as the result
    pickle — a few hundred kilobytes, far cheaper for the parent to
    unpickle than to generate.  Digests warmed here ride along in each
    question's instance state.
    """
    built = {setting: stream.shard(index)
             for setting, stream in streams.items()}
    _warm_question_digests(built)
    return built


class Prefetcher:
    """Bounded-lookahead background builder with in-order delivery.

    ``build(index)`` is called from ``workers`` daemon threads for
    ``index`` in ``0..count-1``; :meth:`get` blocks until the requested
    item is ready and hands it over.  At most ``lookahead`` items are
    ever *resident* (claimed-and-building plus built-but-unconsumed):
    builders park on the lookahead budget until the consumer drains an
    item, so a slow evaluator applies backpressure instead of letting
    builds pile up.

    Each index must be consumed exactly once (consuming releases its
    budget slot).  A build exception is captured and re-raised from the
    matching :meth:`get`, not on the builder thread.  Use as a context
    manager; :meth:`close` is idempotent and safe to call with builds
    still in flight (they finish and are discarded).
    """

    #: Longest a builder defers a claimed build waiting for a consumer
    #: idle window before proceeding anyway (liveness backstop).
    YIELD_MAX_WAIT_S = 0.05

    def __init__(self, build: Callable[[int], Any], count: int, *,
                 lookahead: int, workers: int = 1,
                 name: str = "prefetch",
                 yield_to_consumer: bool = False) -> None:
        if lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        if count < 0:
            raise ValueError("count must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._build = build
        self.count = count
        self.lookahead = lookahead
        self.workers = min(workers, lookahead)
        self.name = name
        #: On one CPU, a builder that becomes runnable mid-compute
        #: timeslices ~50/50 against the consumer (the GIL forces a
        #: handoff every switch interval), displacing consumer wall
        #: time with build work that would have fit into the
        #: consumer's next transport wait anyway.  With this flag the
        #: builders instead start each build inside a consumer idle
        #: window (:func:`repro.core.perfstats.idle_window`) or once
        #: the consumer is blocked in :meth:`get` — phase-aligning
        #: build CPU with eval dead air.
        self.yield_to_consumer = yield_to_consumer
        self._starved = threading.Event()
        self._slots = threading.Semaphore(lookahead)
        self._cond = threading.Condition()
        self._ready: Dict[int, Any] = {}
        self._errors: Dict[int, BaseException] = {}
        self._next = 0
        self._resident = 0
        #: high-water mark of items building or awaiting consumption —
        #: the backpressure invariant is ``max_resident <= lookahead``
        self.max_resident = 0
        self._stopped = False
        self._threads: List[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Prefetcher":
        """Launch the builder pool (no-op if already started)."""
        if self._threads:
            return self
        for worker in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"{self.name}-{worker}", daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def close(self) -> None:
        """Stop claiming new work, wake everyone, join the pool."""
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
            self._cond.notify_all()
        # unblock builders parked on the lookahead budget
        for _ in self._threads:
            self._slots.release()
        for thread in self._threads:
            thread.join(timeout=30.0)

    def __enter__(self) -> "Prefetcher":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- producer side -------------------------------------------------------

    def _await_idle_window(self) -> None:
        """Park (briefly) until a consumer idle window opens.

        Only active under ``yield_to_consumer``.  Returns immediately
        when the consumer is blocked in :meth:`get` (it has nothing to
        yield to), and unconditionally after :attr:`YIELD_MAX_WAIT_S`
        so a consumer that never waits off-CPU cannot stall the pool.
        """
        if not self.yield_to_consumer:
            return
        idle = perfstats.idle_event()
        deadline = time.monotonic() + self.YIELD_MAX_WAIT_S
        while not (idle.is_set() or self._starved.is_set()
                   or self._stopped):
            if time.monotonic() >= deadline:
                return
            idle.wait(0.002)

    def _worker_loop(self) -> None:
        while True:
            self._slots.acquire()
            with self._cond:
                if self._stopped or self._next >= self.count:
                    self._slots.release()
                    return
                index = self._next
                self._next += 1
                self._resident += 1
                if self._resident > self.max_resident:
                    self.max_resident = self._resident
            self._await_idle_window()
            try:
                value = self._build(index)
            except BaseException as exc:  # delivered via get()
                with self._cond:
                    self._errors[index] = exc
                    self._cond.notify_all()
            else:
                with self._cond:
                    self._ready[index] = value
                    self._cond.notify_all()

    # -- consumer side -------------------------------------------------------

    def get(self, index: int) -> Any:
        """Item ``index``, blocking until its build completes.

        The blocked time is charged to the ``build_wait`` stage timer.
        Raises the build's exception if it failed, ``RuntimeError`` if
        the prefetcher was closed before the item could be produced.
        """
        if not self._threads:
            raise RuntimeError("prefetcher not started")
        exc: Optional[BaseException] = None
        with perfstats.stage("build_wait"):
            with self._cond:
                # while blocked here the consumer has no CPU phase for
                # builders to collide with — flag it so gated builders
                # (yield_to_consumer) start immediately
                self._starved.set()
                try:
                    while (index not in self._ready
                           and index not in self._errors):
                        if self._stopped:
                            raise RuntimeError(
                                f"prefetcher closed before item {index}")
                        self._cond.wait()
                finally:
                    self._starved.clear()
                self._resident -= 1
                if index in self._errors:
                    exc = self._errors.pop(index)
                else:
                    value = self._ready.pop(index)
        self._slots.release()
        if exc is not None:
            raise exc
        return value


class ShardPrefetcher(Prefetcher):
    """A :class:`Prefetcher` over one or more :class:`StreamingDataset`
    views of the same scaled build.

    Each item is ``{setting: Dataset}`` — shard ``index`` materialised
    under every setting's stream (the challenge stream is a per-shard
    map over the same base build, so the underlying generator work is
    shared through the shard cache).  All streams must agree on the
    shard plan.

    ``builder`` selects where the build CPU runs.  ``"thread"``
    (default) builds on the pool threads — zero setup cost, but on
    CPython the GIL serialises builder CPU against the evaluating
    consumer, capping the overlap.  ``"process"`` dispatches each build
    to a small :class:`~concurrent.futures.ProcessPoolExecutor` (the
    pool threads become dispatchers blocking on futures), buying true
    build/eval parallelism for a per-sweep pool spawn plus a
    result-unpickle per shard; ``spill_dir`` is forwarded so child
    builds write through the same on-disk shard tier.  Ordering,
    backpressure and error delivery are identical in both modes.
    """

    def __init__(self, streams: Mapping[str, StreamingDataset], *,
                 lookahead: int, workers: int = 1,
                 builder: str = "thread",
                 spill_dir: Optional[Any] = None,
                 yield_to_consumer: Optional[bool] = None) -> None:
        if not streams:
            raise ValueError("no streams to prefetch")
        if builder not in PREFETCH_BUILDERS:
            raise ValueError(
                f"unknown prefetch builder {builder!r}; "
                f"choose from {PREFETCH_BUILDERS}")
        self.streams = dict(streams)
        self.builder = builder
        self.spill_dir = str(spill_dir) if spill_dir is not None else None
        self._pool: Optional[ProcessPoolExecutor] = None
        counts = {stream.num_shards for stream in self.streams.values()}
        if len(counts) != 1:
            raise ValueError(
                f"streams disagree on shard count: {sorted(counts)}")
        if yield_to_consumer is None:
            # thread builders on one core contend with the consumer for
            # the GIL; phase-align them with consumer idle windows.
            # Process builders (or real parallelism) don't need it.
            yield_to_consumer = builder == "thread" and _cpu_cores() == 1
        if yield_to_consumer:
            # more gated builders just queue behind the same idle
            # windows; one keeps the phasing crisp
            workers = 1
        super().__init__(self._build_shard, counts.pop(),
                         lookahead=lookahead, workers=workers,
                         name="shard-prefetch",
                         yield_to_consumer=yield_to_consumer)

    def start(self) -> "ShardPrefetcher":
        if (self.builder == "process" and self._pool is None
                and not self._threads):
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_builder_init,
                initargs=(self.spill_dir,))
        super().start()
        return self

    def close(self) -> None:
        super().close()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _build_shard(self, index: int) -> Dict[str, Dataset]:
        if self._pool is not None:
            # the dispatcher thread blocks GIL-free on the future while
            # the child process does the build CPU
            built = self._pool.submit(
                _build_shard_job, self.streams, index).result()
            # mirror the process path of databuild.build_shards: re-enter
            # the returned base shard into the parent's cache (warm for
            # resume / later windows), then charge residency against the
            # parent-side streams, where the shard now actually lives
            for setting, dataset in built.items():
                stream = self.streams[setting]
                if not stream.challenge:
                    key = stream.shard_specs()[index].cache_key()
                    if key not in databuild._SHARD_CACHE:
                        # memory tier only: the child wrote the disk
                        # entry already, re-encoding it here would put
                        # the offloaded build CPU right back on the
                        # consumer's core
                        databuild._SHARD_CACHE._store(
                            key, tuple(dataset))
                stream._observe(len(dataset))
            return built
        built = {setting: stream.shard(index)
                 for setting, stream in self.streams.items()}
        _warm_question_digests(built)
        return built
