"""E17 — Continuous batching and hedged requests on the async seam.

Two shapes pinned here, both against a simulated remote endpoint with
real (small) sleeps so measured wall-clock reflects the transport-bound
regime a deployed sweep sits in:

1. **Throughput** — with the *same worker budget*, coroutine submission
   through :class:`~repro.models.providers.ContinuousBatcher` beats
   unbatched per-question ``answer_batch([q])`` calls on the same
   number of threads by >= 2x at high per-call latency.  The
   mechanism: a thread blocks for a whole round-trip per question, so
   a 4-thread harness pays the endpoint latency once per question,
   four at a time.  Coroutines cost nothing to park, so the batcher
   sees the *whole* backlog, fills every batch, and keeps
   ``max_in_flight`` full batches rolling (a slot refills the moment
   one drains, no end-of-batch barrier).

2. **Tail latency** — hedging straggling calls
   (:class:`~repro.models.providers.HedgePolicy`) cuts measured p99 on
   a bimodal endpoint (occasional 10x stragglers): the duplicate
   launched after ``after_s`` almost always draws a fast response, and
   first success wins.  Answers are key-deterministic, so hedging
   shapes latency only — never artifacts.

Run with ``-s`` to see the tables.  Recorded as E17 in EXPERIMENTS.md.
"""

import asyncio
import queue
import threading
import time

from repro.core.benchmark import build_chipvqa
from repro.core.question import Category
from repro.models import (
    WITH_CHOICE,
    AsyncCallScheduler,
    ContinuousBatcher,
    HedgePolicy,
    RemoteStubProvider,
)
from repro.models.zoo import build_model

#: Simulated per-call endpoint latency for the throughput shape.  High
#: relative to evaluation cost — the API-bound regime.  Real endpoints
#: sit 10-100x higher, which only widens the measured gap.
PER_CALL_LATENCY_S = 0.04

#: Worker budget shared by both sides of the throughput comparison:
#: caller threads for the baseline, in-flight call slots for the
#: continuous batcher.
WORKERS = 4

#: The continuous batcher's coalescing bound.
BATCH_SIZE = 12


def _questions():
    return list(build_chipvqa().by_category(Category.DIGITAL)) * 3


def _thread_unbatched_sweep(questions):
    """Baseline: a ``WORKERS``-thread harness calling the endpoint once
    per question — each thread waits out a full round-trip per
    question."""
    stub = RemoteStubProvider(build_model("gpt-4o"),
                              base_latency_s=PER_CALL_LATENCY_S)
    backlog = queue.Queue()
    for item in enumerate(questions):
        backlog.put(item)
    answers = {}
    lock = threading.Lock()

    def worker():
        while True:
            try:
                index, question = backlog.get_nowait()
            except queue.Empty:
                return
            (answer,) = stub.answer_batch([question], WITH_CHOICE,
                                          use_raster=False)
            with lock:
                answers[index] = answer

    threads = [threading.Thread(target=worker) for _ in range(WORKERS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, answers, stub


def _continuous_sweep(questions):
    """Continuous batching: every question is a parked coroutine; the
    batcher keeps ``WORKERS`` full batches in flight, refilling each
    slot the moment it drains."""
    stub = RemoteStubProvider(build_model("gpt-4o"),
                              base_latency_s=PER_CALL_LATENCY_S)
    batcher = ContinuousBatcher(max_batch_size=BATCH_SIZE,
                                max_in_flight=WORKERS)

    async def main():
        return await asyncio.gather(*[
            batcher.submit(stub, question, WITH_CHOICE, use_raster=False)
            for question in questions])

    start = time.perf_counter()
    answers = asyncio.run(main())
    return time.perf_counter() - start, answers, batcher


def test_continuous_batching_throughput():
    """Acceptance: >= 2x throughput over unbatched per-question calls
    at the same worker budget, in fewer endpoint calls, every question
    answered for itself."""
    questions = _questions()
    n = len(questions)
    thread_s, thread_answers, stub = _thread_unbatched_sweep(questions)
    async_s, async_answers, batcher = _continuous_sweep(questions)

    print(f"\n{n} questions, {PER_CALL_LATENCY_S * 1000:.0f} ms "
          f"per-call latency, worker budget {WORKERS}, "
          f"batch bound {BATCH_SIZE}")
    print(f"  threads, unbatched  {thread_s:6.3f} s  "
          f"{n / thread_s:7.1f} q/s  ({stub.calls} calls)")
    print(f"  continuous          {async_s:6.3f} s  "
          f"{n / async_s:7.1f} q/s  ({batcher.batches} calls)")
    print(f"  speedup {thread_s / async_s:4.1f}x")

    assert len(thread_answers) == n
    assert len(async_answers) == n
    for index, question in enumerate(questions):
        assert thread_answers[index].qid == question.qid
    for question, answer in zip(questions, async_answers):
        assert answer.qid == question.qid
    # the rolling window actually filled batches and overlapped them
    assert batcher.batched_questions == n
    assert batcher.peak_in_flight == WORKERS
    assert batcher.batches < stub.calls
    assert thread_s / async_s >= 2.0


class _BimodalEndpoint:
    """Async endpoint with a heavy tail: most calls answer fast, every
    ``straggle_every``-th dispatch takes ``straggle_s``.  Stragglers
    are positional (dispatch order), so a hedged duplicate of a slow
    call almost always lands in the fast mode — exactly the regime
    request hedging exists for.  Answers depend only on the question,
    so racing duplicates is safe."""

    name = "bimodal"

    def __init__(self, fast_s=0.01, straggle_s=0.12, straggle_every=10):
        self.fast_s = fast_s
        self.straggle_s = straggle_s
        self.straggle_every = straggle_every
        self.dispatches = 0

    def config_fingerprint(self):
        """Constant: latency mode never affects answers."""
        return "e" * 64

    async def answer_batch_async(self, questions, setting,
                                 resolution_factor=1, use_raster=True):
        """Sleep fast or straggle by dispatch index, then echo."""
        self.dispatches += 1
        straggle = self.dispatches % self.straggle_every == 0
        await asyncio.sleep(self.straggle_s if straggle else self.fast_s)
        return [f"ans:{q}" for q in questions]


def _latency_profile(hedge):
    """Per-call latencies for 100 single-question calls, measured
    individually under concurrent dispatch."""
    endpoint = _BimodalEndpoint()
    scheduler = AsyncCallScheduler(hedge=hedge)

    async def timed_call(index):
        start = time.perf_counter()
        answers = await scheduler.call(endpoint, [f"q{index}"],
                                       WITH_CHOICE)
        assert answers == [f"ans:q{index}"]
        return time.perf_counter() - start

    async def main():
        return await asyncio.gather(*[timed_call(i) for i in range(100)])

    return sorted(asyncio.run(main())), scheduler


def _p99(latencies):
    return latencies[int(len(latencies) * 0.99) - 1]


def test_hedging_cuts_p99():
    """Acceptance: hedging after 30 ms cuts measured p99 to <= 0.8x of
    the unhedged tail on a bimodal endpoint, with hedges actually
    launched and winning."""
    unhedged, _ = _latency_profile(hedge=None)
    hedged, scheduler = _latency_profile(
        hedge=HedgePolicy(after_s=0.03, max_hedges=1))

    print(f"\n100 calls, bimodal endpoint (10 ms fast / 120 ms "
          f"straggler, 1 in 10), hedge after 30 ms")
    print(f"  unhedged  p50 {unhedged[49] * 1000:6.1f} ms   "
          f"p99 {_p99(unhedged) * 1000:6.1f} ms")
    print(f"  hedged    p50 {hedged[49] * 1000:6.1f} ms   "
          f"p99 {_p99(hedged) * 1000:6.1f} ms   "
          f"({scheduler.hedges_launched} hedges, "
          f"{scheduler.hedge_wins} wins)")

    assert scheduler.hedges_launched > 0
    assert scheduler.hedge_wins > 0
    assert _p99(hedged) <= 0.8 * _p99(unhedged)
