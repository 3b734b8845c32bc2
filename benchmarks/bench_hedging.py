"""E17 — Hedged requests on the async call path.

Hedging straggling calls (:class:`~repro.models.providers.HedgePolicy`,
applied by :class:`~repro.models.providers.AsyncCallScheduler`) cuts
measured p99 on a bimodal endpoint (occasional 10x stragglers), with
real (small) sleeps so measured wall-clock reflects the transport-bound
regime a deployed sweep sits in: the duplicate launched after
``after_s`` almost always draws a fast response, and first success
wins.  Answers are key-deterministic, so hedging shapes latency only —
never artifacts.

Run with ``-s`` to see the table.  Recorded as E17 in EXPERIMENTS.md.
"""

import asyncio
import time

from repro.models import WITH_CHOICE, AsyncCallScheduler, HedgePolicy


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
