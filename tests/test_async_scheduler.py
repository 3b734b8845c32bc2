"""Unit tests for the async call path's scheduling policy: token-bucket
pacing and hedged-request semantics.  Every provider here defines
``answer_batch_async``, so these cover the scheduler's native branch;
``tests/test_provider_contract.py`` covers the worker-thread branch
over every registry entry."""

import asyncio
import itertools
import time

import pytest

from repro.core.faults import TransientModelError
from repro.models import (
    WITH_CHOICE,
    AsyncCallScheduler,
    HedgePolicy,
    TokenBucket,
)


class _RecordingAsyncProvider:
    """Echo provider: answers after a scripted number of event-loop
    yields, recording every dispatched batch."""

    def __init__(self, name, delays):
        self.name = name
        self.calls = []
        self._delays = delays

    def config_fingerprint(self):
        """Constant fingerprint."""
        return "f" * 64

    async def answer_batch_async(self, questions, setting,
                                 resolution_factor=1, use_raster=True):
        """Yield ``next(delays)`` times, then echo tagged answers."""
        for _ in range(next(self._delays)):
            await asyncio.sleep(0)
        self.calls.append((list(questions), setting,
                           resolution_factor, use_raster))
        return [f"{self.name}:{q}:{setting}:{resolution_factor}"
                for q in questions]


class TestTokenBucket:
    """Client-side pacing: deterministic refill math on a scripted
    clock, and awaited acquisition through the injectable sleep."""

    def test_burst_then_refill(self):
        clock = {"now": 0.0}
        bucket = TokenBucket(2.0, burst=2, clock=lambda: clock["now"])
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.wait_time() == pytest.approx(0.5)
        clock["now"] = 0.5  # one token refilled at 2/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.granted == 3
        assert bucket.rejected == 2

    def test_burst_caps_accumulation(self):
        clock = {"now": 0.0}
        bucket = TokenBucket(10.0, burst=3, clock=lambda: clock["now"])
        clock["now"] = 100.0  # idle forever; still only ``burst`` tokens
        for _ in range(3):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_async_acquire_sleeps_exact_deficit(self):
        clock = {"now": 0.0}
        waits = []

        async def fake_sleep(seconds):
            waits.append(seconds)
            clock["now"] += seconds

        bucket = TokenBucket(4.0, burst=1, clock=lambda: clock["now"])

        async def main():
            for _ in range(3):
                await bucket.acquire(sleep=fake_sleep)

        asyncio.run(main())
        assert bucket.granted == 3
        assert waits == [pytest.approx(0.25), pytest.approx(0.25)]
        assert bucket.waited_s == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0)
        with pytest.raises(ValueError):
            TokenBucket(1.0, burst=0)


class _StragglerProvider:
    """First call sleeps a long wall-clock interval; later calls are
    instant — the canonical hedging victim."""

    name = "straggler"

    def __init__(self, straggle_s=0.5):
        self.calls = 0
        self.straggle_s = straggle_s

    def config_fingerprint(self):
        """Constant fingerprint."""
        return "c" * 64

    async def answer_batch_async(self, questions, setting,
                                 resolution_factor=1, use_raster=True):
        """Sleep long on the first call only, then echo."""
        self.calls += 1
        if self.calls == 1:
            await asyncio.sleep(self.straggle_s)
        return list(questions)


class TestHedgedRequests:
    """First-success-wins duplication of straggling calls."""

    def test_hedge_policy_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(-0.1)
        with pytest.raises(ValueError):
            HedgePolicy(0.5, max_hedges=0)

    def test_hedge_wins_over_straggler(self):
        provider = _StragglerProvider(straggle_s=0.5)
        scheduler = AsyncCallScheduler(hedge=HedgePolicy(after_s=0.05))
        start = time.monotonic()
        answers = asyncio.run(
            scheduler.call(provider, ["q0"], WITH_CHOICE))
        elapsed = time.monotonic() - start
        assert answers == ["q0"]
        assert provider.calls == 2
        assert scheduler.hedges_launched == 1
        assert scheduler.hedge_wins == 1
        assert elapsed < 0.4  # the hedge returned, not the straggler

    def test_fast_call_never_hedged(self):
        provider = _StragglerProvider(straggle_s=0.0)
        scheduler = AsyncCallScheduler(hedge=HedgePolicy(after_s=0.5))
        answers = asyncio.run(
            scheduler.call(provider, ["q0"], WITH_CHOICE))
        assert answers == ["q0"]
        assert provider.calls == 1
        assert scheduler.hedges_launched == 0

    def test_all_copies_failing_keeps_unhedged_semantics(self):
        class _AlwaysFailing:
            """Every copy fails fast with the same transient error."""

            name = "always-failing"

            def config_fingerprint(self):
                """Constant fingerprint."""
                return "d" * 64

            async def answer_batch_async(self, questions, setting,
                                         resolution_factor=1,
                                         use_raster=True):
                """Raise immediately."""
                raise TransientModelError("copy failed")

        scheduler = AsyncCallScheduler(hedge=HedgePolicy(after_s=0.01))
        with pytest.raises(TransientModelError, match="copy failed"):
            asyncio.run(scheduler.call(
                _AlwaysFailing(), ["q0"], WITH_CHOICE))
        assert scheduler.hedge_wins == 0


class TestSchedulerPacing:
    """The scheduler awaits per-provider token buckets before
    dispatching — pacing, not rejection, on the client side."""

    def test_calls_paced_at_configured_rate(self):
        clock = {"now": 0.0}

        async def fake_sleep(seconds):
            clock["now"] += seconds

        scheduler = AsyncCallScheduler(rate_limit_per_s=2.0,
                                       rate_burst=1,
                                       clock=lambda: clock["now"],
                                       async_sleep=fake_sleep)
        provider = _RecordingAsyncProvider("p", itertools.cycle([0]))

        async def main():
            for i in range(4):
                await scheduler.call(provider, [f"q{i}"], WITH_CHOICE)

        asyncio.run(main())
        assert scheduler.calls == 4
        bucket = scheduler.bucket_for("p")
        assert bucket.granted == 4
        # burst of 1, then three waits of 0.5 s each at 2/s
        assert clock["now"] == pytest.approx(1.5)

    def test_buckets_are_per_provider(self):
        scheduler = AsyncCallScheduler(rate_limit_per_s=5.0)
        assert scheduler.bucket_for("a") is scheduler.bucket_for("a")
        assert scheduler.bucket_for("a") is not scheduler.bucket_for("b")

    def test_no_rate_limit_means_no_bucket(self):
        scheduler = AsyncCallScheduler()
        assert scheduler.bucket_for("a") is None
