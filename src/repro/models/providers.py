"""Model providers: the serving seam between the evaluation stack and models.

The paper evaluated twelve VLMs across three heterogeneous serving paths
(local Ollama containers, NVIDIA NIM endpoints, Azure OpenAI), and every
production benchmark pipeline ends up treating the model endpoint as a
swappable, latency-bearing *service* rather than an in-process object.
This module is that seam: a :class:`ModelProvider` protocol every layer
of the stack (harness, runner, agent vision tool, CLI) speaks, a
registry resolving providers by name (so work units, checkpoints and
manifests stay serializable), and two implementations:

* :class:`LocalProvider` — wraps the in-process simulated zoo with
  byte-identical behaviour; the default for every reproduction path;
* :class:`RemoteStubProvider` — models an HTTP endpoint: configurable
  per-call latency, deterministic jitter, seeded transient/permanent
  failure injection and an optional server-side rate limit, so the
  resilience layer (retry, breakers, deadlines, quarantine) exercises
  realistic fault profiles.

The API-bound regime (remote endpoints) additionally gets one **async
call path**: an :class:`AsyncCallScheduler` awaits a provider's own
``answer_batch_async`` when it defines one and otherwise runs its
``answer_batch`` on a worker thread, pacing each provider name with a
:class:`TokenBucket` and duplicating stragglers under a
:class:`HedgePolicy` (see ``benchmarks/bench_hedging.py``).  The
executor's ``AsyncBackend`` is built on it.

Provider identity is content-addressed: :meth:`config_fingerprint`
digests everything answer behaviour depends on, and the run cache folds
it into its keys so two differently-configured providers can never
alias each other's entries.  See ``docs/PROVIDERS.md``.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import (
    TYPE_CHECKING, Awaitable, Callable, Dict, List, Optional, Protocol,
    Sequence, Set, runtime_checkable,
)

from repro.core import perfstats
from repro.core.faults import PermanentError, TransientModelError
from repro.core.question import Question
from repro.models.vlm import ModelAnswer, SimulatedVLM

if TYPE_CHECKING:  # asyncio loads on the async path's first use
    import asyncio


def _fingerprint(payload: object) -> str:
    """Canonical sha256 digest of a JSON-serialisable config payload."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":"),
                   default=str).encode("utf-8")).hexdigest()


async def _asyncio_sleep(delay: float) -> None:
    """``asyncio.sleep``, the default async wait.  asyncio is imported
    here and in the other coroutines, not at module level, so the
    serial path never loads it."""
    import asyncio

    await asyncio.sleep(delay)


@runtime_checkable
class ModelProvider(Protocol):
    """What the evaluation stack requires of a model serving path.

    A provider answers a batch of questions under one evaluation setting
    and identifies itself two ways: ``name`` (display/checkpoint
    identity — what artifacts are keyed by) and
    :meth:`config_fingerprint` (cache identity — a digest of everything
    answer behaviour depends on, so two providers sharing a display
    name but differing in configuration never alias cache entries).

    ``answer_batch`` must return exactly one :class:`ModelAnswer` per
    question, in question order, and must be deterministic for a fixed
    configuration (retries and re-runs replay byte-identically).
    Transport-level faults are reported by raising
    :class:`~repro.core.faults.TransientModelError` (retryable) or
    :class:`~repro.core.faults.PermanentError` (not).
    """

    name: str

    def config_fingerprint(self) -> str:
        """Digest of everything answer behaviour depends on."""
        ...  # pragma: no cover - protocol stub

    def answer_batch(self, questions: Sequence[Question], setting: str,
                     resolution_factor: int = 1,
                     use_raster: bool = True) -> List[ModelAnswer]:
        """Answer every question; one answer per question, in order."""
        ...  # pragma: no cover - protocol stub


def _model_config_payload(model: object) -> Dict[str, object]:
    """A JSON-serialisable description of a wrapped model's behaviour.

    A model may define its own ``config_payload()`` (the chip-designer
    agent does, covering its designer backbone and vision-tool backend);
    for :class:`SimulatedVLM` the payload covers the full architecture
    and calibration (two zoo builds of the same name fingerprint
    identically; a fine-tuned variant does not).  Anything else falls
    back to class plus name, which is exact for singletons with fixed
    configuration.
    """
    payload_hook = getattr(model, "config_payload", None)
    if callable(payload_hook):
        return payload_hook()
    if isinstance(model, SimulatedVLM):
        return {
            "kind": "simulated-vlm",
            "name": model.name,
            "encoder": list(model.encoder.config_key()),
            "projector": [model.projector.name, model.projector.tokens_out,
                          model.projector.alignment],
            "backbone": [model.backbone.name, model.backbone.params_billion,
                         model.backbone.text_ability],
            "calibration": {
                setting: {cat.value: rate for cat, rate in sorted(
                    table.items(), key=lambda item: item[0].value)}
                for setting, table in (
                    ("with_choice", model.calibration.with_choice),
                    ("no_choice", model.calibration.no_choice))
            },
            "supports_system_prompt": model.supports_system_prompt,
            "temperature": model.temperature,
        }
    return {
        "kind": type(model).__name__,
        "name": getattr(model, "name", repr(model)),
    }


class LocalProvider:
    """In-process serving of any ``answer_all``-compatible model.

    Wraps the simulated zoo (or the chip-designer agent) with
    byte-identical behaviour: ``answer_batch`` is a direct delegation to
    the model's ``answer_all``, so artifacts produced through a
    ``LocalProvider`` match the pre-provider evaluation path exactly
    (pinned in ``tests/test_provider_contract.py``).

    The wrapper is a transparent proxy: attributes not defined here
    (``plan``, ``answer_all``, ``encoder``, ``calibration``, …) resolve
    against the wrapped model, so analysis code written against
    :class:`SimulatedVLM` keeps working on zoo entries.
    """

    def __init__(self, model: object):
        if not callable(getattr(model, "answer_all", None)):
            raise TypeError(
                f"LocalProvider needs an answer_all-compatible model, "
                f"got {type(model).__name__}")
        self.model = model

    @property
    def name(self) -> str:
        return self.model.name  # type: ignore[attr-defined]

    def config_fingerprint(self) -> str:
        return _fingerprint({
            "provider": "local",
            "model": _model_config_payload(self.model),
        })

    def answer_batch(self, questions: Sequence[Question], setting: str,
                     resolution_factor: int = 1,
                     use_raster: bool = True) -> List[ModelAnswer]:
        return self.model.answer_all(  # type: ignore[attr-defined]
            questions, setting, resolution_factor, use_raster=use_raster)

    def __getattr__(self, attribute: str):
        # transparent proxy: anything not defined on the provider is
        # served by the wrapped model (guarded against recursion while
        # unpickling, when ``model`` itself is not yet set)
        if attribute == "model":
            raise AttributeError(attribute)
        return getattr(self.model, attribute)

    def __setattr__(self, attribute: str, value: object) -> None:
        # writes go to the wrapped model as well (instrumentation like
        # swapping in a counting encoder must reach the real object);
        # only ``model`` itself lives on the provider
        if attribute == "model" or "model" not in self.__dict__:
            object.__setattr__(self, attribute, value)
        else:
            setattr(self.model, attribute, value)

    def __getstate__(self) -> Dict[str, object]:
        """Pickle support: hand over the instance dict explicitly so the
        transparent ``__getattr__`` proxy can never answer a pickle
        protocol probe with the wrapped model's attributes."""
        return self.__dict__

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Restore the instance dict directly (bypassing the
        write-through ``__setattr__`` proxy)."""
        self.__dict__.update(state)

    def __repr__(self) -> str:
        return f"LocalProvider({self.model!r})"


def as_provider(model: object) -> ModelProvider:
    """Coerce a model-or-provider into a :class:`ModelProvider`.

    Providers pass through untouched; anything exposing ``answer_all``
    (a raw :class:`SimulatedVLM`, a fine-tuned variant, the agent) is
    wrapped in a :class:`LocalProvider`.  This is the compatibility
    shim that lets every refactored consumer keep accepting the
    pre-provider model objects.
    """
    if callable(getattr(model, "answer_batch", None)) and callable(
            getattr(model, "config_fingerprint", None)):
        return model  # type: ignore[return-value]
    return LocalProvider(model)


class RemoteStubProvider:
    """A simulated HTTP model endpoint wrapping an inner provider.

    Models the serving path the paper actually ran (Ollama / NIM /
    Azure endpoints) without a network: every ``answer_batch`` call
    pays a base latency plus deterministic jitter, and a configurable
    fraction of calls fails — transiently (rate limits, resets; the
    runner's retry/backoff path absorbs these, and each flaky call key
    recovers after ``transient_failures`` attempts) or permanently
    (content filters, revoked credentials; these never succeed and are
    what circuit breakers and quarantine exist for).

    All behaviour is a pure function of ``seed`` and the call key
    (setting, resolution, question ids), so runs replay
    deterministically regardless of thread scheduling — the property
    the chaos/convergence tests rely on.  ``sleep`` is injectable so
    tests and benchmarks measure policy, not wall-clock.

    Two transport knobs exist for the async/scheduling layer and are
    deliberately *excluded* from the fingerprint (they shape timing,
    never answers):

    * ``rate_limit_per_s`` / ``rate_limit_burst`` — server-side request
      budget; a call arriving with the bucket empty is rejected with a
      simulated 429 (:class:`TransientModelError`) instead of served.
      ``rate_clock`` is injectable so tests script the refill timeline.
    * ``jitter_per_call`` — draw latency jitter from a per-call sequence
      instead of the call key, so two copies of the *same* call (a
      hedged duplicate) see independent latencies.  Answers stay
      key-deterministic either way.
    """

    def __init__(
        self,
        inner: ModelProvider,
        base_latency_s: float = 0.0,
        jitter_s: float = 0.0,
        transient_rate: float = 0.0,
        permanent_rate: float = 0.0,
        transient_failures: int = 1,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        rate_limit_per_s: Optional[float] = None,
        rate_limit_burst: Optional[int] = None,
        rate_clock: Callable[[], float] = time.monotonic,
        jitter_per_call: bool = False,
        async_sleep: Callable[[float], Awaitable[None]] = _asyncio_sleep,
    ):
        if base_latency_s < 0 or jitter_s < 0:
            raise ValueError("latency and jitter must be >= 0")
        for label, rate in (("transient_rate", transient_rate),
                            ("permanent_rate", permanent_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1]")
        if transient_failures < 1:
            raise ValueError("transient_failures must be >= 1")
        if rate_limit_per_s is not None and rate_limit_per_s <= 0:
            raise ValueError("rate_limit_per_s must be > 0")
        self.inner = as_provider(inner)
        self.base_latency_s = base_latency_s
        self.jitter_s = jitter_s
        self.transient_rate = transient_rate
        self.permanent_rate = permanent_rate
        self.transient_failures = transient_failures
        self.seed = seed
        self.rate_limit_per_s = rate_limit_per_s
        self.rate_limit_burst = rate_limit_burst
        self.jitter_per_call = jitter_per_call
        self._sleep = sleep
        self._async_sleep = async_sleep
        self._rate_clock = rate_clock
        self._rate_bucket = self._build_bucket()
        self._jitter_seq = 0
        self._lock = threading.Lock()
        self._crossings: Dict[str, int] = {}
        #: telemetry: completed calls, injected faults, simulated
        #: latency, and calls bounced by the simulated rate limiter
        self.calls = 0
        self.faults_injected = 0
        self.rate_limited = 0
        self.simulated_latency_s = 0.0

    def _build_bucket(self) -> Optional["TokenBucket"]:
        if self.rate_limit_per_s is None:
            return None
        return TokenBucket(self.rate_limit_per_s,
                           burst=self.rate_limit_burst,
                           clock=self._rate_clock)

    @property
    def name(self) -> str:
        return self.inner.name

    def config_fingerprint(self) -> str:
        return _fingerprint({
            "provider": "remote-stub",
            "inner": self.inner.config_fingerprint(),
            "base_latency_s": self.base_latency_s,
            "jitter_s": self.jitter_s,
            "transient_rate": self.transient_rate,
            "permanent_rate": self.permanent_rate,
            "transient_failures": self.transient_failures,
            "seed": self.seed,
        })

    def _call_key(self, questions: Sequence[Question], setting: str,
                  resolution_factor: int) -> str:
        qids = ",".join(q.qid for q in questions)
        return f"{setting}|r{resolution_factor}|{qids}"

    def _unit_draw(self, key: str, salt: str) -> float:
        digest = hashlib.sha256(
            f"{self.seed}|{salt}|{key}".encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") / 2 ** 32

    def _check_rate_limit(self, key: str) -> None:
        """Server-side admission: reject with a simulated 429 when the
        request budget is exhausted (retryable; the client's retry or
        scheduler-side pacing absorbs it)."""
        if self._rate_bucket is None or self._rate_bucket.try_acquire():
            return
        with self._lock:
            self.rate_limited += 1
            self.faults_injected += 1
        raise TransientModelError(
            f"{self.name}: simulated 429 rate limit "
            f"({self.rate_limit_per_s}/s) for {key[:40]!r}")

    def _draw_latency(self, key: str) -> float:
        latency = self.base_latency_s
        if self.jitter_s:
            salt = "jitter"
            if self.jitter_per_call:
                with self._lock:
                    self._jitter_seq += 1
                    salt = f"jitter#{self._jitter_seq}"
            latency += self.jitter_s * self._unit_draw(key, salt)
        return latency

    def _inject_faults(self, key: str) -> None:
        if self._unit_draw(key, "permanent") < self.permanent_rate:
            with self._lock:
                self.faults_injected += 1
            raise PermanentError(
                f"{self.name}: endpoint rejected request {key[:40]!r}")
        if self._unit_draw(key, "transient") < self.transient_rate:
            with self._lock:
                crossing = self._crossings.get(key, 0)
                self._crossings[key] = crossing + 1
            if crossing < self.transient_failures:
                with self._lock:
                    self.faults_injected += 1
                raise TransientModelError(
                    f"{self.name}: simulated 429 "
                    f"({crossing + 1}/{self.transient_failures}) "
                    f"for {key[:40]!r}")

    def _simulate_transport(self, key: str) -> None:
        self._check_rate_limit(key)
        latency = self._draw_latency(key)
        if latency:
            with self._lock:
                self.simulated_latency_s += latency
            # the wait is dead air on this thread: publish it as an
            # idle window so background builders can schedule their
            # CPU bursts inside it (see perfstats.idle_window)
            with perfstats.idle_window():
                self._sleep(latency)
        self._inject_faults(key)

    async def _simulate_transport_async(self, key: str) -> None:
        # same admission/fault pipeline as the sync path, but latency
        # suspends the coroutine so concurrent calls overlap on one loop
        self._check_rate_limit(key)
        latency = self._draw_latency(key)
        if latency:
            with self._lock:
                self.simulated_latency_s += latency
            with perfstats.idle_window():
                await self._async_sleep(latency)
        self._inject_faults(key)

    def answer_batch(self, questions: Sequence[Question], setting: str,
                     resolution_factor: int = 1,
                     use_raster: bool = True) -> List[ModelAnswer]:
        key = self._call_key(questions, setting, resolution_factor)
        self._simulate_transport(key)
        answers = self.inner.answer_batch(questions, setting,
                                          resolution_factor,
                                          use_raster=use_raster)
        with self._lock:
            self.calls += 1
        return answers

    async def answer_batch_async(
            self, questions: Sequence[Question], setting: str,
            resolution_factor: int = 1,
            use_raster: bool = True) -> List[ModelAnswer]:
        """Async twin of :meth:`answer_batch`: identical answers and
        fault draws for a given call key, but simulated latency awaits
        on the event loop, so many endpoint calls run concurrently
        without threads.  The wrapped model's (simulated) compute runs
        inline — latency, not compute, is what this stub models."""
        key = self._call_key(questions, setting, resolution_factor)
        await self._simulate_transport_async(key)
        answers = self.inner.answer_batch(questions, setting,
                                          resolution_factor,
                                          use_raster=use_raster)
        with self._lock:
            self.calls += 1
        return answers

    def __getstate__(self) -> Dict[str, object]:
        """Pickle support: the telemetry lock is process-local state and
        is dropped (as is the rate bucket, which owns a lock — a worker
        process starts with a freshly-filled budget); behaviour
        (seed-keyed draws, crossing counts) ships so a worker process
        replays the endpoint deterministically."""
        state = dict(self.__dict__)
        del state["_lock"]
        state.pop("_rate_bucket", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Rebuild the dropped lock and rate bucket in the destination
        process."""
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._rate_bucket = self._build_bucket()

    def __repr__(self) -> str:
        return (f"RemoteStubProvider({self.inner!r}, "
                f"latency={self.base_latency_s}, "
                f"transient_rate={self.transient_rate})")


# -- async call path --------------------------------------------------------


class TokenBucket:
    """Thread-safe token-bucket rate limiter with sync and async edges.

    Standard semantics: the bucket holds up to ``burst`` tokens and
    refills continuously at ``rate_per_s``.  Two consumption styles
    serve the two sides of the rate-limit story:

    * :meth:`try_acquire` — non-blocking; the *server* side
      (:class:`RemoteStubProvider`) uses it to decide whether to reject
      a request with a simulated 429;
    * :meth:`acquire` — awaits until tokens are available; the *client*
      side (:class:`AsyncCallScheduler`) uses it to pace dispatches
      under a provider's published budget instead of burning retries.

    ``clock`` is injectable so tests script the refill timeline
    deterministically.
    """

    def __init__(self, rate_per_s: float, burst: Optional[int] = None,
                 clock: Callable[[], float] = time.monotonic):
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be > 0")
        if burst is None:
            burst = max(1, int(rate_per_s))
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate_per_s = float(rate_per_s)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(self.burst)
        self._updated = clock()
        self._lock = threading.Lock()
        #: telemetry: grants, non-blocking rejections, async pacing time
        self.granted = 0
        self.rejected = 0
        self.waited_s = 0.0

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(float(self.burst),
                           self._tokens + elapsed * self.rate_per_s)
        self._updated = now

    def try_acquire(self, tokens: int = 1) -> bool:
        """Take ``tokens`` if available right now; never blocks."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= tokens:
                self._tokens -= tokens
                self.granted += 1
                return True
            self.rejected += 1
            return False

    def wait_time(self, tokens: int = 1) -> float:
        """Seconds until ``tokens`` would be available (0 if they are)."""
        with self._lock:
            self._refill_locked()
            deficit = tokens - self._tokens
            return max(0.0, deficit / self.rate_per_s)

    async def acquire(
            self, tokens: int = 1,
            sleep: Callable[[float], Awaitable[None]] = _asyncio_sleep,
    ) -> None:
        """Await until ``tokens`` are taken (client-side pacing)."""
        while True:
            with self._lock:
                self._refill_locked()
                if self._tokens >= tokens:
                    self._tokens -= tokens
                    self.granted += 1
                    return
                delay = (tokens - self._tokens) / self.rate_per_s
            self.waited_s += delay
            await sleep(delay)

    def __repr__(self) -> str:
        return (f"TokenBucket(rate_per_s={self.rate_per_s}, "
                f"burst={self.burst})")


class HedgePolicy:
    """When and how to duplicate a straggling provider call.

    Tail latency at remote endpoints is dominated by a few slow
    stragglers; hedging launches a duplicate of a call that has been in
    flight longer than ``after_s`` and takes whichever copy succeeds
    first (losers are cancelled).  At most ``max_hedges`` duplicates are
    launched per call.  Providers are deterministic per call key, so the
    copies are interchangeable: hedging shapes *latency* only, never
    answers — which is why it is safe under the golden-digest pin.
    """

    def __init__(self, after_s: float, max_hedges: int = 1):
        if after_s < 0:
            raise ValueError("after_s must be >= 0")
        if max_hedges < 1:
            raise ValueError("max_hedges must be >= 1")
        self.after_s = after_s
        self.max_hedges = max_hedges

    def __repr__(self) -> str:
        return (f"HedgePolicy(after_s={self.after_s}, "
                f"max_hedges={self.max_hedges})")


class AsyncCallScheduler:
    """Rate-limit-aware, optionally hedged dispatcher for provider calls.

    The executor's ``AsyncBackend`` sends every provider call through
    :meth:`call`, which

    1. awaits a per-provider :class:`TokenBucket` when ``rate_limit_per_s``
       is configured — client-side pacing that keeps a sweep under a
       provider's request budget instead of burning retries on 429s
       (hedged duplicates pay for their own tokens),
    2. calls the provider: its own ``answer_batch_async`` when it
       defines one (:class:`RemoteStubProvider` does), else its blocking
       ``answer_batch`` on a worker thread (``asyncio.to_thread``), so
       the call overlaps the others in flight instead of stalling the
       event loop, and
    3. applies the :class:`HedgePolicy`, if any: a duplicate launches
       once the call has been in flight ``after_s`` seconds, the first
       *successful* copy wins and the rest are cancelled.  A copy
       running on a worker thread cannot be interrupted mid-call; its
       result is simply discarded when cancellation lands.

    Errors keep unhedged semantics: only when every copy fails does the
    first copy's exception propagate, so retry/breaker classification
    upstream is unchanged.
    """

    def __init__(self, rate_limit_per_s: Optional[float] = None,
                 rate_burst: Optional[int] = None,
                 hedge: Optional[HedgePolicy] = None,
                 clock: Callable[[], float] = time.monotonic,
                 async_sleep: Callable[
                     [float], Awaitable[None]] = _asyncio_sleep):
        if rate_limit_per_s is not None and rate_limit_per_s <= 0:
            raise ValueError("rate_limit_per_s must be > 0")
        self.rate_limit_per_s = rate_limit_per_s
        self.rate_burst = rate_burst
        self.hedge = hedge
        self._clock = clock
        self._async_sleep = async_sleep
        self._buckets: Dict[str, TokenBucket] = {}
        self._buckets_lock = threading.Lock()
        #: telemetry: calls dispatched, hedges launched, hedge wins
        self.calls = 0
        self.hedges_launched = 0
        self.hedge_wins = 0

    def bucket_for(self, provider_name: str) -> Optional[TokenBucket]:
        """The (lazily created) pacing bucket for one provider name."""
        if self.rate_limit_per_s is None:
            return None
        with self._buckets_lock:
            bucket = self._buckets.get(provider_name)
            if bucket is None:
                bucket = TokenBucket(self.rate_limit_per_s,
                                     burst=self.rate_burst,
                                     clock=self._clock)
                self._buckets[provider_name] = bucket
            return bucket

    async def call(self, provider: ModelProvider,
                   questions: Sequence[Question], setting: str,
                   resolution_factor: int = 1,
                   use_raster: bool = True) -> List[ModelAnswer]:
        """Dispatch one (possibly hedged, rate-paced) provider call."""
        bucket = self.bucket_for(provider.name)
        answer_async = getattr(provider, "answer_batch_async", None)

        async def attempt() -> List[ModelAnswer]:
            if bucket is not None:
                await bucket.acquire(sleep=self._async_sleep)
            if answer_async is not None:
                return await answer_async(questions, setting,
                                          resolution_factor,
                                          use_raster=use_raster)
            import asyncio

            return await asyncio.to_thread(
                provider.answer_batch, questions, setting,
                resolution_factor, use_raster=use_raster)

        self.calls += 1
        if self.hedge is None:
            return await attempt()
        return await self._race(attempt)

    async def _race(
            self,
            attempt: Callable[[], Awaitable[List[ModelAnswer]]],
    ) -> List[ModelAnswer]:
        import asyncio

        tasks: List["asyncio.Task[List[ModelAnswer]]"] = [
            asyncio.ensure_future(attempt())]
        assert self.hedge is not None
        hedges_left = self.hedge.max_hedges
        errors: List[BaseException] = []
        try:
            pending: Set["asyncio.Task[List[ModelAnswer]]"] = set(tasks)
            while pending:
                timeout = self.hedge.after_s if hedges_left > 0 else None
                done, pending = await asyncio.wait(
                    pending, timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED)
                for task in done:
                    if task.cancelled():
                        continue
                    exc = task.exception()
                    if exc is None:
                        if task is not tasks[0]:
                            self.hedge_wins += 1
                        return task.result()
                    errors.append(exc)
                if not done and hedges_left > 0:
                    hedges_left -= 1
                    self.hedges_launched += 1
                    hedge_task = asyncio.ensure_future(attempt())
                    tasks.append(hedge_task)
                    pending.add(hedge_task)
            raise errors[0]
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()


# -- registry ---------------------------------------------------------------


class ProviderRegistry:
    """Name -> provider-factory mapping; the serializable identity layer.

    Work units, checkpoints and manifests reference providers by
    registry name; resolving the name on any process reproduces the
    provider, which is what keeps run artifacts portable across
    launches.  Factories are invoked per :meth:`create` call (providers
    may carry per-run state such as failure-injection counters).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._factories: Dict[str, Callable[[], ModelProvider]] = {}

    def register(self, name: str, factory: Callable[[], ModelProvider],
                 replace: bool = False) -> None:
        with self._lock:
            if not replace and name in self._factories:
                raise ValueError(f"provider {name!r} already registered")
            self._factories[name] = factory

    def unregister(self, name: str) -> None:
        with self._lock:
            self._factories.pop(name, None)

    def create(self, name: str) -> ModelProvider:
        with self._lock:
            factory = self._factories.get(name)
        if factory is None:
            raise KeyError(
                f"unknown provider {name!r}; known: {self.names()}")
        provider = as_provider(factory())
        if provider.name != name:
            raise ValueError(
                f"provider factory for {name!r} produced a provider "
                f"named {provider.name!r}")
        return provider

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._factories

    def __len__(self) -> int:
        with self._lock:
            return len(self._factories)


#: The process-wide registry; the zoo registers its twelve models (and
#: the chip-designer agent) here at import time, and the CLI/runner
#: resolve ``model="<name>"`` work units against it.
default_registry = ProviderRegistry()


def register_provider(name: str, factory: Callable[[], ModelProvider],
                      replace: bool = False) -> None:
    """Register a provider factory in the default registry."""
    default_registry.register(name, factory, replace=replace)


def provider_names() -> List[str]:
    """All names registered in the default registry (sorted)."""
    _ensure_zoo_registered()
    return default_registry.names()


def create_provider(name: str) -> ModelProvider:
    """Resolve a provider by name from the default registry."""
    _ensure_zoo_registered()
    return default_registry.create(name)


def _ensure_zoo_registered() -> None:
    # the zoo registers itself at import; importing it here makes the
    # registry usable without requiring callers to know that detail
    import repro.models.zoo  # noqa: F401
