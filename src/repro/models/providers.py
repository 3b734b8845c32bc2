"""Model providers: the serving seam between the evaluation stack and models.

The paper evaluated twelve VLMs across three heterogeneous serving paths
(local Ollama containers, NVIDIA NIM endpoints, Azure OpenAI), and every
production benchmark pipeline ends up treating the model endpoint as a
swappable, latency-bearing *service* rather than an in-process object.
This module is that seam: a :class:`ModelProvider` protocol every layer
of the stack (harness, runner, agent vision tool, CLI) speaks, a
registry resolving providers by name (so work units, checkpoints and
manifests stay serializable), and three implementations:

* :class:`LocalProvider` — wraps the in-process simulated zoo with
  byte-identical behaviour; the default for every reproduction path;
* :class:`RemoteStubProvider` — models an HTTP endpoint: configurable
  per-call latency, deterministic jitter, seeded transient/permanent
  failure injection and an optional server-side rate limit, so the
  resilience layer (retry, breakers, deadlines, quarantine) exercises
  realistic fault profiles;
* :class:`BatchingProvider` — a decorator coalescing per-question calls
  into batches under a max-batch-size / max-wait policy, amortising
  per-call overhead (see ``benchmarks/bench_batched_inference.py``).

The API-bound regime (remote endpoints) additionally gets an **async
seam**: an :class:`AsyncModelProvider` protocol (``answer_batch_async``)
with :func:`as_async_provider` adapting any sync provider, a
:class:`TokenBucket` rate limiter, an :class:`AsyncCallScheduler`
(per-provider pacing plus :class:`HedgePolicy` request hedging), and a
:class:`ContinuousBatcher` that keeps a rolling in-flight window full —
refilling batches the moment slots drain instead of
:class:`BatchingProvider`'s coalesce-then-drain (see
``benchmarks/bench_continuous_batching.py``).  The executor's
``AsyncBackend`` is built on these pieces.

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
from collections import deque
from typing import (
    TYPE_CHECKING, Awaitable, Callable, Deque, Dict, List, Optional,
    Protocol, Sequence, Set, runtime_checkable,
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
    deliberately *excluded* from the fingerprint (like
    ``BatchingProvider.max_wait_s``, they shape timing, never answers):

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


class BatchingProvider:
    """Coalesce per-question calls into batches on an inner provider.

    Remote endpoints charge a per-call overhead (connection setup,
    queueing, scheduling) that per-question submission pays N times; a
    coalesced request pays it once per batch.  This decorator
    implements the standard dynamic-batching policy:

    * :meth:`submit` is the coalescing path: concurrent callers (agent
      sessions, interactive tools, per-question services) hand in
      single questions, which block until either ``max_batch_size``
      submissions have accumulated or ``max_wait_s`` has elapsed since
      the batch opened — then *one* inner call serves the whole batch
      and every submitter is woken with its own answer;
    * ``answer_batch`` — an already-batched request — passes through
      as a single inner call untouched.  Batching never *splits* a
      batch: for quota-calibrated simulated models outcome planning is
      cohort-dependent, so forwarding a work unit's full question list
      in one call is what keeps Table II artifacts byte-identical.

    Coalescing changes transport granularity only; the inner
    provider's answer semantics apply per dispatched batch.  See
    ``docs/PROVIDERS.md`` and ``benchmarks/bench_batched_inference.py``
    for the throughput model.
    """

    def __init__(self, inner: ModelProvider, max_batch_size: int = 16,
                 max_wait_s: float = 0.01,
                 clock: Callable[[], float] = time.monotonic):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.inner = as_provider(inner)
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self._clock = clock
        self._lock = threading.Lock()
        self._condition = threading.Condition(self._lock)
        self._queue: List[Dict[str, object]] = []
        self._batch_opened = 0.0
        # count of in-flight drains, not a flag: full-batch triggers may
        # start a second drain while an earlier dispatch is still out,
        # and a flag would read "idle" the moment either one finishes
        self._draining = 0
        #: telemetry: inner calls issued and questions they carried
        self.batches = 0
        self.batched_questions = 0

    @property
    def name(self) -> str:
        return self.inner.name

    def config_fingerprint(self) -> str:
        # max_wait_s is pure scheduling and excluded; the coalescing
        # bound participates because it shapes what a dispatched batch
        # can contain on the submit() path
        return _fingerprint({
            "provider": "batching",
            "inner": self.inner.config_fingerprint(),
            "max_batch_size": self.max_batch_size,
        })

    def _dispatch(self, questions: Sequence[Question], setting: str,
                  resolution_factor: int,
                  use_raster: bool) -> List[ModelAnswer]:
        answers = self.inner.answer_batch(questions, setting,
                                          resolution_factor,
                                          use_raster=use_raster)
        with self._lock:
            self.batches += 1
            self.batched_questions += len(questions)
        return answers

    def answer_batch(self, questions: Sequence[Question], setting: str,
                     resolution_factor: int = 1,
                     use_raster: bool = True) -> List[ModelAnswer]:
        return self._dispatch(list(questions), setting, resolution_factor,
                              use_raster)

    # -- concurrent per-question coalescing --------------------------------

    def submit(self, question: Question, setting: str,
               resolution_factor: int = 1,
               use_raster: bool = True) -> ModelAnswer:
        """Submit one question; blocks until its batch is served.

        Submissions sharing (setting, resolution, raster mode) coalesce;
        a mismatched submission flushes the open batch first so a batch
        is always homogeneous.  The submitter that fills the batch — or
        the earliest waiter once ``max_wait_s`` has elapsed — drains it
        with a single inner call and wakes the rest.
        """
        context = (setting, resolution_factor, use_raster)
        entry: Dict[str, object] = {"question": question,
                                    "context": context,
                                    "answer": None, "error": None,
                                    "done": False}
        with self._condition:
            while self._queue and self._queue[0]["context"] != context:
                self._drain_locked()
            if not self._queue:
                self._batch_opened = self._clock()
            self._queue.append(entry)
            if len(self._queue) >= self.max_batch_size:
                self._drain_locked()
            while not entry["done"]:
                if self._draining:
                    self._condition.wait(timeout=0.001)
                    continue
                elapsed = self._clock() - self._batch_opened
                if elapsed >= self.max_wait_s:
                    self._drain_locked()
                else:
                    self._condition.wait(timeout=self.max_wait_s - elapsed)
        if entry["error"] is not None:
            raise entry["error"]  # type: ignore[misc]
        return entry["answer"]  # type: ignore[return-value]

    def flush(self) -> None:
        """Serve any open batch immediately (end-of-stream)."""
        with self._condition:
            while self._queue:
                self._drain_locked()

    def _drain_locked(self) -> None:
        """Serve up to ``max_batch_size`` queued entries; caller holds
        the lock.  The bound is strict: a queue grown past it while a
        prior dispatch was in flight drains in capped slices, and any
        leftover re-opens the batch clock.

        Exception safety is part of the contract: once entries are
        sliced off the queue they are no longer reachable by any other
        drainer, so *this* call must mark every one of them done — with
        a stored error when dispatch produced no answers — before
        letting anything propagate.  The drainer is just whichever
        submitter triggered the drain; if it dies between slicing and
        completion (a ``KeyboardInterrupt`` landing in the dispatch, an
        injected clock raising) without that bookkeeping, its
        co-batched waiters spin on ``entry["done"]`` forever (or —
        worse — are woken with ``answer=None`` and silently corrupt
        results).  Regression: ``tests/test_provider_contract.py::
        TestBatchingProviderDrainSafety``.
        """
        batch = self._queue[: self.max_batch_size]
        self._queue = self._queue[self.max_batch_size:]
        if not batch:
            return
        self._draining += 1
        try:
            if self._queue:
                self._batch_opened = self._clock()
            setting, resolution_factor, use_raster = batch[0]["context"]
            questions = [entry["question"] for entry in batch]
            self._lock.release()
            try:
                try:
                    answers = self._dispatch(questions, setting,
                                             resolution_factor, use_raster)
                    for entry, answer in zip(batch, answers):
                        entry["answer"] = answer
                except Exception as exc:  # propagate to every waiter
                    for entry in batch:
                        entry["error"] = exc
            finally:
                self._lock.acquire()
        except BaseException as exc:
            # a drain that dies outside the dispatch handler must still
            # complete the sliced entries: waiters get a terminal error,
            # the drainer re-raises the original
            for entry in batch:
                if entry["answer"] is None and entry["error"] is None:
                    entry["error"] = RuntimeError(
                        f"batch dispatch aborted: "
                        f"{type(exc).__name__}: {exc}")
            raise
        finally:
            self._draining -= 1
            for entry in batch:
                entry["done"] = True
            self._condition.notify_all()

    def __getstate__(self) -> Dict[str, object]:
        """Pickle support: the lock/condition pair is process-local and
        dropped, along with any in-flight queue (waiters cannot cross a
        process boundary — the destination starts with an empty batch)."""
        state = dict(self.__dict__)
        for key in ("_lock", "_condition", "_queue", "_draining"):
            del state[key]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Rebuild synchronisation primitives and an empty queue."""
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._condition = threading.Condition(self._lock)
        self._queue = []
        self._draining = 0

    def __repr__(self) -> str:
        return (f"BatchingProvider({self.inner!r}, "
                f"max_batch_size={self.max_batch_size})")


# -- async seam ---------------------------------------------------------------


@runtime_checkable
class AsyncModelProvider(Protocol):
    """What the asyncio evaluation path requires of a serving path.

    The async twin of :class:`ModelProvider`: same identity pair
    (``name`` plus :meth:`config_fingerprint`), same one-answer-per-
    question-in-order contract, but ``answer_batch_async`` is awaitable
    so one event loop can hold many endpoint calls in flight at once —
    the substrate for continuous batching, hedging and token-bucket
    pacing.  Sync providers are coerced via :func:`as_async_provider`;
    because the adapter preserves fingerprints, cache and checkpoint
    identity never depends on which seam served a call.
    """

    name: str

    def config_fingerprint(self) -> str:
        """Digest of everything answer behaviour depends on."""
        ...  # pragma: no cover - protocol stub

    async def answer_batch_async(
            self, questions: Sequence[Question], setting: str,
            resolution_factor: int = 1,
            use_raster: bool = True) -> List[ModelAnswer]:
        """Answer every question; one answer per question, in order."""
        ...  # pragma: no cover - protocol stub


class AsyncProviderAdapter:
    """Async façade over a synchronous provider.

    ``answer_batch_async`` runs the wrapped provider's blocking
    ``answer_batch`` on a worker thread (``asyncio.to_thread``), so a
    blocking transport overlaps with other in-flight calls instead of
    stalling the event loop.  The adapter is transport-only: ``name``
    and :meth:`config_fingerprint` delegate unchanged — which is what
    keeps run-cache keys and golden checkpoints byte-identical whichever
    seam served the call — and the sync ``answer_batch`` passes through,
    so an adapted provider still satisfies :class:`ModelProvider`.
    """

    def __init__(self, inner: object):
        self.inner = as_provider(inner)

    @property
    def name(self) -> str:
        return self.inner.name

    def config_fingerprint(self) -> str:
        return self.inner.config_fingerprint()

    def answer_batch(self, questions: Sequence[Question], setting: str,
                     resolution_factor: int = 1,
                     use_raster: bool = True) -> List[ModelAnswer]:
        return self.inner.answer_batch(questions, setting,
                                       resolution_factor,
                                       use_raster=use_raster)

    async def answer_batch_async(
            self, questions: Sequence[Question], setting: str,
            resolution_factor: int = 1,
            use_raster: bool = True) -> List[ModelAnswer]:
        import asyncio

        return await asyncio.to_thread(
            self.inner.answer_batch, questions, setting,
            resolution_factor, use_raster=use_raster)

    def __repr__(self) -> str:
        return f"AsyncProviderAdapter({self.inner!r})"


def as_async_provider(model: object) -> AsyncModelProvider:
    """Coerce a model-or-provider into an :class:`AsyncModelProvider`.

    Natively async providers (anything exposing ``answer_batch_async``
    plus ``config_fingerprint`` — e.g. :class:`RemoteStubProvider`)
    pass through untouched; everything else is first coerced through
    :func:`as_provider` and wrapped in an :class:`AsyncProviderAdapter`.
    """
    if callable(getattr(model, "answer_batch_async", None)) and callable(
            getattr(model, "config_fingerprint", None)):
        return model  # type: ignore[return-value]
    return AsyncProviderAdapter(as_provider(model))


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

    The scheduling seam shared by :class:`ContinuousBatcher` and the
    executor's ``AsyncBackend``: every provider call funnels through
    :meth:`call`, which

    1. coerces the provider to the async protocol,
    2. awaits a per-provider :class:`TokenBucket` when ``rate_limit_per_s``
       is configured — client-side pacing that keeps a sweep under a
       provider's request budget instead of burning retries on 429s
       (hedged duplicates pay for their own tokens), and
    3. applies the :class:`HedgePolicy`, if any: a duplicate launches
       once the call has been in flight ``after_s`` seconds, the first
       *successful* copy wins and the rest are cancelled.  A copy routed
       through ``asyncio.to_thread`` cannot be interrupted mid-call; its
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

    async def call(self, provider: object, questions: Sequence[Question],
                   setting: str, resolution_factor: int = 1,
                   use_raster: bool = True) -> List[ModelAnswer]:
        """Dispatch one (possibly hedged, rate-paced) provider call."""
        async_provider = as_async_provider(provider)
        bucket = self.bucket_for(async_provider.name)

        async def attempt() -> List[ModelAnswer]:
            if bucket is not None:
                await bucket.acquire(sleep=self._async_sleep)
            return await async_provider.answer_batch_async(
                questions, setting, resolution_factor,
                use_raster=use_raster)

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


class ContinuousBatcher:
    """Continuous (rolling-refill) batching over async providers.

    :class:`BatchingProvider` coalesces-then-drains: a batch fills (or
    times out), one inner call serves it, and everything behind it
    waits for that call to return before the next batch even opens —
    at high endpoint latency the pipeline idles a full round-trip per
    batch.  This is the vLLM-style serve/route alternative for the
    asyncio path: up to ``max_in_flight`` inner calls run concurrently
    and the moment one completes its slot is refilled from the pending
    queue, so the in-flight window never drains to empty while work
    remains (``benchmarks/bench_continuous_batching.py`` quantifies the
    gap).

    Submissions are grouped by (provider, setting, resolution, raster
    mode): a dispatched batch is always homogeneous — one provider, one
    evaluation context — and never exceeds ``max_batch_size``
    questions.  Both invariants, plus exactly-once completion of every
    submission, are property-tested under arbitrary arrival/drain
    interleavings in ``tests/test_continuous_batching.py``.  An
    optional :class:`AsyncCallScheduler` routes dispatches through
    per-provider token buckets and hedging.

    Single-loop discipline: all state is touched only from the event
    loop that owns the batcher (no locks); ``submit`` must be awaited
    on that loop.
    """

    def __init__(self, max_batch_size: int = 16, max_in_flight: int = 4,
                 scheduler: Optional[AsyncCallScheduler] = None):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.max_batch_size = max_batch_size
        self.max_in_flight = max_in_flight
        self.scheduler = scheduler
        self._pending: Deque[Dict[str, object]] = deque()
        self._in_flight = 0
        self._tasks: Set["asyncio.Task[None]"] = set()
        #: telemetry: batches dispatched, questions they carried, the
        #: concurrency high-water mark, and how many batches launched
        #: from a completion slot (the continuous refills a
        #: coalesce-then-drain design never gets)
        self.batches = 0
        self.batched_questions = 0
        self.peak_in_flight = 0
        self.refills = 0

    @property
    def in_flight(self) -> int:
        """Inner calls currently out."""
        return self._in_flight

    def pending_count(self) -> int:
        """Submissions queued but not yet dispatched."""
        return len(self._pending)

    async def submit(self, provider: object, question: Question,
                     setting: str, resolution_factor: int = 1,
                     use_raster: bool = True) -> ModelAnswer:
        """Submit one question; resolves when its batch's call returns.

        The submission joins the pending queue and is swept into the
        next homogeneous batch with a free in-flight slot — immediately
        if one is free now, otherwise the moment a completing call
        refills.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        entry: Dict[str, object] = {
            "provider": provider,
            "question": question,
            "key": (id(provider), setting, resolution_factor, use_raster),
            "future": loop.create_future(),
        }
        self._pending.append(entry)
        self._pump()
        return await entry["future"]  # type: ignore[misc]

    def _pump(self, refill: bool = False) -> None:
        """Launch homogeneous batches while slots and work remain."""
        import asyncio

        while self._in_flight < self.max_in_flight and self._pending:
            key = self._pending[0]["key"]
            batch: List[Dict[str, object]] = []
            rest: Deque[Dict[str, object]] = deque()
            for entry in self._pending:
                if entry["key"] == key and len(batch) < self.max_batch_size:
                    batch.append(entry)
                else:
                    rest.append(entry)
            self._pending = rest
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
            self.batches += 1
            self.batched_questions += len(batch)
            if refill:
                self.refills += 1
            task = asyncio.ensure_future(self._dispatch(batch))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _dispatch(self, batch: List[Dict[str, object]]) -> None:
        import asyncio

        provider = batch[0]["provider"]
        _, setting, resolution_factor, use_raster = batch[0]["key"]
        questions = [entry["question"] for entry in batch]
        try:
            if self.scheduler is not None:
                answers = await self.scheduler.call(
                    provider, questions, setting, resolution_factor,
                    use_raster=use_raster)
            else:
                answers = await as_async_provider(
                    provider).answer_batch_async(
                        questions, setting, resolution_factor,
                        use_raster=use_raster)
            for entry, answer in zip(batch, answers):
                future = entry["future"]
                if not future.done():  # type: ignore[union-attr]
                    future.set_result(answer)  # type: ignore[union-attr]
        except asyncio.CancelledError:
            for entry in batch:
                future = entry["future"]
                if not future.done():  # type: ignore[union-attr]
                    future.cancel()  # type: ignore[union-attr]
            raise
        except Exception as exc:  # propagate to every waiter
            for entry in batch:
                future = entry["future"]
                if not future.done():  # type: ignore[union-attr]
                    future.set_exception(exc)  # type: ignore[union-attr]
        finally:
            self._in_flight -= 1
            self._pump(refill=True)

    def __repr__(self) -> str:
        return (f"ContinuousBatcher(max_batch_size={self.max_batch_size}, "
                f"max_in_flight={self.max_in_flight})")


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
