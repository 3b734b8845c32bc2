"""Sharded, parallel, content-addressed procedural dataset builds.

ROADMAP item 3: every ChipVQA question family computes its gold answer
from a real solver, so the benchmark scales procedurally beyond the
canonical 142 questions.  This module is the build substrate:

* **Scaling scheme** — the global question sequence is an infinite
  repetition of the canonical collection in an *interleaved* order that
  spreads the five disciplines evenly (:func:`interleaved_order`), so
  any contiguous shard window preserves the Table I family proportions
  within rounding.  Global index ``g`` maps to cycle ``g // 142`` and
  canonical slot ``g % 142``; cycle 0 reproduces the canonical
  questions verbatim (``build_chipvqa_scaled(142, seed)`` is a fixed
  point of the seed dataset for every seed), and cycles >= 1 derive
  seeded *variants* (:func:`derive_variant`): fresh qid, permuted MC
  options with the gold re-indexed, jittered difficulty.  Gold answers
  are inherited from the solver-derived canonical question, so validity
  is preserved by construction.

* **Shards** — :class:`ShardSpec` names one contiguous window of the
  global sequence; :func:`build_shard` materialises it.  Shards are
  built in parallel across the executor backends
  (:func:`build_shards`), and each shard's output lives in a
  **content-addressed build cache**: a :class:`~repro.core.perfstats.
  LruCache` named ``dataset_build`` whose spill codec serialises whole
  shards (questions *including* ``render_spec``), so the standard
  :class:`~repro.core.perfstats.SpillStore` machinery provides the
  on-disk tier.  Keys are ``(schema, generator fingerprint, seed,
  start, stop)`` tuples — the store addresses entries by the sha256 of
  the key, warm rebuilds never re-run a generator, and hit/miss/spill
  counters flow into ``RunStats.perf_caches`` like every other
  perception-substrate cache.

* **Streaming** — :class:`StreamingDataset` exposes a scaled build
  shard-by-shard so a 100k-question sweep through
  :class:`~repro.core.runner.ParallelRunner` holds O(shard) questions
  in memory instead of O(n) (see :mod:`repro.core.sweep`).

See ``docs/DATASET_FORMAT.md`` for the build-cache key schema and the
scaling cookbook, and ``benchmarks/bench_dataset_scaleout.py`` for the
pinned cold/warm and parallel-build performance shapes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import threading
from collections import Counter
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core import perfstats
from repro.core.dataset import Dataset
from repro.core.question import (
    Category,
    Question,
    QuestionType,
    TOTAL_QUESTIONS,
    VisualContent,
    VisualType,
)

#: Version of the shard wire format and of the scaling scheme itself.
#: Bump when the interleaving, variant derivation or serialisation
#: changes — stale build-cache entries then miss instead of lying.
SHARD_SCHEMA_VERSION = 1

#: Default shard size: one canonical cycle per shard.
DEFAULT_SHARD_SIZE = TOTAL_QUESTIONS

#: Registry name of the shard build cache (``perfstats`` counters and
#: the on-disk spill tier both key off this).
BUILD_CACHE_NAME = "dataset_build"


class ScaleConfigError(ValueError):
    """A scaled-build parameter set is invalid."""


# -- canonical cycle ---------------------------------------------------------


_CYCLE_LOCK = threading.Lock()
_CYCLE: Optional[Tuple[Question, ...]] = None


def canonical_cycle() -> Tuple[Question, ...]:
    """The 142 canonical questions in interleaved (scaled) order.

    Computed once per process from :func:`~repro.core.benchmark.
    build_chipvqa`; the canonical build is itself cached, so this is
    cheap after first use.
    """
    global _CYCLE
    with _CYCLE_LOCK:
        if _CYCLE is None:
            from repro.core.benchmark import build_chipvqa

            canonical = tuple(build_chipvqa())
            order = interleaved_order(tuple(q.category for q in canonical))
            _CYCLE = tuple(canonical[i] for i in order)
        return _CYCLE


def reset_canonical_cycle() -> None:
    """Forget the process-cached canonical cycle.

    Benchmarks emulate a cold process with this (paired with
    :func:`repro.core.perfstats.reset`): the next build re-runs the
    canonical solvers instead of reusing the in-process cycle.
    """
    global _CYCLE
    with _CYCLE_LOCK:
        _CYCLE = None


def interleaved_order(categories: Sequence[Category]) -> Tuple[int, ...]:
    """A permutation of ``range(len(categories))`` spreading families evenly.

    The canonical collection is family-blocked (all Digital questions,
    then all Analog, ...), so a contiguous window of it would be
    single-discipline.  Each question is instead keyed by its
    fractional position within its family — the ``j``-th of ``k``
    members sorts at ``(j + 0.5) / k`` — and the whole collection is
    ordered by that key.  Family members then sit at near-arithmetic
    global positions, so every window of length ``L`` contains
    ``L * k / total`` members of each family within rounding.
    """
    totals = Counter(categories)
    seen: Dict[Category, int] = {}
    keyed: List[Tuple[float, int]] = []
    for index, category in enumerate(categories):
        j = seen.get(category, 0)
        seen[category] = j + 1
        keyed.append(((j + 0.5) / totals[category], index))
    keyed.sort()
    return tuple(index for _, index in keyed)


# -- generator fingerprints --------------------------------------------------


#: Version of each family's question generators (the ``generate_*``
#: builders in each discipline's ``questions.py``).  Bump a family's
#: entry whenever its builders' output changes, so stale cached shards
#: are invalidated (see :func:`generator_fingerprint`).
GENERATOR_VERSIONS: Dict[str, str] = {
    "analog": "analog-1",
    "architecture": "arch-1",
    "digital": "digital-1",
    "manufacturing": "manufacturing-1",
    "physical": "physical-1",
}


def generator_versions() -> Dict[str, str]:
    """Per-family generator version strings (:data:`GENERATOR_VERSIONS`)."""
    return dict(GENERATOR_VERSIONS)


def generator_fingerprint() -> str:
    """Digest of every family generator version plus the schema version.

    Part of every shard cache key: bumping any entry of
    :data:`GENERATOR_VERSIONS` (or :data:`SHARD_SCHEMA_VERSION`)
    invalidates all cached shards at once, so a stale on-disk cache can
    never serve questions from an older generator.
    """
    payload = json.dumps(
        {"schema": SHARD_SCHEMA_VERSION,
         "families": generator_versions()},
        sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# -- variant derivation ------------------------------------------------------


def derive_variant(question: Question, cycle: int, seed: int) -> Question:
    """The ``cycle``-th seeded variant of a canonical question.

    Cycle 0 is the canonical question itself.  Later cycles keep the
    solver-derived gold answer but present the question differently:

    * a fresh unique qid (``<base>~c<cycle>s<seed>``) — which also gives
      the variant an independent quota-IRT jitter realisation in the
      simulated zoo;
    * multiple-choice options in a seeded permutation, with
      ``correct_choice`` re-indexed (the gold *text* is unchanged);
    * difficulty jittered within [0.05, 0.95];
    * ``source`` tagged with the cycle and seed.

    Derivation is a pure function of ``(qid, cycle, seed)`` — stable
    across processes and platforms.
    """
    if cycle == 0:
        return question
    token = f"chipvqa-scale|{seed}|{cycle}|{question.qid}"
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    difficulty = question.difficulty + (rng.random() - 0.5) * 0.1
    difficulty = min(0.95, max(0.05, difficulty))
    fields: Dict[str, Any] = {
        "qid": f"{question.qid}~c{cycle}s{seed}",
        "difficulty": difficulty,
        "source": f"scaled:c{cycle}:s{seed}",
    }
    if question.is_multiple_choice:
        permutation = rng.sample(range(4), 4)
        fields["choices"] = tuple(
            question.choices[i] for i in permutation)
        fields["correct_choice"] = permutation.index(
            question.correct_choice)
    return dataclasses.replace(question, **fields)


def question_at(index: int, seed: int) -> Question:
    """The question at global index ``index`` of the seeded sequence."""
    if index < 0:
        raise ScaleConfigError("global index must be >= 0")
    cycle_questions = canonical_cycle()
    cycle, slot = divmod(index, len(cycle_questions))
    return derive_variant(cycle_questions[slot], cycle, seed)


# -- shard specs and the build cache -----------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous window of a seeded scaled build.

    ``total`` is the size of the *whole* build (it clips the final
    shard); the window itself is ``[start, stop)``.  The cache key
    deliberately omits ``total`` and ``shard_size`` in favour of
    ``(start, stop)``: two builds of different sizes share cached
    shards wherever their windows coincide.
    """

    total: int
    seed: int
    shard_size: int
    index: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise ScaleConfigError("total must be >= 1")
        if self.shard_size < 1:
            raise ScaleConfigError("shard_size must be >= 1")
        if not 0 <= self.index * self.shard_size < self.total:
            raise ScaleConfigError(
                f"shard index {self.index} out of range for a "
                f"{self.total}-question build at shard_size "
                f"{self.shard_size}")

    @property
    def start(self) -> int:
        """First global question index of the shard (inclusive)."""
        return self.index * self.shard_size

    @property
    def stop(self) -> int:
        """Last global question index of the shard (exclusive)."""
        return min(self.start + self.shard_size, self.total)

    @property
    def size(self) -> int:
        """Number of questions in the shard."""
        return self.stop - self.start

    def cache_key(self) -> Tuple[Any, ...]:
        """The content-addressed build-cache key of this shard.

        A tuple of primitives — the :class:`~repro.core.perfstats.
        SpillStore` stores the entry under the sha256 of its ``repr``,
        which is deterministic across processes.  The generator
        fingerprint folds in every :data:`GENERATOR_VERSIONS` entry
        and the schema version (see :func:`generator_fingerprint`).
        """
        return ("chipvqa-shard", generator_fingerprint(), self.seed,
                self.start, self.stop)

    def cache_key_digest(self) -> str:
        """Hex sha256 the on-disk tier files this shard under."""
        return hashlib.sha256(
            repr(self.cache_key()).encode("utf-8")).hexdigest()


def plan_shards(total: int, seed: int,
                shard_size: Optional[int] = None) -> List[ShardSpec]:
    """All shard specs of an ``n``-question build, in order."""
    if total < 1:
        raise ScaleConfigError("total must be >= 1")
    shard_size = DEFAULT_SHARD_SIZE if shard_size is None else shard_size
    if shard_size < 1:
        raise ScaleConfigError("shard_size must be >= 1")
    count = (total + shard_size - 1) // shard_size
    return [ShardSpec(total=total, seed=seed, shard_size=shard_size,
                      index=i) for i in range(count)]


def _question_payload(question: Question) -> dict:
    """JSON-serialisable form of a question *including* render specs.

    ``Question.to_dict`` deliberately drops ``render_spec`` (prompt
    artifacts do not need it); the build cache must round-trip it, or a
    warm rebuild could not drive raster-mode evaluation.  Scenes are
    JSON-like tuples of primitive-op dicts, stored as they are: ``json``
    writes a tuple as an array, so no copy is made here, and tuples come
    back as lists, which renders identically and hashes identically
    under the canonical JSON content keys.
    """
    payload = question.to_dict()
    payload["visual"]["render_spec"] = question.visual.render_spec
    for entry, visual in zip(payload["extra_visuals"],
                             question.extra_visuals):
        entry["render_spec"] = visual.render_spec
    return payload


def _question_from_payload(payload: dict) -> Question:
    """Inverse of :func:`_question_payload` (restores render specs)."""
    question = Question.from_dict(payload)

    def restore(visual: VisualContent, entry: dict) -> VisualContent:
        return dataclasses.replace(
            visual, render_spec=tuple(entry.get("render_spec", ())))

    return dataclasses.replace(
        question,
        visual=restore(question.visual, payload["visual"]),
        extra_visuals=tuple(
            restore(v, e) for v, e in zip(question.extra_visuals,
                                          payload["extra_visuals"])),
    )


def _encode_shard(questions: Sequence[Question]) -> List[dict]:
    """Spill codec: shard -> JSON-serialisable payload list."""
    return [_question_payload(q) for q in questions]


def _decode_shard(payload: Sequence[dict]) -> Tuple[Question, ...]:
    """Spill codec: payload list -> shard (tuple of questions)."""
    return tuple(_question_from_payload(entry) for entry in payload)


#: The shard build cache.  The memory tier holds a handful of recently
#: built shards (keeping streaming sweeps O(shard) in memory); the
#: codec makes it spill-capable, so inside a ``perfstats.scope`` with a
#: spill root (``--spill-dir``) it is backed by the content-addressed
#: on-disk tier alongside the raster caches, and its counters flow
#: into ``RunStats.perf_caches`` / run manifests like every other
#: substrate cache.
_SHARD_CACHE = perfstats.LruCache(
    capacity=8, name=BUILD_CACHE_NAME,
    spill_codec=(_encode_shard, _decode_shard))


def _generate_shard(spec: ShardSpec) -> Tuple[Question, ...]:
    """Generate a shard's questions from the family generators (no cache)."""
    return tuple(question_at(g, spec.seed)
                 for g in range(spec.start, spec.stop))


def build_shard(spec: ShardSpec) -> Tuple[Question, ...]:
    """Build (or fetch) one shard through the content-addressed cache."""
    key = spec.cache_key()
    cached = _SHARD_CACHE.get(key)
    if cached is not None:
        return cached
    questions = _generate_shard(spec)
    _SHARD_CACHE.put(key, questions)
    return questions


def build_shards(
    specs: Sequence[ShardSpec],
    backend: Any = None,
    workers: int = 1,
) -> List[Tuple[Question, ...]]:
    """Build many shards across an executor backend, in spec order.

    ``backend`` accepts anything :func:`repro.core.executor.
    resolve_backend` does (a name, an instance, or ``None`` for serial
    at ``workers=1`` / threads otherwise).  The async backend is
    rejected: shard generation is CPU-bound pure Python with no await
    points, so an event loop would serialise it with extra ceremony.
    Process workers return their shards to the parent, which re-enters
    them into the build cache (write-through to the disk tier when the
    caller's scope has a spill root).
    """
    from repro.core.executor import (
        AsyncBackend,
        ExecutorConfigError,
        ProcessBackend,
        resolve_backend,
    )

    resolved = resolve_backend(backend, workers)
    if isinstance(resolved, AsyncBackend):
        raise ExecutorConfigError(
            "shard builds are CPU-bound; use the serial, thread or "
            "process backend")
    specs = list(specs)
    if isinstance(resolved, ProcessBackend):
        canonical_cycle()  # warm before the fork so workers inherit it
        shards = resolved.map_units(specs, build_shard)
        for spec, shard in zip(specs, shards):
            key = spec.cache_key()
            if key not in _SHARD_CACHE:
                _SHARD_CACHE.put(key, tuple(shard))
        return [tuple(shard) for shard in shards]
    return resolved.map_units(specs, build_shard)


def _prime_shard_job(job: Tuple[ShardSpec, str]) -> int:
    """Worker body of :func:`prime_build_cache`; returns 1 when built.

    Top-level (picklable) and self-contained: the cache directory
    travels in the job, so the worker needs no inherited global state
    beyond the imported generators.
    """
    spec, root = job
    store = perfstats.SpillStore(root, BUILD_CACHE_NAME,
                                 _encode_shard, _decode_shard)
    key = spec.cache_key()
    if store.path_for(key).exists():
        return 0
    store.put(key, _generate_shard(spec))
    return 1


def prime_build_cache(
    total: int,
    seed: int = 0,
    *,
    cache_dir: "Any",
    shard_size: Optional[int] = None,
    backend: Any = None,
    workers: int = 1,
) -> Dict[str, int]:
    """Populate the on-disk shard cache for an ``n``-question build.

    The parallel *producer* path: workers generate shards and write
    them straight to the content-addressed store (tiny result pickles
    — one int per shard — so process fan-out scales with cores rather
    than with IPC volume).  Existing entries are skipped.  Returns
    ``{"shards": ..., "built": ..., "reused": ...}``.
    """
    from repro.core.executor import (
        AsyncBackend,
        ExecutorConfigError,
        ProcessBackend,
        resolve_backend,
    )

    resolved = resolve_backend(backend, workers)
    if isinstance(resolved, AsyncBackend):
        raise ExecutorConfigError(
            "shard builds are CPU-bound; use the serial, thread or "
            "process backend")
    specs = plan_shards(total, seed, shard_size)
    if isinstance(resolved, ProcessBackend):
        canonical_cycle()  # warm before the fork so workers inherit it
    jobs = [(spec, str(cache_dir)) for spec in specs]
    built = sum(resolved.map_units(jobs, _prime_shard_job))
    return {"shards": len(specs), "built": built,
            "reused": len(specs) - built}


# -- expected composition ----------------------------------------------------


@dataclass(frozen=True)
class Composition:
    """Exact expected structural composition of a scaled build."""

    total: int
    type_counts: Mapping[QuestionType, int]
    category_counts: Mapping[Category, int]
    category_mc_counts: Mapping[Category, int]
    visual_type_counts: Mapping[VisualType, int]


def expected_composition(total: int) -> Composition:
    """The exact composition an ``n``-question scaled build must have.

    Variants change presentation, never structure, so composition is a
    pure function of the canonical cycle: full cycles contribute the
    Table I counts verbatim and the residual prefix is counted off the
    interleaved order.  ``validate_chipvqa`` compares a scaled build
    against this — equality, not tolerance.
    """
    if total < 1:
        raise ScaleConfigError("total must be >= 1")
    cycle = canonical_cycle()
    cycles, remainder = divmod(total, len(cycle))
    members = list(cycle) * min(cycles, 1)
    categories: Counter = Counter()
    mc_categories: Counter = Counter()
    types: Counter = Counter()
    visuals: Counter = Counter()

    def tally(question: Question, weight: int) -> None:
        categories[question.category] += weight
        types[question.question_type] += weight
        if question.is_multiple_choice:
            mc_categories[question.category] += weight
        for visual in question.all_visuals:
            visuals[visual.visual_type] += weight

    if cycles:
        for question in members:
            tally(question, cycles)
    for question in cycle[:remainder]:
        tally(question, 1)
    return Composition(
        total=total,
        type_counts={t: types.get(t, 0) for t in QuestionType},
        category_counts={c: categories.get(c, 0) for c in Category},
        category_mc_counts={c: mc_categories.get(c, 0)
                            for c in Category},
        visual_type_counts={v: visuals[v] for v in VisualType
                            if visuals[v]},
    )


# -- scaled builds and dataset specs -----------------------------------------


def scaled_name(total: int, seed: int, challenge: bool = False) -> str:
    """Display name of a scaled collection."""
    base = f"chipvqa-scaled-n{total}-s{seed}"
    return f"{base}-challenge" if challenge else base


def scaled_root(total: int, seed: int, shard_size: int,
                shard: Optional[int] = None,
                challenge: bool = False) -> str:
    """The build-spec root string of a scaled (or shard) dataset.

    Parameters are encoded *inside* the root token
    (``chipvqa-scaled:<n>:<seed>:<shard_size>[:shard=<i>][:challenge]``)
    so the spec tuple's remaining elements stay free for the standard
    ``by_category`` / ``by_type`` op pairs.
    """
    root = f"chipvqa-scaled:{total}:{seed}:{shard_size}"
    if shard is not None:
        root += f":shard={shard}"
    if challenge:
        root += ":challenge"
    return root


def parse_scaled_root(root: str) -> Tuple[int, int, int,
                                          Optional[int], bool]:
    """Parse a :func:`scaled_root` token; raises on malformed input."""
    tokens = root.split(":")
    if tokens[0] != "chipvqa-scaled" or len(tokens) < 4:
        raise ScaleConfigError(f"not a scaled dataset root: {root!r}")
    try:
        total, seed, shard_size = (int(tokens[1]), int(tokens[2]),
                                   int(tokens[3]))
    except ValueError as exc:
        raise ScaleConfigError(
            f"malformed scaled dataset root {root!r}") from exc
    shard: Optional[int] = None
    challenge = False
    for token in tokens[4:]:
        if token.startswith("shard="):
            shard = int(token[len("shard="):])
        elif token == "challenge":
            challenge = True
        else:
            raise ScaleConfigError(
                f"unknown token {token!r} in scaled root {root!r}")
    return total, seed, shard_size, shard, challenge


def _challenge_map(dataset: Dataset, name: str) -> Dataset:
    """Recast every MC question of ``dataset`` as short-answer."""
    from repro.core.transforms import to_short_answer

    return dataset.map(to_short_answer, name=name)


def shard_dataset(total: int, seed: int, shard_size: int, index: int,
                  challenge: bool = False) -> Dataset:
    """One shard as a :class:`Dataset` with a process-portable spec."""
    spec = ShardSpec(total=total, seed=seed, shard_size=shard_size,
                     index=index)
    base = scaled_name(total, seed)
    dataset = Dataset(build_shard(spec),
                      name=f"{base}/shard{index:05d}")
    if challenge:
        dataset = _challenge_map(
            dataset,
            f"{scaled_name(total, seed, challenge=True)}"
            f"/shard{index:05d}")
    dataset.build_spec = (scaled_root(total, seed, shard_size,
                                      shard=index, challenge=challenge),)
    return dataset


def build_scaled(
    total: int,
    seed: int = 0,
    *,
    shard_size: Optional[int] = None,
    backend: Any = None,
    workers: int = 1,
    validate: bool = True,
    challenge: bool = False,
) -> Dataset:
    """Materialise a full ``n``-question scaled collection.

    The workhorse behind :func:`repro.core.benchmark.
    build_chipvqa_scaled`; shards go through the build cache (and the
    disk tier of a scope with a spill root), optionally in parallel
    across ``backend``.
    """
    shard_size = DEFAULT_SHARD_SIZE if shard_size is None else shard_size
    specs = plan_shards(total, seed, shard_size)
    questions: List[Question] = []
    for shard in build_shards(specs, backend=backend, workers=workers):
        questions.extend(shard)
    dataset = Dataset(questions, name=scaled_name(total, seed))
    dataset.build_spec = (scaled_root(total, seed, shard_size),)
    if validate:
        from repro.core.benchmark import BuildExpectations, validate_chipvqa

        validate_chipvqa(dataset, BuildExpectations.scaled(total))
    if challenge:
        mapped = _challenge_map(
            dataset, scaled_name(total, seed, challenge=True))
        mapped.build_spec = (scaled_root(total, seed, shard_size,
                                         challenge=True),)
        return mapped
    return dataset


def dataset_from_scaled_root(root: str) -> Dataset:
    """Rebuild a scaled dataset (or one shard) from its root token.

    The hook :func:`repro.core.executor.dataset_from_spec` uses to
    resolve ``chipvqa-scaled:...`` roots in worker processes.
    """
    total, seed, shard_size, shard, challenge = parse_scaled_root(root)
    if shard is not None:
        return shard_dataset(total, seed, shard_size, shard,
                             challenge=challenge)
    return build_scaled(total, seed, shard_size=shard_size,
                        validate=False, challenge=challenge)


# -- streaming ---------------------------------------------------------------


class StreamingDataset:
    """A scaled collection consumed shard-by-shard, O(shard) in memory.

    Never materialises the whole build: :meth:`shard` returns one
    window as a regular :class:`Dataset` (built through the shard
    cache), and iteration walks shards in order, releasing each before
    the next is built.  Resident questions are bounded by the shard
    cache's memory tier (a handful of shards) plus whatever the caller
    holds — :attr:`peak_resident_questions` tracks the high-water mark
    observed through this instance.

    ``challenge=True`` recasts every MC question as short-answer per
    shard (the scaled analogue of the challenge collection).
    """

    def __init__(self, total: int, seed: int = 0,
                 shard_size: Optional[int] = None,
                 challenge: bool = False) -> None:
        if total < 1:
            raise ScaleConfigError("total must be >= 1")
        self.total = total
        self.seed = seed
        self.shard_size = (DEFAULT_SHARD_SIZE if shard_size is None
                           else shard_size)
        if self.shard_size < 1:
            raise ScaleConfigError("shard_size must be >= 1")
        self.challenge = challenge
        self.name = scaled_name(total, seed, challenge=challenge)
        self._peak = 0

    def __len__(self) -> int:
        return self.total

    @property
    def num_shards(self) -> int:
        """Number of shards the build is split into."""
        return (self.total + self.shard_size - 1) // self.shard_size

    def shard_specs(self) -> List[ShardSpec]:
        """All shard specs, in order."""
        return plan_shards(self.total, self.seed, self.shard_size)

    def shard(self, index: int) -> Dataset:
        """Materialise shard ``index`` (through the build cache)."""
        dataset = shard_dataset(self.total, self.seed, self.shard_size,
                                index, challenge=self.challenge)
        self._observe(len(dataset))
        return dataset

    def iter_shards(self) -> Iterator[Dataset]:
        """Yield every shard in order, one materialised at a time."""
        for index in range(self.num_shards):
            yield self.shard(index)

    def __iter__(self) -> Iterator[Question]:
        for shard in self.iter_shards():
            for question in shard:
                yield question

    @property
    def peak_resident_questions(self) -> int:
        """High-water mark of questions resident in the build cache's
        memory tier (plus the shard being handed out) at any
        :meth:`shard` call through this instance."""
        return self._peak

    def _observe(self, current: int) -> None:
        resident = current + sum(
            len(entry) for entry in _SHARD_CACHE.values()
            if isinstance(entry, tuple))
        if resident > self._peak:
            self._peak = resident
