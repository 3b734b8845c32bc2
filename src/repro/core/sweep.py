"""Streaming scaled-dataset sweeps with multi-sample pass@k scoring.

:func:`run_scaled_table2` is the scaled analogue of
:func:`repro.core.harness.run_table2`: it evaluates a provider list
over an ``n``-question procedurally scaled collection
(:mod:`repro.core.databuild`), consuming the build **shard-by-shard**
through :class:`~repro.core.databuild.StreamingDataset` — the
:class:`~repro.core.runner.ParallelRunner` only ever sees one window of
shards at a time, so peak memory is O(shard), not O(n), however large
the sweep.

Multi-sample scoring (``samples=k``) re-evaluates every question ``k``
times through **sample-salted providers**: sample ``s`` of model ``m``
is the same simulated architecture named ``m+s{s}`` — the quota-IRT
outcome planner keys its per-question jitter on the provider name, so
each sample is an independent draw from the model's calibrated
per-category accuracy.  The sweep builds each salted provider once and
hands the object to its work units; the process-wide provider registry
is never written.  Sample 0 is the unsalted registry model, so a
``samples=1`` sweep reproduces single-sample results exactly.  Counts
per question feed the unbiased :func:`repro.core.metrics.pass_at_k`
estimator and majority-vote consensus@k via
:class:`~repro.core.metrics.MultiSampleResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.core import perfstats
from repro.core.databuild import StreamingDataset
from repro.core.engine import build_driver
from repro.core.metrics import EvalResult, MultiSampleResult
from repro.core.runner import ParallelRunner, RunStats, WorkUnit

if TYPE_CHECKING:
    from repro.core.coordinator import SweepCoordinator

#: Anything that can drive a sweep window: a single parallel runner or
#: a coordinated multi-node fleet (both expose run/workers/last_stats).
SweepRunner = Union[ParallelRunner, "SweepCoordinator"]


def sample_provider_name(base: str, sample: int) -> str:
    """Provider name of one sample of a model (sample 0 is unsalted)."""
    if sample < 0:
        raise ValueError("sample index must be >= 0")
    return base if sample == 0 else f"{base}+s{sample}"


def _build_sample_provider(base: str, sample: int):
    """Build the salted provider for (``base``, ``sample``).

    The clone shares the base model's architecture and calibration
    table; only its *name* changes, which re-rolls the outcome
    planner's per-question jitter — exactly the semantics of drawing
    another sample at non-zero temperature.
    """
    from repro.models.providers import LocalProvider
    from repro.models.zoo import build_vlm

    vlm = build_vlm(base)
    vlm.name = sample_provider_name(base, sample)
    return LocalProvider(vlm)


@dataclass
class SweepReport:
    """Everything a scaled multi-sample sweep produced.

    ``results[model][setting]`` is a
    :class:`~repro.core.metrics.MultiSampleResult` whose samples hold
    the full record sequence in global question order.  ``stats`` is
    one :class:`~repro.core.runner.RunStats` for the whole sweep: every
    window's unit stats, the fleet counters summed over windows, and
    the sweep's own scope as ``perf``, whose snapshot is
    ``perf_caches``.
    """

    dataset_name: str
    total_questions: int
    seed: int
    samples: int
    results: Dict[str, Dict[str, MultiSampleResult]]
    peak_resident_questions: int = 0
    perf_caches: Dict[str, Dict[str, int]] = field(default_factory=dict)
    stats: RunStats = field(default_factory=RunStats)

    def table2_results(self) -> Dict[str, Dict[str, EvalResult]]:
        """Sample-0 results in ``run_table2``'s return shape."""
        return {
            model: {setting: multi.samples[0]
                    for setting, multi in settings.items()}
            for model, settings in self.results.items()
        }

    def passk_summary(self, ks: Sequence[int] = (1, 5)) -> dict:
        """JSON-serialisable pass@k / consensus@k summary artifact."""
        usable = sorted({min(k, self.samples) for k in ks if k >= 1})
        return {
            "dataset": self.dataset_name,
            "total_questions": self.total_questions,
            "seed": self.seed,
            "samples": self.samples,
            "ks": usable,
            "peak_resident_questions": self.peak_resident_questions,
            "models": {
                model: {setting: multi.as_dict(usable)
                        for setting, multi in settings.items()}
                for model, settings in self.results.items()
            },
        }

    def render(self, ks: Sequence[int] = (1, 5)) -> str:
        """Fixed-width pass@k / consensus@k table."""
        usable = sorted({min(k, self.samples) for k in ks if k >= 1})
        headers = ["model", "setting"]
        for k in usable:
            headers.append(f"pass@{k}")
        for k in usable:
            headers.append(f"cons@{k}")
        rows: List[List[str]] = []
        for model, settings in self.results.items():
            for setting, multi in settings.items():
                row = [model, setting]
                row += [f"{multi.pass_at_k(k):.4f}" for k in usable]
                row += [f"{multi.consensus_at_k(k):.4f}"
                        for k in usable]
                rows.append(row)
        widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
                  if rows else len(headers[i])
                  for i in range(len(headers))]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append("  ".join(
                cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)


def run_scaled_table2(
    models: Sequence[str],
    total: int,
    seed: int = 0,
    *,
    samples: int = 1,
    shard_size: Optional[int] = None,
    include_challenge: bool = True,
    harness=None,
    runner: Optional[SweepRunner] = None,
    workers: int = 1,
    nodes: int = 1,
    run_dir: "Optional[Path | str]" = None,
    resume: bool = True,
    backend: Optional[str] = None,
    spill_dir: "Optional[Path | str]" = None,
    prefetch: int = 0,
    prefetch_builder: str = "thread",
) -> SweepReport:
    """Evaluate registry models over a scaled collection, streaming.

    ``models`` must be provider *registry names* (strings) — sample
    salting rebuilds clones by name, which has no meaning for ad-hoc
    provider objects.  Sample 0 units carry the base name; every other
    sample's units share one salted provider object, which process
    workers and fleet nodes receive pickled.  Shards are evaluated in
    windows just large enough to keep the runner's workers busy (one
    shard per window once the model x setting x sample cells outnumber
    the workers); each window is one
    :meth:`~repro.core.runner.ParallelRunner.run` call, so
    checkpointing, retry, quarantine and backend fan-out all apply
    per-window, and no more than a window of questions is ever
    resident alongside the build cache's memory tier.

    ``nodes > 1`` dispatches each window through a fault-tolerant
    :class:`~repro.core.coordinator.SweepCoordinator` fleet instead of
    a single runner: node deaths mid-window are absorbed by lease
    expiry and work-stealing, and the sweep still converges to the
    same artifacts (``backend="process"`` selects process-group nodes;
    anything else runs nodes inline).  The two knobs are exclusive —
    pass ``workers`` *or* ``nodes``, not both.

    ``prefetch=k`` (k >= 1) overlaps shard building with evaluation: a
    :class:`~repro.core.pipeline.ShardPrefetcher` builder pool keeps up
    to ``k`` shards building or ready while the current window
    evaluates, delivered in shard order so the artifacts stay
    byte-identical to the serial loop's (``prefetch=0``).  Memory grows
    to O(prefetch × shard); time the sweep still spends blocked on
    builds is visible as the ``build_wait`` stage in
    :attr:`SweepReport.perf_caches` (charged in both modes, so the
    overlap win is directly measurable).  ``prefetch_builder`` picks
    the pool: ``"thread"`` (default, zero setup) or ``"process"``
    (true build/eval parallelism on CPython — see
    :class:`~repro.core.pipeline.ShardPrefetcher`).

    Returns a :class:`SweepReport` whose ``stats`` and ``perf_caches``
    count this sweep alone, every window of it, in its
    :func:`repro.core.perfstats.scope` rooted at ``spill_dir`` (the
    ``dataset_build`` entry shows build-cache hits/misses/spills for
    the whole sweep).
    """
    from repro.core.harness import EvaluationHarness
    from repro.models.vlm import NO_CHOICE, WITH_CHOICE

    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not models:
        raise ValueError("no models")
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    if prefetch < 0:
        raise ValueError("prefetch must be >= 0")
    from repro.core.pipeline import PREFETCH_BUILDERS

    if prefetch_builder not in PREFETCH_BUILDERS:
        raise ValueError(
            f"unknown prefetch builder {prefetch_builder!r}; "
            f"choose from {PREFETCH_BUILDERS}")
    harness = harness or EvaluationHarness()
    if runner is None:
        runner = build_driver(
            harness, workers=workers, nodes=nodes, backend=backend,
            run_dir=run_dir, resume=resume, spill_dir=spill_dir)
    settings = [WITH_CHOICE]
    if include_challenge:
        settings.append(NO_CHOICE)
    providers = {
        (base, s): _build_sample_provider(base, s) if s else base
        for base in models for s in range(samples)
    }
    streams = {
        WITH_CHOICE: StreamingDataset(total, seed,
                                      shard_size=shard_size),
        NO_CHOICE: StreamingDataset(total, seed, shard_size=shard_size,
                                    challenge=True),
    }
    stream = streams[WITH_CHOICE]
    cells = len(models) * len(settings) * samples
    window_shards = max(1, math.ceil(runner.workers / cells))
    merged: Dict[str, Dict[str, MultiSampleResult]] = {}
    accumulators: Dict[tuple, EvalResult] = {}
    for base in models:
        merged[base] = {}
        for setting in settings:
            multi = MultiSampleResult(
                model_name=base,
                dataset_name=streams[setting].name,
                setting=setting)
            merged[base][setting] = multi
            for s in range(samples):
                result = EvalResult(
                    model_name=sample_provider_name(base, s),
                    dataset_name=streams[setting].name,
                    setting=setting)
                accumulators[(base, setting, s)] = result
                multi.add_sample(result)
    stats = RunStats()
    with perfstats.scope(spill_dir) as stats.perf:
        prefetcher = None
        if prefetch:
            from repro.core.pipeline import ShardPrefetcher

            prefetcher = ShardPrefetcher(
                {setting: streams[setting] for setting in settings},
                lookahead=prefetch,
                workers=min(prefetch, 2),
                builder=prefetch_builder).start()
        try:
            for window_start in range(0, stream.num_shards,
                                      window_shards):
                window = range(window_start,
                               min(window_start + window_shards,
                                   stream.num_shards))
                units: List[WorkUnit] = []
                keys: List[tuple] = []
                for index in window:
                    if prefetcher is not None:
                        # in-order delivery: builders may finish out of
                        # order, the consumer never observes it
                        shard_by_setting = prefetcher.get(index)
                    else:
                        with perfstats.stage("build_wait"):
                            shard_by_setting = {
                                setting: streams[setting].shard(index)
                                for setting in settings
                            }
                    for base in models:
                        for setting in settings:
                            for s in range(samples):
                                units.append(WorkUnit(
                                    model=providers[(base, s)],
                                    dataset=shard_by_setting[setting],
                                    setting=setting))
                                keys.append((base, setting, s))
                outcome = runner.run(units).raise_on_failure()
                stats.absorb(outcome.stats)
                for unit, key in zip(units, keys):
                    accumulators[key].records.extend(
                        outcome.result_for(unit).records)
        finally:
            if prefetcher is not None:
                prefetcher.close()
    report = SweepReport(
        dataset_name=stream.name,
        total_questions=total,
        seed=seed,
        samples=samples,
        results=merged,
        peak_resident_questions=max(
            streams[setting].peak_resident_questions
            for setting in settings),
        perf_caches=stats.perf_caches,
        stats=stats,
    )
    return report
