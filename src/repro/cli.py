"""Command-line interface: ``python -m repro.cli <command>``.

Commands mirror the paper's experiments plus the repository's extensions:

* ``table1`` / ``table2`` / ``table3`` — regenerate the paper's tables
* ``resolution`` — the Section IV-B downsampling study
* ``composition`` — the Fig. 1 composition summary
* ``evaluate`` — one model, either collection, any resolution factor
* ``compare`` — paired significance test between two models
* ``list-models`` — the zoo with metadata
* ``export-figures`` — write question figures as PGM images
* ``export-dataset`` — dump the benchmark as JSONL
* ``verify-run`` — audit a run directory's checksummed artifacts
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import perfstats, results_io
from repro.core.benchmark import build_chipvqa, build_chipvqa_challenge
from repro.core.engine import build_driver
from repro.core.harness import EvaluationHarness, run_table2
from repro.core.pipeline import PREFETCH_BUILDERS
from repro.core.question import Category
from repro.core.report import (
    CATEGORY_ORDER,
    render_composition,
    render_resolution_study,
    render_table1,
    render_table2,
    render_table3,
)
from repro.core.significance import compare as significance_compare
from repro.models import NO_CHOICE, WITH_CHOICE, build_model, build_zoo
from repro.models.zoo import TABLE2_ROW_ORDER, _ZOO_SPECS


def _cmd_table1(args: argparse.Namespace) -> int:
    print(render_table1(build_chipvqa()))
    return 0


def _print_cache_stats(stats) -> None:
    """Dump one run's perception-substrate cache counters and stage
    timers (docs/PERF.md) from its :class:`~repro.core.runner.RunStats`
    (a scaled sweep's covers every window).  They count that run
    alone, worker processes included, on every backend."""
    counters = dict(stats.perf_caches)
    stages = counters.pop(perfstats.STAGE_TIMINGS_NAME, None)
    print(f"\n{'cache':<12}{'hits':>8}{'misses':>8}{'evict':>7}"
          f"{'size':>7}{'spill':>7}{'hit rate':>10}")
    for name, entry in sorted(counters.items()):
        total = entry.get("hits", 0) + entry.get("misses", 0)
        rate = entry.get("hits", 0) / total if total else 0.0
        spill = entry.get("spill_hits", 0)
        print(f"{name:<12}{entry.get('hits', 0):>8}"
              f"{entry.get('misses', 0):>8}"
              f"{entry.get('evictions', 0):>7}{entry.get('size', 0):>7}"
              f"{spill:>7}{rate:>10.3f}")
    if stages:
        _print_stage_timings(stages)


def _print_stage_timings(stages: dict) -> None:
    """Dump the pipeline's per-stage hot-path timers (docs/PERF.md).

    ``build_wait`` near zero alongside nonzero ``eval`` is the
    signature of a well-overlapped ``--prefetch`` sweep; a serial sweep
    charges the full build time there.
    """
    recorded = sorted({key[:-3] for key in stages if key.endswith("_ns")})
    ordered = [name for name in perfstats.PIPELINE_STAGES
               if name in recorded]
    ordered += [name for name in recorded if name not in ordered]
    print(f"\n{'stage':<12}{'calls':>8}{'seconds':>10}{'ms/call':>10}")
    for name in ordered:
        ns = stages.get(f"{name}_ns", 0)
        calls = stages.get(f"{name}_calls", 0)
        per_call_ms = (ns / 1e6 / calls) if calls else 0.0
        print(f"{name:<12}{calls:>8}{ns / 1e9:>10.3f}"
              f"{per_call_ms:>10.3f}")


# -- command-line checks -----------------------------------------------------
#
# Exit status: 0 ok, 1 the run failed, 2 the command line cannot be acted
# on (docs/RUNNER.md).  Every check below is an argparse usage error.


def _bounded(parse: Callable[[str], float], valid: Callable[[float], bool],
             requirement: str) -> Callable[[str], float]:
    """A ``type=`` converter: ``parse`` the text, then require a finite
    value that is ``valid``, else a usage error naming the bound."""

    def convert(text: str) -> float:
        try:
            value = parse(text)
            if not math.isfinite(value):
                raise ValueError(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid number {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement} (got {text})")
        return value

    return convert


_count = _bounded(int, lambda value: value >= 1, ">= 1")
_seconds = _bounded(float, lambda value: value >= 0, ">= 0")
_rate = _bounded(float, lambda value: value > 0, "> 0")
_probability = _bounded(float, lambda value: 0 <= value <= 1,
                        "in [0, 1]")


def _category(short: str) -> Category:
    """``resolution --category``: a category by its short name."""
    for category in Category:
        if category.short.lower() == short.lower():
            return category
    raise argparse.ArgumentTypeError(
        f"unknown category {short!r}; choose from "
        f"{', '.join(c.short for c in Category)}")


def _question(qid: str):
    """``show``'s positional: a canonical question by its id."""
    try:
        return build_chipvqa().get(qid)
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown question id {qid!r}") from None


def _table2_path(args: argparse.Namespace) -> str:
    """``service``, ``scaled`` (:func:`~repro.core.sweep.run_scaled_table2`)
    or ``local`` (the canonical :func:`~repro.core.harness.run_table2`)."""
    if args.service:
        return "service"
    if (args.limit is not None or args.dataset_seed is not None
            or args.samples != 1):
        return "scaled"
    return "local"


#: How usage errors name each ``table2`` path.
_PATH_NAMES = {
    "local": "the canonical sweep",
    "scaled": "the scaled path (--limit, --dataset-seed or --samples "
              "above 1)",
    "service": "--service",
}

#: The ``table2`` flags (by dest) that mean something on only some
#: paths, and those paths; every other flag applies to all three.
_TABLE2_PATHS: Dict[str, Tuple[str, ...]] = {
    "provider": ("local",),
    "limit": ("scaled",),
    "dataset_seed": ("scaled",),
    "samples": ("scaled",),
    "shard_size": ("scaled",),
    "prefetch": ("scaled",),
    "prefetch_builder": ("scaled",),
    "replicas": ("service",),
    "nodes": ("local", "scaled"),
    "rate_limit": ("local", "scaled"),
    "hedge_after": ("local", "scaled"),
    "breaker_cooldown": ("local", "scaled"),
    "spill_dir": ("scaled",),
    "run_dir": ("local", "scaled"),
    "no_resume": ("local", "scaled"),
    "cache_stats": ("local", "scaled"),
}


def _check_table2(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> None:
    """Usage-error a flag given on a path it does not apply to, or a
    broken cross-flag rule.  A flag is given when it differs from its
    default, so an explicit default stays legal on every path."""
    path = _table2_path(args)
    for dest, paths in _TABLE2_PATHS.items():
        value = getattr(args, dest)
        if path in paths or value == parser.get_default(dest):
            continue
        flag = "--" + dest.replace("_", "-")
        if not isinstance(value, bool):
            flag += f" {value}"
        parser.error(
            f"{flag} applies only to "
            f"{' or '.join(_PATH_NAMES[p] for p in paths)}, "
            f"not to {_PATH_NAMES[path]}")
    remote = args.provider == "remote" or path == "service"
    fleet = args.nodes > 1
    for broken, message in (
            (args.rate_limit is not None and args.backend != "async",
             "--rate-limit requires --backend async"),
            (args.hedge_after is not None and args.backend != "async",
             "--hedge-after requires --backend async"),
            (args.breaker_cooldown is not None and args.breaker is None,
             "--breaker-cooldown requires --breaker"),
            (args.latency and not remote,
             "--latency requires --provider remote or --service"),
            (args.failure_rate and not remote,
             "--failure-rate requires --provider remote or --service"),
            (fleet and args.workers > 1,
             "--nodes and --workers are exclusive: a coordinated fleet "
             "runs one unit per node"),
            (fleet and args.backend in ("thread", "async"),
             "--nodes runs inline nodes by default or process-group "
             "nodes under --backend process; thread/async backends do "
             "not apply to a fleet")):
        if broken:
            parser.error(message)


def _clamp(flag: str, requested: int, cap: Optional[int] = None,
           limit: str = "") -> int:
    """The one clamp posture: a count above what the machine can use
    becomes ``cap`` (default ``os.cpu_count()``), with a warning."""
    if cap is None:
        cap = os.cpu_count() or 1
        limit = f"this machine's {cap} CPU(s)"
    if requested <= cap:
        return requested
    print(f"warning: {flag} {requested} exceeds {limit}; using {cap}")
    return cap


def _workers(args: argparse.Namespace) -> int:
    """``--workers`` clamped to the CPU count, except for the async
    backend, whose workers are coroutines bounded by the endpoint's
    request budget, not by cores."""
    if args.backend == "async":
        return args.workers
    return _clamp("--workers", args.workers)


def _build_runner(args: argparse.Namespace, harness):
    """Resolve the checked execution flags to a driver through
    :func:`~repro.core.engine.build_driver`.

    ``--nodes N`` (N > 1) builds a fault-tolerant
    :class:`~repro.core.coordinator.SweepCoordinator` fleet — inline
    nodes by default, process-group nodes under ``--backend process`` —
    with lease-based work-stealing and exactly-once commit accounting
    (docs/COORDINATOR.md).  Otherwise a single
    :class:`~repro.core.runner.ParallelRunner` with the requested
    backend; the async-only scheduling knobs build an explicit
    :class:`~repro.core.executor.AsyncBackend` carrying them.
    """
    from repro.core.resilience import CircuitBreaker, QuarantinePolicy

    workers = _workers(args)
    backend = args.backend
    if args.rate_limit is not None or args.hedge_after is not None:
        from repro.core.executor import AsyncBackend

        backend = AsyncBackend(workers, rate_limit_per_s=args.rate_limit,
                               hedge_after_s=args.hedge_after)
    breaker = None
    if args.breaker is not None:
        # --breaker-cooldown arms half-open probing (docs/RESILIENCE.md)
        breaker = CircuitBreaker(args.breaker,
                                 cooldown_s=args.breaker_cooldown)
    return build_driver(
        harness,
        workers=workers,
        nodes=_clamp("--nodes", args.nodes),
        backend=backend,
        run_dir=args.run_dir,
        resume=not args.no_resume,
        quarantine=QuarantinePolicy() if args.quarantine else None,
        breaker=breaker,
        deadline_s=args.deadline,
        spill_dir=args.spill_dir)


def _print_coordinator_stats(stats) -> None:
    """Dump a coordinated run's fleet counters (docs/COORDINATOR.md)."""
    coordinator = getattr(stats, "coordinator", None)
    if not coordinator:
        return
    print(f"\n{'fleet counter':<20}{'value':>8}")
    for key, value in sorted(coordinator.items()):
        print(f"{key:<20}{value:>8}")


def _print_resilience_warnings(stats) -> None:
    """Surface salvage/integrity events a long sweep must not hide."""
    if stats is None:
        return
    if stats.quarantined:
        print(f"warning: {stats.quarantined} question(s) quarantined "
              f"(judge_method=\"quarantined\", counted incorrect; "
              f"see docs/RESILIENCE.md)")
    if stats.corrupt_checkpoints:
        print(f"warning: {stats.corrupt_checkpoints} corrupt checkpoint(s) "
              f"rejected at resume (checksum/parse) and re-evaluated")
    if stats.stale_checkpoints:
        print(f"warning: {stats.stale_checkpoints} stale checkpoint(s) "
              f"rejected at resume (metadata mismatch) and re-evaluated")
    if stats.timed_out:
        print(f"warning: {stats.timed_out} unit(s) timed out past their "
              f"deadline")
    if stats.fast_failed:
        print(f"warning: {stats.fast_failed} unit(s) fast-failed by an "
              f"open circuit breaker")
    coordinator = getattr(stats, "coordinator", None) or {}
    if coordinator.get("nodes_lost"):
        print(f"warning: {coordinator['nodes_lost']} of "
              f"{coordinator.get('nodes', '?')} coordinator node(s) lost "
              f"mid-sweep; the surviving fleet finished the run")
    if coordinator.get("units_stolen"):
        print(f"warning: {coordinator['units_stolen']} unit(s) stolen "
              f"from expired leases "
              f"({coordinator.get('lease_expirations', 0)} lease "
              f"expiration(s)) and re-executed exactly-once")
    if coordinator.get("commit_repairs"):
        print(f"warning: commit log had a torn tail; "
              f"{coordinator['commit_repairs']} entrie(s) dropped and "
              f"their units re-reconciled")
    if coordinator.get("store_quarantined"):
        print(f"warning: {coordinator['store_quarantined']} corrupt "
              f"shared-store entrie(s) quarantined and rebuilt")


def _write_metrics(args: argparse.Namespace, stats) -> None:
    """Honour ``--metrics-out``: write the run's counters as Prometheus
    text exposition (the batch-side twin of the service's ``/metrics``
    endpoint; see docs/SERVICE.md)."""
    path = getattr(args, "metrics_out", None)
    if not path:
        return
    from repro.service.metrics import render_prometheus

    written = results_io.atomic_write_text(path, render_prometheus(stats))
    print(f"\nmetrics -> {written}")


def _cmd_table2_service(args: argparse.Namespace) -> int:
    """The served table2 path (``--service URL``).

    Submits the sweep as one job to a running ``eval-serve`` instance,
    streams the canonical result payloads back, and renders the same
    Table II — the service executes through the same
    :class:`~repro.core.engine.EvalEngine` substrate, so the rendered
    numbers and the server-side checkpoints are byte-identical to a
    local run's.  Flags that configure *local* execution or the scaled
    path are refused by :func:`_check_table2` (see docs/SERVICE.md).
    """
    from repro.service.client import EvalServiceClient
    from repro.service.jobs import JobRejected

    names = args.models or [name for name, _ in TABLE2_ROW_ORDER]
    spec: dict = {"models": names, "workers": args.workers,
                  "replicas": args.replicas}
    if args.backend is not None:
        spec["backend"] = args.backend
    if args.latency or args.failure_rate:
        spec["latency_s"] = args.latency
        spec["failure_rate"] = args.failure_rate
    if args.quarantine:
        spec["quarantine"] = True
    if args.breaker is not None:
        spec["breaker"] = args.breaker
    if args.deadline is not None:
        spec["deadline_s"] = args.deadline
    client = EvalServiceClient(args.service)
    try:
        job_id = client.submit_job(spec)
    except JobRejected as exc:
        raise SystemExit(f"service rejected the job: {exc}")
    print(f"job {job_id} submitted to {args.service}")
    results: dict = {}
    streamed = 0
    for line in client.stream_results(job_id):
        result = results_io.loads(line)
        results.setdefault(result.model_name, {})[result.setting] = result
        streamed += 1
    snapshot = client.job_status(job_id)
    if snapshot["status"] != "completed":
        raise SystemExit(
            f"job {job_id} {snapshot['status']}: {snapshot['error']}")
    print(f"{streamed} unit result(s) streamed; server artifacts in "
          f"{snapshot['run_dir']}\n")
    print(render_table2(results, dict(TABLE2_ROW_ORDER)))
    if args.metrics_out:
        written = results_io.atomic_write_text(
            args.metrics_out, client.metrics())
        print(f"\nmetrics (from service /metrics) -> {written}")
    return 0


def _wrap_provider(provider, args: argparse.Namespace):
    """Apply the ``--provider`` serving stack to one base provider.

    ``local`` is the base provider untouched (the byte-identical
    reproduction path).  ``remote`` wraps it in a
    :class:`~repro.models.providers.RemoteStubProvider` with the
    ``--latency`` / ``--failure-rate`` profile.  See docs/PROVIDERS.md.
    """
    from repro.models.providers import RemoteStubProvider

    if args.provider == "local":
        return provider
    return RemoteStubProvider(provider, base_latency_s=args.latency,
                              transient_rate=args.failure_rate)


def _cmd_table2_scaled(args: argparse.Namespace) -> int:
    """The scaled/multi-sample table2 path (--limit/--dataset-seed/--samples).

    Streams an ``n``-question procedurally scaled collection through
    :func:`repro.core.sweep.run_scaled_table2` shard-by-shard, with
    multi-sample pass@k / consensus@k scoring when ``--samples`` > 1.
    Only ``--provider local`` applies: sample salting re-registers model
    clones in the provider registry, which the serving-stack wrappers
    cannot express.  Without ``--prefetch`` the loop is serial.
    """
    from pathlib import Path

    from repro.core.question import TOTAL_QUESTIONS
    from repro.core.sweep import run_scaled_table2

    names = args.models or [name for name, _ in TABLE2_ROW_ORDER]
    limit = args.limit if args.limit is not None else TOTAL_QUESTIONS
    samples = args.samples
    seed = args.dataset_seed if args.dataset_seed is not None else 0
    harness = EvaluationHarness()
    runner = _build_runner(args, harness)
    prefetch = 0
    if args.prefetch is not None:
        # the consumer drains at most ``workers`` shards at a time; the
        # floor of 2 keeps build/eval overlap for a single worker
        prefetch = _clamp(
            "--prefetch", args.prefetch, max(2, runner.workers),
            f"the useful lookahead for {runner.workers} worker(s)")
    report = run_scaled_table2(
        names, limit, seed, samples=samples,
        shard_size=args.shard_size, runner=runner,
        spill_dir=args.spill_dir, prefetch=prefetch,
        prefetch_builder=args.prefetch_builder)
    print(f"scaled sweep: {report.dataset_name} "
          f"({limit} questions, {samples} sample(s))\n")
    print(render_table2(report.table2_results(),
                        dict(TABLE2_ROW_ORDER)))
    if samples > 1:
        ks = sorted({1, min(5, samples), samples})
        print("\nmulti-sample metrics (unbiased pass@k, "
              "majority-vote consensus@k):")
        print(report.render(ks=ks))
    if args.run_dir:
        summary_path = results_io.write_summary(
            Path(args.run_dir) / "sweep_summary.json",
            report.passk_summary(ks=(1, min(5, samples), samples)))
        print(f"\nsweep summary -> {summary_path}")
        print(f"run artifacts -> {args.run_dir} "
              f"(checkpoints + manifest.json; audit with "
              f"`repro verify-run {args.run_dir}`)")
    _print_resilience_warnings(report.stats)
    _write_metrics(args, report.stats)
    if args.cache_stats:
        _print_cache_stats(report.stats)
        _print_coordinator_stats(report.stats)
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    path = _table2_path(args)
    if path == "service":
        return _cmd_table2_service(args)
    if path == "scaled":
        return _cmd_table2_scaled(args)
    harness = EvaluationHarness()
    if args.models:
        models = [build_model(name) for name in args.models]
    else:
        models = build_zoo()
    models = [_wrap_provider(provider, args) for provider in models]
    runner = _build_runner(args, harness)
    results = run_table2(models, harness, runner=runner)
    print(render_table2(results, dict(TABLE2_ROW_ORDER)))
    if args.run_dir:
        print(f"\nrun artifacts -> {args.run_dir} "
              f"(checkpoints + manifest.json; audit with "
              f"`repro verify-run {args.run_dir}`)")
    _print_resilience_warnings(runner.last_stats)
    _write_metrics(args, runner.last_stats)
    if args.cache_stats:
        _print_cache_stats(runner.last_stats)
        _print_coordinator_stats(runner.last_stats)
    return 0


def _cmd_verify_run(args: argparse.Namespace) -> int:
    """Audit a run directory: parse, record counts, sha256 checksums."""
    try:
        audit = results_io.verify_run(args.run_dir)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if not audit.files:
        raise SystemExit(f"no artifacts to audit in {args.run_dir}")
    for entry in audit.files:
        line = f"{entry.status:<8} {entry.name}"
        if entry.status in ("ok", "legacy"):
            line += f"  ({entry.records} records)"
        if entry.detail:
            line += f"  {entry.detail}"
        print(line)
    counts = audit.counts()
    summary = ", ".join(
        f"{counts[status]} {status}"
        for status in ("ok", "legacy", "corrupt", "missing")
        if counts.get(status))
    print(f"\n{len(audit.files)} artifact(s): {summary}")
    if not audit.ok:
        print("verification FAILED")
        return 1
    print("verification OK")
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.agent import run_table3

    results = run_table3()
    print(render_table3(results["gpt4o"], results["agent"]))
    return 0


def _cmd_resolution(args: argparse.Namespace) -> int:
    harness = EvaluationHarness()
    runner = build_driver(harness, workers=_workers(args),
                          backend=args.backend)
    study = harness.resolution_study(
        build_model(args.model), category=args.category,
        factors=tuple(args.factors), runner=runner)
    print(render_resolution_study(study, args.category))
    if args.cache_stats:
        _print_cache_stats(runner.last_stats)
    return 0


def _cmd_composition(args: argparse.Namespace) -> int:
    print(render_composition(build_chipvqa()))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    harness = EvaluationHarness()
    model = build_model(args.model)
    if args.challenge:
        dataset = build_chipvqa_challenge()
        setting = NO_CHOICE
    else:
        dataset = build_chipvqa()
        setting = WITH_CHOICE
    result = harness.evaluate(model, dataset, setting,
                              resolution_factor=args.resolution)
    print(f"model:    {model.name}")
    print(f"dataset:  {dataset.name} ({len(dataset)} questions)")
    print(f"setting:  {setting}  resolution: {args.resolution}x")
    print(f"pass@1:   {result.pass_at_1():.3f}")
    for category in CATEGORY_ORDER:
        correct, total = result.category_counts()[category]
        print(f"  {category.value:<22} {correct / total:.2f}  "
              f"({correct}/{total})")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    harness = EvaluationHarness()
    run = (harness.zero_shot_challenge if args.challenge
           else harness.zero_shot_standard)
    result_a = run(build_model(args.model_a))
    result_b = run(build_model(args.model_b))
    comparison = significance_compare(result_a, result_b)
    print(comparison.summary())
    print(f"  both correct: {comparison.both_correct}   "
          f"both wrong: {comparison.both_wrong}")
    print(f"  only {args.model_a}: {comparison.only_a}   "
          f"only {args.model_b}: {comparison.only_b}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    question = args.question
    print(f"qid:        {question.qid}")
    print(f"category:   {question.category.value}")
    print(f"type:       {question.question_type.value}")
    print(f"difficulty: {question.difficulty}")
    print(f"topics:     {', '.join(question.topics)}")
    print(f"visuals:    " + ", ".join(
        v.visual_type.value for v in question.all_visuals))
    print(f"\nprompt:\n{question.prompt}")
    if question.is_multiple_choice:
        print()
        for letter, choice in zip("ABCD", question.choices):
            marker = "*" if letter == question.gold_letter else " "
            print(f" {marker} {letter}) {choice}")
    else:
        print(f"\ngold: {question.gold_text}")
    print(f"\nworked solution:\n{question.explanation}")
    if args.figure:
        from repro.visual import render
        from repro.visual.export import save_pgm

        path = save_pgm(args.figure, render(question.visual))
        print(f"\nfigure -> {path}")
    return 0


def _cmd_list_models(args: argparse.Namespace) -> int:
    print(f"{'name':<16}{'backbone':<16}{'params':<9}{'res':<6}"
          f"{'sysprompt':<10}")
    for name, _label in TABLE2_ROW_ORDER:
        backbone, params, _ability, res, sysprompt = _ZOO_SPECS[name][:5]
        print(f"{name:<16}{backbone:<16}{params:<9.1f}{res:<6}"
              f"{'yes' if sysprompt else 'no':<10}")
    return 0


def _cmd_export_figures(args: argparse.Namespace) -> int:
    from repro.visual.export import export_dataset_figures

    written = export_dataset_figures(build_chipvqa(), args.out,
                                     limit=args.limit)
    print(f"wrote {len(written)} figures to {args.out}")
    return 0


def _cmd_export_dataset(args: argparse.Namespace) -> int:
    dataset = (build_chipvqa_challenge() if args.challenge
               else build_chipvqa())
    dataset.save(args.out)
    print(f"wrote {len(dataset)} questions to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="ChipVQA reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table I statistics") \
        .set_defaults(func=_cmd_table1)

    p2 = sub.add_parser("table2", help="Table II zero-shot sweep")
    p2.add_argument("--models", nargs="*",
                    help="subset of zoo names (default: all twelve)")
    p2.add_argument("--provider", choices=["local", "remote"],
                    default="local",
                    help="serving path: in-process (local) or a "
                         "simulated HTTP endpoint (remote); see "
                         "docs/PROVIDERS.md")
    p2.add_argument("--latency", type=_seconds, default=0.0, metavar="S",
                    help="simulated per-call endpoint latency in "
                         "seconds (remote provider)")
    p2.add_argument("--failure-rate", type=_probability, default=0.0,
                    metavar="P",
                    help="simulated transient-failure probability per "
                         "call (remote provider); absorbed by the "
                         "runner's retry path")
    p2.add_argument("--workers", type=_count, default=1,
                    help="parallel evaluation workers (1 = serial; "
                         "clamped to this machine's CPU count except "
                         "under --backend async)")
    p2.add_argument("--backend",
                    choices=["serial", "thread", "process", "async"],
                    default=None,
                    help="execution backend: serial, thread pool, "
                         "process pool for true multicore scaling, or "
                         "an asyncio event loop for the API-bound "
                         "regime (default: serial at --workers 1, "
                         "thread otherwise; see docs/RUNNER.md)")
    p2.add_argument("--nodes", type=_count, default=1, metavar="N",
                    help="dispatch the sweep across N fault-tolerant "
                         "coordinator nodes with lease-based "
                         "work-stealing and exactly-once commit "
                         "accounting (inline nodes by default, process "
                         "groups under --backend process; exclusive "
                         "with --workers; see docs/COORDINATOR.md)")
    p2.add_argument("--rate-limit", type=_rate, default=None,
                    metavar="R",
                    help="client-side per-provider request budget in "
                         "calls/second; the async scheduler paces "
                         "dispatches under it (requires --backend "
                         "async)")
    p2.add_argument("--hedge-after", type=_seconds, default=None,
                    metavar="S",
                    help="duplicate a provider call still in flight "
                         "after S seconds, first success wins (tail-"
                         "latency hedging; requires --backend async)")
    p2.add_argument("--spill-dir", default=None, metavar="DIR",
                    help="content-addressed on-disk tier for the scaled "
                         "path's shard builds, shared by worker "
                         "processes (and across runs); see docs/PERF.md")
    p2.add_argument("--run-dir", default=None,
                    help="checkpoint directory; an interrupted sweep "
                         "resumes from it (see docs/RUNNER.md)")
    p2.add_argument("--no-resume", action="store_true",
                    help="ignore existing checkpoints in --run-dir")
    p2.add_argument("--cache-stats", action="store_true",
                    help="print perception-substrate cache counters "
                         "after the sweep (see docs/PERF.md)")
    p2.add_argument("--quarantine", action="store_true",
                    help="salvage units around permanently-faulting "
                         "questions (recorded incorrect with "
                         "judge_method=quarantined)")
    p2.add_argument("--breaker", type=_count, default=None, metavar="K",
                    help="open a per-model circuit breaker after K "
                         "consecutive unit failures and fast-fail the "
                         "model's remaining units")
    p2.add_argument("--breaker-cooldown", type=_seconds, default=None,
                    metavar="S",
                    help="let an open circuit go half-open after S "
                         "seconds and probe it with a single trial "
                         "unit; success fully closes the circuit, "
                         "failure re-arms the cooldown (requires "
                         "--breaker; see docs/RESILIENCE.md)")
    p2.add_argument("--deadline", type=_seconds, default=None,
                    metavar="S",
                    help="per-unit wall-time deadline in seconds; "
                         "overdue units are marked timed_out")
    p2.add_argument("--limit", type=_count, default=None, metavar="N",
                    help="evaluate an N-question procedurally scaled "
                         "collection instead of the canonical 142 "
                         "(streamed shard-by-shard; N >= 1; the scaled "
                         "path takes only --provider local; see "
                         "docs/DATASET_FORMAT.md)")
    p2.add_argument("--dataset-seed", type=int, default=None,
                    metavar="S",
                    help="variant seed of the scaled collection "
                         "(default 0); selecting a seed implies the "
                         "scaled path even without --limit")
    p2.add_argument("--samples", type=_count, default=1, metavar="K",
                    help="samples per question for pass@k / "
                         "consensus@k scoring (K >= 1; K > 1 implies "
                         "the scaled path and --provider local)")
    p2.add_argument("--shard-size", type=_count, default=None,
                    metavar="Q",
                    help="questions per build shard on the scaled "
                         "path (default: 142, one canonical cycle)")
    p2.add_argument("--prefetch", type=_count, default=None, metavar="K",
                    help="overlap shard building with evaluation on "
                         "the scaled path: keep up to K shards "
                         "building or ready ahead of the evaluator "
                         "(K >= 1; above max(2, --workers) it is "
                         "clamped with a warning; artifacts stay "
                         "byte-identical to the serial loop — see "
                         "docs/PERF.md)")
    p2.add_argument("--prefetch-builder", default="thread",
                    choices=sorted(PREFETCH_BUILDERS),
                    help="where --prefetch builds run: 'thread' "
                         "(default; builder pool threads) or "
                         "'process' (a child process pool — true "
                         "build/eval parallelism on multi-core "
                         "hosts)")
    p2.add_argument("--service", default=None, metavar="URL",
                    help="submit the sweep to a running eval-serve "
                         "instance at URL instead of executing "
                         "locally; results stream back and render the "
                         "same table (see docs/SERVICE.md)")
    p2.add_argument("--replicas", type=_count, default=1, metavar="N",
                    help="serve each model through N load-balanced "
                         "provider replicas with breaker-aware "
                         "failover (--service only)")
    p2.add_argument("--metrics-out", default=None, metavar="PATH",
                    help="write the run's counters to PATH as "
                         "Prometheus text exposition (with --service: "
                         "a snapshot of the server's /metrics)")
    p2.set_defaults(func=_cmd_table2,
                    check=functools.partial(_check_table2, p2))

    sub.add_parser("table3", help="Table III agent comparison") \
        .set_defaults(func=_cmd_table3)

    pr = sub.add_parser("resolution", help="Section IV-B study")
    pr.add_argument("--model", default="gpt-4o")
    pr.add_argument("--category", type=_category, default="Digital")
    pr.add_argument("--factors", nargs="+", type=_count,
                    default=[1, 8, 16])
    pr.add_argument("--workers", type=_count, default=1,
                    help="evaluate resolution factors in parallel "
                         "(clamped to this machine's CPU count)")
    pr.add_argument("--backend",
                    choices=["serial", "thread", "process", "async"],
                    default=None,
                    help="execution backend (see table2 --backend)")
    pr.add_argument("--cache-stats", action="store_true",
                    help="print perception-substrate cache counters "
                         "after the study")
    pr.set_defaults(func=_cmd_resolution)

    sub.add_parser("composition", help="Fig. 1 composition summary") \
        .set_defaults(func=_cmd_composition)

    pe = sub.add_parser("evaluate", help="evaluate one model")
    pe.add_argument("--model", default="gpt-4o")
    pe.add_argument("--challenge", action="store_true",
                    help="use the no-choice challenge collection")
    pe.add_argument("--resolution", type=_count, default=1)
    pe.set_defaults(func=_cmd_evaluate)

    pc = sub.add_parser("compare", help="paired significance test")
    pc.add_argument("model_a")
    pc.add_argument("model_b")
    pc.add_argument("--challenge", action="store_true")
    pc.set_defaults(func=_cmd_compare)

    ps = sub.add_parser("show", help="inspect one benchmark question")
    ps.add_argument("question", metavar="qid", type=_question)
    ps.add_argument("--figure", default=None,
                    help="also write the figure to this PGM path")
    ps.set_defaults(func=_cmd_show)

    sub.add_parser("list-models", help="show the model zoo") \
        .set_defaults(func=_cmd_list_models)

    pf = sub.add_parser("export-figures", help="write figures as PGM")
    pf.add_argument("--out", default="figures")
    pf.add_argument("--limit", type=_count, default=None)
    pf.set_defaults(func=_cmd_export_figures)

    pd = sub.add_parser("export-dataset", help="dump benchmark JSONL")
    pd.add_argument("--out", default="chipvqa.jsonl")
    pd.add_argument("--challenge", action="store_true")
    pd.set_defaults(func=_cmd_export_dataset)

    pv = sub.add_parser("verify-run",
                        help="audit a run directory's artifacts "
                             "(checksums, record counts, manifest)")
    pv.add_argument("run_dir", help="directory written via --run-dir")
    pv.set_defaults(func=_cmd_verify_run)

    return parser


def _check_model_names(parser: argparse.ArgumentParser,
                       args: argparse.Namespace) -> None:
    """Reject unknown model names as a usage error (exit status 2),
    against the lookup the command then uses: provider registry names
    on the scaled ``table2`` path, the zoo everywhere else.  A served
    ``table2`` is left to the server's own registry check."""
    command = args.command
    if command == "table2" and not args.service:
        names = args.models or []
    elif command in ("resolution", "evaluate"):
        names = [args.model]
    elif command == "compare":
        names = [args.model_a, args.model_b]
    else:
        return
    if command == "table2" and _table2_path(args) == "scaled":
        from repro.models.providers import provider_names

        known = provider_names()
    else:
        known = sorted(_ZOO_SPECS)
    unknown = [name for name in names if name not in known]
    if unknown:
        parser.error(f"unknown model(s) {', '.join(unknown)}; "
                     f"known: {', '.join(known)}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_model_names(parser, args)
    if args.command == "table2":
        args.check(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
