"""Fresh-interpreter entry point for the benchmark's measured processes.

``run.py`` never imports the program into its own process to time it:
every measured operation runs in a process started from this file, so
imports, collection builds and caches start cold exactly as they do for
a user, and CPU time and peak memory can be read from outside.

Modes (``python perfbench/launch.py <mode> --help``):

* ``paper`` — one cold paper reproduction: ``table2 --run-dir`` over the
  full zoo, the Section IV-B resolution study and Table III;
* ``sweep`` — repeated scaled sweeps; traced, each sweep is followed by
  a resume pass over its run directory and ``verify_run``;
* ``serve`` — ``eval-serve`` with default settings, stopped by SIGTERM;
* ``pin`` — print the reference outputs ``pins.json`` records.

``paper`` and ``sweep`` record the moment set-up ended (``ready_ns``,
on the system-wide monotonic clock the parent's spawn time is read
from) and then time each operation's wall and CPU clock.  With
``--trace-dir`` the layer wrappers of :mod:`tracer` are installed right
after the imports and the spans are written there at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

import tracer as tracing

#: Checkpoints the commit log is kept out of, as in the golden pin.
COMMIT_LOG = "commits.jsonl"

#: Scaled sweeps: 6 canonical cycles, in 8 pinned variants.
SWEEP_TOTAL = 852
SWEEP_VARIANTS = 8

#: The Section IV-B study the paper reports: GPT-4o on Digital.
RESOLUTION_MODEL = "gpt-4o"
RESOLUTION_FACTORS = (1, 8, 16)

#: Modules every mode imports before set-up (timed as ``imports``).
_FAMILIES = tuple(module for _, module, _ in tracing.FAMILIES)
IMPORTS = {
    "paper": ("repro", "repro.agent", "repro.core.report") + _FAMILIES,
    "sweep": ("repro", "repro.core.sweep", "repro.core.results_io")
    + _FAMILIES,
    "serve": ("repro", "repro.service.server"),
    "pin": ("repro", "repro.agent", "repro.core.report",
            "repro.core.sweep") + _FAMILIES,
}


def cpu_ns() -> int:
    """User + system CPU of this process, its threads and reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((own.ru_utime + own.ru_stime
                + kids.ru_utime + kids.ru_stime) * 1e9)


def pinned_core() -> Optional[int]:
    """The one core this process may run on, or None if it may use more."""
    cores = os.sched_getaffinity(0)
    return next(iter(cores)) if len(cores) == 1 else None


def steal_ns(core: Optional[int]) -> int:
    """Time the hypervisor has stolen from ``core`` so far, from the
    per-CPU ``steal`` counter of ``/proc/stat`` (0 for ``None``)."""
    if core is None:
        return 0
    prefix = f"cpu{core} "
    with open("/proc/stat") as handle:
        for line in handle:
            if line.startswith(prefix):
                return (int(line.split()[8]) * 1_000_000_000
                        // os.sysconf("SC_CLK_TCK"))
    return 0


def ready() -> Dict[str, int]:
    """When set-up ended, and how much the hypervisor had stolen from
    this process's core by then (the parent subtracts its share; an
    unpinned process reports no steal)."""
    done = {"ready_ns": time.monotonic_ns()}
    core = pinned_core()
    if core is not None:
        done["ready_steal_ns"] = steal_ns(core)
    return done


def digest_run_dir(run_dir: Path) -> str:
    """sha256 over the sorted checkpoints as ``name\\0bytes\\0`` (the
    golden Table II digest's definition)."""
    combined = hashlib.sha256()
    for path in sorted(p for p in Path(run_dir).glob("*.jsonl")
                       if p.name != COMMIT_LOG):
        combined.update(path.name.encode() + b"\0" + path.read_bytes()
                        + b"\0")
    return combined.hexdigest()


def results_digest(results: List) -> str:
    """sha256 over canonical (telemetry-free) result payloads, in order."""
    from repro.core import results_io

    combined = hashlib.sha256()
    for result in results:
        combined.update(results_io.dumps(result, telemetry=False).encode()
                        + b"\0")
    return combined.hexdigest()


# -- paper -------------------------------------------------------------------


def paper_setup() -> list:
    """The 142-question collection, its challenge variant and the zoo."""
    from repro.core.benchmark import build_chipvqa, build_chipvqa_challenge
    from repro.models import build_zoo

    build_chipvqa()
    build_chipvqa_challenge()
    return build_zoo()


def paper_op(zoo: list, run_dir: Path) -> dict:
    """What ``table2 --run-dir DIR``, ``resolution`` and ``table3`` run."""
    from repro.agent import run_table3
    from repro.core.harness import EvaluationHarness, run_table2
    from repro.core.question import Category
    from repro.core.report import (render_resolution_study, render_table2,
                                   render_table3)
    from repro.core.runner import ParallelRunner
    from repro.models import build_model
    from repro.models.zoo import TABLE2_ROW_ORDER

    harness = EvaluationHarness()
    runner = ParallelRunner(harness=harness, workers=1, run_dir=run_dir)
    table2 = run_table2(zoo, harness, runner=runner)
    render_table2(table2, dict(TABLE2_ROW_ORDER))
    study_harness = EvaluationHarness()
    study = study_harness.resolution_study(
        build_model(RESOLUTION_MODEL), category=Category.DIGITAL,
        factors=RESOLUTION_FACTORS,
        runner=ParallelRunner(harness=study_harness, workers=1))
    render_resolution_study(study, Category.DIGITAL)
    table3 = run_table3()
    render_table3(table3["gpt4o"], table3["agent"])
    return {"table2": table2, "study": study, "table3": table3}


def paper_outputs(value: dict, run_dir: Path) -> dict:
    """The figures ``pins.json`` pins for one paper operation."""
    table2, study, table3 = value["table2"], value["study"], value["table3"]
    table2_results = [r for settings in table2.values()
                      for r in settings.values()]
    study_results = [study[f] for f in RESOLUTION_FACTORS]
    table3_results = [table3[m][s] for m in sorted(table3)
                      for s in sorted(table3[m])]
    return {
        "qevals": sum(len(r.records) for r in
                      table2_results + study_results + table3_results),
        "table2_digest": digest_run_dir(run_dir),
        "table2_files": len([p for p in run_dir.glob("*.jsonl")
                             if p.name != COMMIT_LOG]),
        "resolution": {str(f): study[f].pass_at_1()
                       for f in RESOLUTION_FACTORS},
        "resolution_digest": results_digest(study_results),
        "table3": {m: {s: table3[m][s].pass_at_1()
                       for s in sorted(table3[m])}
                   for m in sorted(table3)},
        "table3_digest": results_digest(table3_results),
    }


# -- scaled sweeps -----------------------------------------------------------


def sweep_setup() -> None:
    """Paper set-up plus the canonical cycle scaled builds derive from."""
    from repro.core.databuild import canonical_cycle

    paper_setup()
    canonical_cycle()


def scaled_sweep(models: List[str], seed: int, run_dir: Path,
                 spill_dir: Path):
    """The cookbook's scaled sweep: serial runner, both settings."""
    from repro.core import sweep

    return sweep.run_scaled_table2(models, SWEEP_TOTAL, seed,
                                   run_dir=run_dir, spill_dir=spill_dir)


def sweep_outputs(report, run_dir: Path) -> dict:
    from repro.core import perfstats

    return {
        "qevals": sum(len(sample.records)
                      for settings in report.results.values()
                      for multi in settings.values()
                      for sample in multi.samples),
        "digest": digest_run_dir(run_dir),
        # the program's own figures, kept beside the benchmark's deltas
        "program_build_misses": report.perf_caches.get(
            "dataset_build", {}).get("misses", 0),
        "program_build_wait_ms": perfstats.stage_seconds(
            report.perf_caches, "build_wait") * 1e3,
    }


def checkpoint_stamps(run_dir: Path) -> Dict[str, tuple]:
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size)
            for p in run_dir.glob("*.jsonl")}


def resume_pass(tracer: tracing.Tracer, name: str, models: List[str],
                seed: int, run_dir: Path, spill_dir: Path) -> dict:
    """Repeat a finished sweep against its run dir and warm spill dir,
    with the in-memory caches emptied, then ``verify_run`` the directory:
    the read side of the artifact and shard-cache layers, traced as
    operation ``name``.

    Units resumed and run are counted by the ``ParallelRunner.run``
    wrapper over every shard window, not read from the manifest, which
    only describes the last window.
    """
    from repro.core import perfstats, results_io

    perfstats.reset()
    stamps = checkpoint_stamps(run_dir)
    before = perfstats.snapshot()
    started = time.perf_counter_ns()
    with tracer.operation(name, "resume"):
        scaled_sweep(models, seed, run_dir, spill_dir)
        audit = results_io.verify_run(run_dir)
    latency_ns = time.perf_counter_ns() - started
    counts = tracer.counts.get(name, {})
    return {
        "op": name,
        "latency_ns": latency_ns,
        "delta": tracing.counter_delta(before, perfstats.snapshot()),
        "digest": digest_run_dir(run_dir),
        "verify_ok": audit.ok,
        "rewritten": sum(1 for file, stamp in
                         checkpoint_stamps(run_dir).items()
                         if stamps.get(file) != stamp),
        "units": counts.get("runner.units", 0),
        "resumed": counts.get("runner.resumed", 0),
    }


# -- the operation loop ------------------------------------------------------


def run_ops(seconds: float, op: Callable[[int], object],
            outputs: Callable[[int, object], dict],
            tracer: Optional[tracing.Tracer],
            prepare: Callable[[int], None] = lambda index: None
            ) -> List[dict]:
    """Run timed operations until ``seconds`` have passed (at least one).

    Only ``op`` is timed: ``prepare`` runs before the clocks start and
    ``outputs`` (checks, clean-up) after they stop.  A failing operation
    is recorded, not raised.
    """
    from repro.core import perfstats

    records: List[dict] = []
    started = time.monotonic()
    index = 0
    while not records or time.monotonic() - started < seconds:
        name = f"op{index}"
        prepare(index)
        before = perfstats.snapshot() if tracer else None
        scope = (tracer.operation(name) if tracer
                 else contextlib.nullcontext())
        record: Dict[str, object] = {"op": name}
        core = pinned_core()
        steal_start = steal_ns(core)
        cpu_start, wall_start = cpu_ns(), time.perf_counter_ns()
        try:
            with scope:
                value = op(index)
        except Exception:
            value = None
            record["error"] = traceback.format_exc(limit=5)
        record["latency_ns"] = time.perf_counter_ns() - wall_start
        record["cpu_ns"] = cpu_ns() - cpu_start
        record["steal_ns"] = steal_ns(core) - steal_start
        if tracer:
            record["delta"] = tracing.counter_delta(before,
                                                    perfstats.snapshot())
        if "error" not in record:
            try:
                record.update(outputs(index, value))
            except Exception:
                record["error"] = traceback.format_exc(limit=5)
        records.append(record)
        index += 1
    return records


# -- modes -------------------------------------------------------------------


def mode_paper(args, tracer) -> dict:
    zoo = paper_setup()
    done = ready()
    work = Path(args.work)

    def op(index: int):
        return paper_op(zoo, work / f"run{index}")

    def outputs(index: int, value) -> dict:
        return paper_outputs(value, work / f"run{index}")

    return dict(done, ops=run_ops(0, op, outputs, tracer))


def mode_sweep(args, tracer) -> dict:
    from repro.core import perfstats

    sweep_setup()
    done = ready()
    models, work = args.models.split(","), Path(args.work)

    def prepare(index: int) -> None:
        # in-memory caches are emptied between sweeps, outside the clock
        perfstats.reset()

    def op(index: int):
        return scaled_sweep(models, args.seed, work / f"run{index}",
                            work / f"spill{index}")

    def outputs(index: int, report) -> dict:
        run_dir, spill_dir = work / f"run{index}", work / f"spill{index}"
        record = sweep_outputs(report, run_dir)
        if tracer:
            record["resume"] = resume_pass(tracer, f"resume{index}", models,
                                           args.seed, run_dir, spill_dir)
        shutil.rmtree(run_dir)
        shutil.rmtree(spill_dir)
        return record

    return dict(done, ops=run_ops(args.seconds, op, outputs, tracer,
                                  prepare))


def mode_serve(args, tracer) -> dict:
    from repro.core import perfstats
    from repro.service import server

    def stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    server.main(["--port", str(args.port), "--run-root", args.work])
    if tracer:
        tracer.snapshot("exit", perfstats.snapshot())
    return {}


def mode_pin(args, tracer) -> dict:
    """Reference outputs for ``pins.json``: one paper operation and one
    sweep per scaled variant."""
    from repro.models.zoo import TABLE2_ROW_ORDER

    work = Path(args.work)
    zoo = paper_setup()
    paper = paper_outputs(paper_op(zoo, work / "paper"), work / "paper")
    names = [name for name, _ in TABLE2_ROW_ORDER]
    triples = [names[i:i + 3] for i in range(0, len(names), 3)]
    variants = []
    for index in range(SWEEP_VARIANTS):
        models, seed = triples[index % len(triples)], index + 1
        scaled_sweep(models, seed, work / f"run{index}",
                     work / f"spill{index}")
        variants.append({"dataset_seed": seed, "models": models,
                         "digest": digest_run_dir(work / f"run{index}")})
    del paper["qevals"]
    return {"paper": paper, "sweep": {"variants": variants}}


MODES = {"paper": mode_paper, "sweep": mode_sweep, "serve": mode_serve,
         "pin": mode_pin}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--work", required=True,
                        help="directory the mode writes its artifacts to")
    parser.add_argument("--out", help="where to write the JSON result")
    parser.add_argument("--trace-dir", help="trace the layers and write "
                                            "the spans here at exit")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--models", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter_ns()
    for module in IMPORTS[args.mode]:
        importlib.import_module(module)
    imports_ns = time.perf_counter_ns() - started
    tracer = tracing.install() if args.trace_dir else None
    result = MODES[args.mode](args, tracer)
    if args.mode != "pin":
        result["imports_ns"] = imports_ns
    if tracer:
        tracer.dump(args.trace_dir)
    if args.out:
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    else:
        print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
