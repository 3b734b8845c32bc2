"""The repository benchmark: three workloads, five end-to-end metrics
plus the error rate, and per-layer traces.

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 30 \\
        --trace 0

Run from the root of a checkout.  Every measured operation runs in a
process started from ``perfbench/launch.py`` (a fresh interpreter with
``src`` on its path); this process only schedules those processes,
reads their CPU time and peak memory, drives the service's clients,
checks every output against ``perfbench/pins.json`` and prints the
result.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``--trace 1`` alternates untraced and traced processes in one run, so
the tracing overhead is read from neighbouring measurements.  The
workload design, the layer-to-metric map and what is deliberately not
measured are written up in ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import launch
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
PINS = HERE / "pins.json"
WORK_ROOT = ROOT / ".perfbench-work"

#: Bound on any one measured process; the whole run stays well under
#: the three minutes a run may take.
PROCESS_TIMEOUT_S = 120.0

#: Processes per run for the workloads that split their time (the
#: median set-up time needs at least three); a traced run alternates
#: untraced and traced processes and uses one more.
SEGMENTS = 3
TRACED_SEGMENTS = 4

#: Closed-loop clients driving ``serve-jobs`` (the host's vCPU count).
SERVE_CLIENTS = 2

#: Every measured process runs on the first core this process may use;
#: the parent, which drives the service's clients, keeps the others.
#: Unpinned, the two served jobs hand the interpreter lock back and
#: forth across vCPUs, and every hand-off waits on whichever vCPU the
#: hypervisor is stealing: serve-jobs latency then tracked host steal
#: (1.2 s at 3 % steal, 2.1 s at 24 %) instead of the program.
CORES = sorted(os.sched_getaffinity(0))

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_qps", "qeval/s"),
    ("cpu_ms_per_kq", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """A measured process could not be run or read."""


@dataclass
class Segment:
    """One measured process: its set-up, operations and resources."""

    traced: bool
    setup_s: float = 0.0
    maxrss_kb: int = 0
    imports_ns: int = 0
    ops: List[dict] = field(default_factory=list)
    #: serve-jobs only: the server's CPU over the client window, the
    #: window's bounds, and when the warm-up job ended
    window_cpu_ns: int = 0
    window: tuple = ()
    ready_ns: int = 0
    warmup_job: str = ""
    trace_dir: Optional[Path] = None


# -- processes ----------------------------------------------------------------


def child_env(work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(work)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, work: Path, args: List[str],
          trace_dir: Optional[Path]) -> subprocess.Popen:
    work.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(LAUNCH), mode, "--work", str(work),
               "--out", str(work / "out.json"), *args]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    with open(work / "stdout.log", "wb") as out, \
            open(work / "stderr.log", "wb") as err:
        proc = subprocess.Popen(command, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=ROOT,
                                env=child_env(work))
    os.sched_setaffinity(proc.pid, CORES[:1])
    return proc


def reap(proc: subprocess.Popen, timeout_s: float):
    """Wait for ``proc`` and return its resource usage (kill it when it
    overruns ``timeout_s``)."""
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"pid {proc.pid} overran {timeout_s:.0f} s")
        time.sleep(0.005)


def stderr_tail(work: Path) -> str:
    path = work / "stderr.log"
    text = path.read_text(errors="replace") if path.exists() else ""
    return text[-2000:]


def run_launcher(mode: str, work: Path, args: List[str],
                 trace_dir: Optional[Path]) -> Segment:
    """Run one ``paper`` or ``sweep`` process to completion."""
    steal_start = launch.steal_ns(CORES[0])
    spawned_ns = time.monotonic_ns()
    proc = spawn(mode, work, args, trace_dir)
    usage = reap(proc, PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"launch.py {mode} exited {proc.returncode}:\n"
                         + stderr_tail(work))
    result = json.loads((work / "out.json").read_text())
    stolen = result.get("ready_steal_ns", steal_start) - steal_start
    return Segment(traced=trace_dir is not None,
                   setup_s=(result.get("ready_ns", spawned_ns)
                            - spawned_ns - stolen) / 1e9,
                   maxrss_kb=usage.ru_maxrss,
                   imports_ns=result["imports_ns"], ops=result["ops"],
                   trace_dir=trace_dir)


def proc_cpu_ns(pid: int) -> int:
    """User + system CPU of a live process, read from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks * 1_000_000_000 // os.sysconf("SC_CLK_TCK")


# -- workloads ------------------------------------------------------------------


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    pins: dict
    #: serve-jobs: the job ``table2 --service URL`` submits
    serve_spec: dict = field(default_factory=dict)

    def plan(self) -> List[bool]:
        """Traced flags of the run's processes (alternating if traced)."""
        count = TRACED_SEGMENTS if self.trace else SEGMENTS
        return [self.trace and index % 2 == 1 for index in range(count)]

    def trace_dir(self, index: int, traced: bool) -> Optional[Path]:
        return self.work / f"trace{index}" if traced else None

    def sweep_args(self) -> List[str]:
        sweep = self.pins["sweep"]
        variant = sweep["variants"][self.seed % len(sweep["variants"])]
        return ["--models", ",".join(variant["models"]),
                "--seed", str(variant["dataset_seed"])]

    def sweep_digest(self) -> str:
        variants = self.pins["sweep"]["variants"]
        return variants[self.seed % len(variants)]["digest"]


def paper_cold(ctx: Context) -> List[Segment]:
    """One cold paper reproduction per fresh interpreter until time is up."""
    segments: List[Segment] = []
    deadline = time.monotonic() + ctx.seconds
    index = 0
    while index < len(ctx.plan()) or time.monotonic() < deadline:
        traced = ctx.trace and index % 2 == 1
        segments.append(run_launcher(
            "paper", ctx.work / f"seg{index}", [],
            ctx.trace_dir(index, traced)))
        index += 1
    return segments


def sweep_scaled(ctx: Context) -> List[Segment]:
    plan = ctx.plan()
    share = ctx.seconds / len(plan)
    return [run_launcher("sweep", ctx.work / f"seg{index}",
                         ctx.sweep_args() + ["--seconds", str(share)],
                         ctx.trace_dir(index, traced))
            for index, traced in enumerate(plan)]


def serve_jobs(ctx: Context) -> List[Segment]:
    sys.path.insert(0, str(SRC))
    from repro.models.zoo import TABLE2_ROW_ORDER

    # what ``table2 --service URL`` submits for the full zoo
    ctx.serve_spec = {"models": [name for name, _ in TABLE2_ROW_ORDER],
                      "workers": 1, "replicas": 1}
    plan = ctx.plan()
    share = ctx.seconds / len(plan)
    return [serve_segment(ctx, index, traced, share)
            for index, traced in enumerate(plan)]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_healthy(url: str, proc: subprocess.Popen, timeout_s: float) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise BenchError(f"eval-serve exited {proc.returncode}")
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=1) as r:
                if r.status == 200:
                    return
        except OSError:
            time.sleep(0.01)
    raise BenchError("eval-serve never answered /healthz")


def serve_job(client, spec: dict) -> dict:
    """Submit the ``table2 --service`` job and stream its results, then
    read the server-side artifacts for the output check.

    Only each streamed payload's header line is parsed (for its record
    count): the golden digest over the checkpoints checks the bytes,
    and the client's own CPU competes with the server for the host.
    """
    record: Dict[str, object] = {}
    steal_start = launch.steal_ns(CORES[0])
    started = time.perf_counter_ns()
    try:
        job_id = client.submit_job(spec)
        headers = [json.loads(line.split("\n", 1)[0])
                   for line in client.stream_results(job_id)]
        status = client.job_status(job_id)
    except Exception as exc:  # an HTTP or transport failure is a failure
        record["latency_ns"] = time.perf_counter_ns() - started
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["latency_ns"] = time.perf_counter_ns() - started
    record["steal_ns"] = launch.steal_ns(CORES[0]) - steal_start
    record["op"] = job_id
    record["qevals"] = sum(header["records"] for header in headers)
    record["status"] = status["status"]
    record["units"] = len(headers)
    record["digest"] = launch.digest_run_dir(Path(status["run_dir"]))
    return record


def serve_segment(ctx: Context, index: int, traced: bool,
                  seconds: float) -> Segment:
    """Spawn ``eval-serve``, warm it with one job, then drive it with a
    closed loop of clients for ``seconds``."""
    from repro.service.client import EvalServiceClient

    work = ctx.work / f"seg{index}"
    port = free_port()
    url = f"http://127.0.0.1:{port}"
    steal_start = launch.steal_ns(CORES[0])
    spawned_ns = time.monotonic_ns()
    trace_dir = ctx.trace_dir(index, traced)
    proc = spawn("serve", work, ["--port", str(port)], trace_dir)
    segment = Segment(traced=traced, trace_dir=trace_dir)
    try:
        wait_healthy(url, proc, 60.0)
        warmup = serve_job(EvalServiceClient(url), ctx.serve_spec)
        segment.ready_ns = time.monotonic_ns()
        stolen = launch.steal_ns(CORES[0]) - steal_start
        segment.setup_s = (segment.ready_ns - spawned_ns - stolen) / 1e9
        segment.warmup_job = str(warmup.get("op", ""))
        check_served(ctx, warmup)
        if "error" in warmup:
            raise BenchError(f"warm-up job failed: {warmup['error']}")
        deadline = time.monotonic() + seconds
        cpu_start, window_start = proc_cpu_ns(proc.pid), time.monotonic_ns()
        jobs: List[dict] = []
        lock = threading.Lock()
        timed_in_flight = [0]

        def client_loop() -> None:
            # Jobs submitted before the deadline are timed.  After it, a
            # client keeps the server loaded with untimed jobs while any
            # other client's timed job is still running, so no timed job
            # ever has the server to itself.
            client = EvalServiceClient(url)
            while True:
                with lock:
                    timed = time.monotonic() < deadline
                    if not timed and not timed_in_flight[0]:
                        return
                    timed_in_flight[0] += timed
                record = serve_job(client, ctx.serve_spec)
                record["timed"] = timed
                with lock:
                    timed_in_flight[0] -= timed
                jobs.append(record)

        clients = [threading.Thread(target=client_loop)
                   for _ in range(SERVE_CLIENTS)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        segment.window = (window_start, time.monotonic_ns())
        segment.window_cpu_ns = proc_cpu_ns(proc.pid) - cpu_start
        segment.ops = jobs
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        usage = reap(proc, 30.0)
    if proc.returncode != 0:
        raise BenchError(f"eval-serve exited {proc.returncode}:\n"
                         + stderr_tail(work))
    segment.maxrss_kb = usage.ru_maxrss
    segment.imports_ns = json.loads(
        (work / "out.json").read_text())["imports_ns"]
    return segment


WORKLOADS: Dict[str, Callable[[Context], List[Segment]]] = {
    "paper-cold": paper_cold,
    "sweep-scaled": sweep_scaled,
    "serve-jobs": serve_jobs,
}

#: Concurrent operations a workload keeps in flight.
CONCURRENCY = {"serve-jobs": SERVE_CLIENTS}


# -- output checks --------------------------------------------------------------


def check_paper(ctx: Context, op: dict) -> None:
    pinned = ctx.pins["paper"]
    for key, value in pinned.items():
        if op.get(key) != value:
            op.setdefault("error", f"{key} = {op.get(key)!r}, pinned "
                                   f"{value!r}")


def check_sweep(ctx: Context, op: dict) -> None:
    if op.get("digest") != ctx.sweep_digest():
        op.setdefault("error", "checkpoint digest differs from the pin")
    if "resume" in op:
        check_resume(ctx, op["resume"], op)


def check_resume(ctx: Context, resume: dict, op: dict) -> None:
    """The traced run's resume pass after a sweep: it must resume every
    unit of every window, rewrite no checkpoint (so re-evaluate none),
    leave the digest as pinned and pass ``verify_run``."""
    problems = []
    if resume["digest"] != ctx.sweep_digest():
        problems.append("checkpoint digest differs from the pin")
    if not resume["verify_ok"]:
        problems.append("verify_run failed")
    if resume["rewritten"]:
        problems.append(f"{resume['rewritten']} checkpoint(s) rewritten")
    if not 0 < resume["resumed"] == resume["units"]:
        problems.append(f"{resume['resumed']} of {resume['units']} "
                        f"unit(s) resumed")
    if problems:
        op.setdefault("error", "resume: " + "; ".join(problems))


def check_served(ctx: Context, op: dict) -> None:
    if "error" in op:
        return
    units = 2 * len(ctx.serve_spec["models"])
    if op.get("status") != "completed" or op.get("units") != units:
        op["error"] = (f"job {op.get('status')} with {op.get('units')} "
                       f"unit(s)")
    elif op.get("digest") != ctx.pins["paper"]["table2_digest"]:
        op["error"] = "served checkpoints differ from the golden digest"


CHECKS = {"paper-cold": check_paper, "sweep-scaled": check_sweep,
          "serve-jobs": check_served}


# -- metrics --------------------------------------------------------------------


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def end_to_end(workload: str, segments: List[Segment]) -> Dict[str, dict]:
    """The end-to-end metrics over ``segments`` (their good operations),
    each with the samples it was taken from."""
    ops = [op for s in segments for op in s.ops
           if "error" not in op and op.get("timed", True)]
    if not ops:
        first = next((op["error"] for s in segments for op in s.ops), "")
        raise BenchError(f"no operation succeeded; first error:\n{first}")
    concurrency = CONCURRENCY.get(workload, 1)
    # time the hypervisor stole from the pinned core is not the program's
    latency = [(op["latency_ns"] - op["steal_ns"]) / 1e6 for op in ops]
    rate = [concurrency * op["qevals"] / (ms / 1e3)
            for op, ms in zip(ops, latency)]
    if workload == "serve-jobs":
        cpu = [s.window_cpu_ns / 1e3 / sum(op["qevals"] for op in s.ops
                                           if "error" not in op)
               for s in segments
               if any("error" not in op for op in s.ops)]
    else:
        cpu = [op["cpu_ns"] / 1e3 / op["qevals"] for op in ops]
    samples = {
        "setup_s": [s.setup_s for s in segments],
        "latency_p50_ms": latency,
        "throughput_qps": rate,
        "cpu_ms_per_kq": cpu,
        "peak_rss_mb": [s.maxrss_kb / 1024 for s in segments],
        "wall_p50_ms": [op["latency_ns"] / 1e6 for op in ops],
    }
    units = dict(END_TO_END, wall_p50_ms="ms")
    return {name: {"value": statistics.median(values),
                   "unit": units[name], "samples": values}
            for name, values in samples.items()}


# -- per-layer metrics ----------------------------------------------------------

#: per_layer metric -> unit; the order BENCHMARK.json lists them in.
PER_LAYER = {
    "imports.ms": "ms",
    "dataset.build_ms": "ms",
    "dataset.digital_ms": "ms",
    "dataset.analog_ms": "ms",
    "dataset.arch_ms": "ms",
    "dataset.physical_ms": "ms",
    "dataset.manufacturing_ms": "ms",
    "databuild.shard_ms": "ms",
    "databuild.shards": "count",
    "databuild.disk_hits": "count",
    "databuild.disk_writes": "count",
    "databuild.misses": "count",
    "program.databuild_misses": "count",
    "databuild.build_wait_ms": "ms",
    "program.build_wait_ms": "ms",
    "visual.render_ms": "ms",
    "visual.render_calls": "count",
    "visual.legibility_ms": "ms",
    "visual.legibility_calls": "count",
    "visual.content_key_ms": "ms",
    "visual.content_key_calls": "count",
    "encoder.perceive_ms": "ms",
    "encoder.hits": "count",
    "encoder.misses": "count",
    "encoder.hit_ratio": "ratio",
    "provider.answer_ms": "ms",
    "provider.calls": "count",
    "provider.questions_per_call": "count",
    "judge.ms": "ms",
    "judge.calls": "count",
    "agent.ms": "ms",
    "agent.calls": "count",
    "runcache.key_ms": "ms",
    "runcache.key_calls": "count",
    "runner.self_ms": "ms",
    "runner.units": "count",
    "runner.retries": "count",
    "sweep.self_ms": "ms",
    "engine.serialize_ms": "ms",
    "engine.checkpoint_ms": "ms",
    "engine.checkpoint_bytes": "bytes",
    "engine.manifest_ms": "ms",
    "engine.manifest_writes": "count",
    "engine.prepare_ms": "ms",
    "results_io.verify_ms": "ms",
    "results_io.files_read": "count",
    "results_io.bytes_read": "bytes",
    "resume.wall_ms": "ms",
    "service.http_ms": "ms",
    "service.requests_per_job": "count",
    "service.queue_wait_ms": "ms",
    "service.job_ms": "ms",
    "op.self_ms": "ms",
    "trace.untraced_p50_ms": "ms",
    "trace.traced_p50_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Span name -> (self-time metric, call-count metric or None).
SPAN_METRICS = {
    "databuild.shard": ("databuild.shard_ms", "databuild.shards"),
    "visual.render": ("visual.render_ms", "visual.render_calls"),
    "visual.legibility": ("visual.legibility_ms",
                          "visual.legibility_calls"),
    "visual.content_key": ("visual.content_key_ms",
                           "visual.content_key_calls"),
    "encoder.perceive": ("encoder.perceive_ms", None),
    "provider.answer": ("provider.answer_ms", "provider.calls"),
    "judge": ("judge.ms", "judge.calls"),
    "agent": ("agent.ms", "agent.calls"),
    "runcache.key": ("runcache.key_ms", "runcache.key_calls"),
    "runner": ("runner.self_ms", None),
    "sweep": ("sweep.self_ms", None),
    "engine.serialize": ("engine.serialize_ms", None),
    "engine.checkpoint": ("engine.checkpoint_ms", None),
    "engine.manifest": ("engine.manifest_ms", "engine.manifest_writes"),
    "engine.prepare": ("engine.prepare_ms", None),
    "results_io.verify": ("results_io.verify_ms", None),
    "service.http": ("service.http_ms", "service.requests_per_job"),
    "service.job": ("service.job_ms", None),
    "op": ("op.self_ms", None),
}

#: Wrapper counter -> (sum it feeds, scale).  ``runner.resumed`` feeds
#: only the resume check.
COUNT_METRICS = {
    "databuild.disk_writes": ("databuild.disk_writes", 1),
    "runner.units": ("runner.units", 1),
    "runner.retries": ("runner.retries", 1),
    "engine.checkpoint_bytes": ("engine.checkpoint_bytes", 1),
    "results_io.files_read": ("results_io.files_read", 1),
    "results_io.bytes_read": ("results_io.bytes_read", 1),
    "provider.questions": ("provider.questions", 1),
    "service.queue_wait_ns": ("service.queue_wait_ms", 1e-6),
}


@dataclass
class LayerView:
    """Per-layer sums over the traced operations of a run."""

    ops: int = 0
    sums: Dict[str, float] = field(default_factory=dict)
    setup: Dict[str, List[float]] = field(default_factory=dict)
    checks: List[str] = field(default_factory=list)

    def add(self, metric: str, value: float) -> None:
        self.sums[metric] = self.sums.get(metric, 0.0) + value

    def add_setup(self, metric: str, value: float) -> None:
        self.setup.setdefault(metric, []).append(value)


def absorb_counters(view: LayerView, delta: dict) -> None:
    """Fold one operation's ``perfstats`` delta into the view."""
    perception = delta.get("perception", {})
    view.add("encoder.hits", perception.get("hits", 0))
    view.add("encoder.misses", perception.get("misses", 0))
    build = delta.get("dataset_build", {})
    view.add("databuild.disk_hits", build.get("spill_hits", 0))
    view.add("databuild.misses", build.get("misses", 0))
    stages = delta.get("stage_timings", {})
    view.add("databuild.build_wait_ms", stages.get("build_wait_ns", 0) / 1e6)


def absorb_counts(view: LayerView, counts: Dict[str, int]) -> None:
    """Fold one operation's wrapper counters into the view."""
    for key, value in counts.items():
        if key in COUNT_METRICS:
            metric, scale = COUNT_METRICS[key]
            view.add(metric, value * scale)


def absorb_spans(view: LayerView, totals: Dict[str, List[int]]) -> None:
    for span, (self_ns, calls, _) in totals.items():
        metrics = SPAN_METRICS.get(span)
        if metrics is None:
            continue
        time_metric, call_metric = metrics
        view.add(time_metric, self_ns / 1e6)
        if call_metric:
            view.add(call_metric, calls)


def absorb_setup(view: LayerView, segment: Segment, trace: dict) -> None:
    """Per-process figures: imports and the collection build."""
    view.add_setup("imports.ms", segment.imports_ns / 1e6)
    totals = tracing.layer_totals(trace)
    for family, _, _ in tracing.FAMILIES:
        ms = totals.get(f"dataset.{family}", [0, 0, 0])[0] / 1e6
        view.add_setup(f"dataset.{family}_ms", ms)
    view.add_setup("dataset.build_ms", sum(
        self_ns for span, (self_ns, _, _) in totals.items()
        if span.startswith("dataset.")) / 1e6)


def check_self_times(view: LayerView, trace: dict, root: str,
                     ops: set) -> None:
    """Self times of an operation's spans must not add up to more than
    the operation's wall time."""
    roots = tracing.op_roots(trace, root)
    sums = tracing.self_time_by_op(trace)
    for op in ops:
        if op not in roots:
            view.checks.append(f"{op}: no {root} span")
            continue
        start, end = roots[op]
        if sums.get(op, 0) > end - start:
            view.checks.append(
                f"{op}: self times {sums[op]} ns > wall {end - start} ns")


#: Read-side figures the traced sweep-scaled run takes from the resume
#: pass after each sweep (a sweep into fresh directories reads nothing
#: back).
READ_SIDE = ("engine.prepare_ms", "results_io.verify_ms",
             "results_io.files_read", "results_io.bytes_read",
             "databuild.disk_hits")

#: Calls a resume pass must not make: it only reads artifacts back.
RESUME_ZERO = ("visual.render_calls", "provider.calls", "encoder.hits",
               "encoder.misses", "judge.calls", "visual.content_key_calls")


def absorb_resumes(view: LayerView, trace: dict,
                   resumes: List[dict]) -> None:
    """Fold the resume passes of one traced ``sweep`` process into the
    view: their read-side figures count towards the sweep each follows,
    and they must do no model work."""
    names = {resume["op"] for resume in resumes}
    passes = LayerView()
    absorb_spans(passes, tracing.layer_totals(trace, ops=names))
    for resume in resumes:
        absorb_counters(passes, resume["delta"])
        absorb_counts(passes, trace["counts"].get(resume["op"], {}))
        view.add("resume.wall_ms", resume["latency_ns"] / 1e6)
    for metric in READ_SIDE:
        view.add(metric, passes.sums.get(metric, 0.0))
    for metric in RESUME_ZERO:
        if passes.sums.get(metric, 0):
            view.checks.append(f"resume passes: {metric} = "
                               f"{passes.sums[metric]:g}, predicted 0")
    check_self_times(view, trace, "resume", names)


def layer_view(workload: str, segments: List[Segment]) -> LayerView:
    view = LayerView()
    for segment in segments:
        if not segment.traced:
            continue
        trace = tracing.load(segment.trace_dir)
        absorb_setup(view, segment, trace)
        good = [op for op in segment.ops if "error" not in op]
        names = {op["op"] for op in good}
        counts = trace["counts"]
        if workload == "serve-jobs":
            window = segment.window
            totals = tracing.layer_totals(trace, window=window)
            absorb_spans(view, totals)
            for op in names:
                absorb_counts(view, counts.get(op, {}))
            snaps = {snap["label"]: snap["counters"]
                     for snap in trace["snapshots"]}
            if segment.warmup_job in snaps and "exit" in snaps:
                absorb_counters(view, tracing.counter_delta(
                    snaps[segment.warmup_job], snaps["exit"]))
            late = tracing.layer_totals(
                trace, window=(segment.ready_ns, 2 ** 63 - 1))
            generators = sum(late.get(f"dataset.{family}", (0, 0, 0))[1]
                             for family, _, _ in tracing.FAMILIES)
            if generators:
                view.checks.append(f"{generators} question-generator "
                                   f"call(s) after the warm-up job")
            check_self_times(view, trace, "service.job", names)
        else:
            totals = tracing.layer_totals(trace, ops=names)
            absorb_spans(view, totals)
            for op in good:
                absorb_counters(view, op.get("delta", {}))
                absorb_counts(view, counts.get(op["op"], {}))
                if "program_build_misses" in op:
                    view.add("program.databuild_misses",
                             op["program_build_misses"])
                    view.add("program.build_wait_ms",
                             op["program_build_wait_ms"])
            check_self_times(view, trace, "op", names)
            resumes = [op["resume"] for op in good if "resume" in op]
            if resumes:
                absorb_resumes(view, trace, resumes)
        view.ops += len(good)
    predictions(workload, view)
    return view


def predictions(workload: str, view: LayerView) -> None:
    """The layer-separation predictions the traced run asserts."""
    if workload != "paper-cold" and view.sums.get("visual.render_calls"):
        view.checks.append(f"visual.render_calls = "
                           f"{view.sums['visual.render_calls']:g}, "
                           f"predicted 0")


def per_layer(view: LayerView, untraced: Dict[str, dict],
              traced: Dict[str, dict]) -> Dict[str, float]:
    ops = max(view.ops, 1)
    values = {metric: view.sums.get(metric, 0.0) / ops
              for metric in PER_LAYER}
    for metric, samples in view.setup.items():
        values[metric] = statistics.median(samples)
    calls = view.sums.get("provider.calls", 0)
    values["provider.questions_per_call"] = (
        view.sums.get("provider.questions", 0) / calls if calls else 0.0)
    looked = values["encoder.hits"] + values["encoder.misses"]
    values["encoder.hit_ratio"] = (values["encoder.hits"] / looked
                                   if looked else 0.0)
    plain = untraced["latency_p50_ms"]["value"]
    slow = traced["latency_p50_ms"]["value"]
    values["trace.untraced_p50_ms"] = plain
    values["trace.traced_p50_ms"] = slow
    values["trace.overhead_pct"] = (slow / plain - 1.0) * 100.0
    return values


# -- reporting ------------------------------------------------------------------


def host_probe() -> Dict[str, float]:
    """A fixed stdlib-only loop: how fast the host runs right now."""
    times = []
    for _ in range(15):
        started = time.perf_counter()
        total = 0
        for value in range(60_000):
            total += value * value % 7
        times.append((time.perf_counter() - started) * 1e3)
    return {"median_ms": statistics.median(times), "min_ms": min(times),
            "reps": len(times)}


def cpu_ticks() -> List[int]:
    """The host's aggregate CPU tick counters from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        return [int(value) for value in handle.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of the host's CPU time the hypervisor gave to others."""
    moved = [b - a for a, b in zip(before, after)]
    return moved[7] / max(sum(moved[:8]), 1)


def print_table(title: str, rows: List[tuple]) -> None:
    print(f"\n{title}")
    for row in rows:
        print("  " + "  ".join(str(cell) for cell in row))


def report(ctx: Context, metrics: Dict[str, dict], attempted: int,
           failed: int, errors: List[str], probes: dict,
           traced: Optional[Dict[str, dict]]) -> None:
    print(f"workload {ctx.workload}  seed {ctx.seed}  "
          f"seconds {ctx.seconds:g}  trace {int(ctx.trace)}")
    if ctx.workload == "sweep-scaled":
        print("variant " + " ".join(ctx.sweep_args()))
    rows = []
    for name, metric in metrics.items():
        q1, q2, q3 = quartiles(metric["samples"])
        row = (f"{name:<16}", f"{metric['value']:>12.4f}",
               f"{metric['unit']:<8}",
               f"n={len(metric['samples']):<4}",
               f"q1={q1:.4f} q3={q3:.4f}")
        if traced is not None:
            row += (f"traced={traced[name]['value']:.4f}",)
        rows.append(row)
    rows.append((f"{'error_rate':<16}",
                 f"{failed / max(attempted, 1):>12.4f}", f"{'ratio':<8}",
                 f"n={attempted}"))
    print_table("end-to-end (untraced; 'traced' = same metric under "
                "tracing; wall_p50_ms = latency with host steal left in, "
                "a diagnostic)", rows)
    print_table("host-speed probe (stdlib loop, ms)", [
        (label, f"median={p['median_ms']:.3f}", f"min={p['min_ms']:.3f}",
         f"reps={p['reps']}") for label, p in probes.items()
        if label != "steal"])
    print(f"  CPU steal over the run: {probes['steal']:.1%}")
    for error in errors[:10]:
        print(f"FAILED: {error}")
    diagnostics = {
        "probe": probes,
        "timings": {name: {"n": len(m["samples"]),
                           "quartiles": quartiles(m["samples"])}
                    for name, m in metrics.items()},
    }
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    # byte-code is written beside the sources, where Python keeps it on
    # a user's first run, so no measured process pays for compiling
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("perfbench: the program source does not compile",
              file=sys.stderr)
        return 2
    if len(CORES) > 1:
        os.sched_setaffinity(0, CORES[1:])
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace), work=work,
                  pins=json.loads(PINS.read_text()))
    try:
        return measure(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def measure(ctx: Context) -> int:
    ticks = cpu_ticks()
    probes: Dict[str, object] = {"start": host_probe()}
    segments = WORKLOADS[ctx.workload](ctx)
    probes["end"] = host_probe()
    probes["steal"] = steal_share(ticks, cpu_ticks())
    check = CHECKS[ctx.workload]
    errors = []
    attempted = failed = 0
    for segment in segments:
        for op in segment.ops:
            check(ctx, op)
            attempted += 1
            if "error" in op:
                failed += 1
                errors.append(f"{op.get('op', '?')}: {op['error']}")
    plain = [s for s in segments if not s.traced]
    metrics = end_to_end(ctx.workload, plain)
    traced_metrics = None
    result_metrics = {name: {"value": metrics[name]["value"], "unit": unit}
                      for name, unit in END_TO_END}
    checks: List[str] = []
    if ctx.trace:
        traced_metrics = end_to_end(
            ctx.workload, [s for s in segments if s.traced])
        view = layer_view(ctx.workload, segments)
        checks = view.checks
        values = per_layer(view, metrics, traced_metrics)
        result_metrics = {name: {"value": values[name], "unit": unit}
                          for name, unit in PER_LAYER.items()}
    report(ctx, metrics, attempted, failed, errors, probes, traced_metrics)
    if ctx.trace:
        print_table("per layer (traced operations, per operation)", [
            (f"{name:<28}", f"{m['value']:>14.4f}", m["unit"])
            for name, m in result_metrics.items()])
        for problem in checks:
            print(f"PREDICTION FAILED: {problem}")
    print(json.dumps({"correct": failed == 0 and not checks,
                      "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
