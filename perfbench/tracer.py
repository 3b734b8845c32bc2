"""Layer spans recorded from outside the program.

The benchmark does not edit the program.  :func:`install` replaces the
public functions of each layer with wrappers at the place where their
callers look them up, and every wrapped call records one span: start,
end, self time, span id, parent span id, name and operation id.  Spans
stay in one flat in-memory ``array`` (seven int64 columns per span, no
per-span Python objects) until :meth:`Tracer.dump` writes them when the
process ends; :func:`load` and :func:`layer_totals` turn them back into
per-layer figures in the benchmark's parent process.

Self time is a span's duration minus the time its child spans cover.
It is computed when the span closes: each open span keeps a running sum
of its children's durations, and the frame travels in a ``contextvars``
variable, so children that the async backend runs on
``asyncio.to_thread`` workers still charge their parent.

Counts that are not span calls (bytes written, files read, units run)
are kept per operation in :attr:`Tracer.counts`; cache counters come
from ``perfstats.snapshot()`` deltas that the launcher takes around
each operation.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

#: Columns of one span record, in storage order.
COLUMNS = ("start", "end", "self", "id", "parent", "name", "op")
_WIDTH = len(COLUMNS)

#: Operation index of work done outside any timed operation.
SETUP_OP = "setup"

_FRAME: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_frame", default=None)
_OP: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_op", default=0)

Count = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Span store and wrapper factory for one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.ops: List[str] = [SETUP_OP]
        self.counts: Dict[str, Dict[str, int]] = {}
        self.snapshots: List[dict] = []
        self._name_index: Dict[str, int] = {}
        self._op_index: Dict[str, int] = {SETUP_OP: 0}
        self._data = array("q")
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # -- interning -----------------------------------------------------------

    def name_index(self, name: str) -> int:
        with self._lock:
            if name not in self._name_index:
                self._name_index[name] = len(self.names)
                self.names.append(name)
            return self._name_index[name]

    def op_index(self, op: str) -> int:
        with self._lock:
            if op not in self._op_index:
                self._op_index[op] = len(self.ops)
                self.ops.append(op)
            return self._op_index[op]

    # -- recording -----------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        """Add ``n`` to counter ``key`` of the current operation."""
        op = self.ops[_OP.get()]
        with self._lock:
            bucket = self.counts.setdefault(op, {})
            bucket[key] = bucket.get(key, 0) + n

    def wrap(self, name: str, fn: Callable, count: Optional[Count] = None,
             op: Optional[str] = None) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``count`` runs after a successful call with the arguments and
        result; ``op`` pins the span to a fixed operation id (request
        threads start with an empty context).
        """
        name_idx = self.name_index(name)
        op_idx = self.op_index(op) if op is not None else None
        record = self._data.extend
        ids = self._ids
        frame_var, op_var = _FRAME, _OP
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = frame_var.get()
            frame = [next(ids), 0]
            token = frame_var.set(frame)
            op_token = op_var.set(op_idx) if op_idx is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span_op = op_var.get()
                if op_token is not None:
                    op_var.reset(op_token)
                frame_var.reset(token)
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                record((start, end, duration - frame[1], frame[0],
                        parent[0] if parent is not None else 0,
                        name_idx, span_op))
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def counter(self, fn: Callable, count: Count) -> Callable:
        """``fn`` with ``count`` applied to each call, and no span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self, args, kwargs, result)
            return result

        return counted

    @contextmanager
    def operation(self, op: str, name: str = "op") -> Iterator[None]:
        """Run the body as operation ``op`` under one root span."""
        op_idx, name_idx = self.op_index(op), self.name_index(name)
        op_token = _OP.set(op_idx)
        frame = [next(self._ids), 0]
        token = _FRAME.set(frame)
        start = time.monotonic_ns()
        try:
            yield
        finally:
            end = time.monotonic_ns()
            _FRAME.reset(token)
            _OP.reset(op_token)
            self._data.extend((start, end, end - start - frame[1], frame[0],
                               0, name_idx, op_idx))

    def snapshot(self, label: str, counters: dict) -> None:
        """Keep one ``perfstats.snapshot()`` with its label and time."""
        self.snapshots.append({"label": label, "t_ns": time.monotonic_ns(),
                               "counters": counters})

    # -- output --------------------------------------------------------------

    def dump(self, directory: "Path | str") -> None:
        """Write the spans and the counters to ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "spans.bin", "wb") as handle:
            self._data.tofile(handle)
        meta = {"names": self.names, "ops": self.ops,
                "counts": self.counts, "snapshots": self.snapshots}
        (directory / "trace.json").write_text(json.dumps(meta),
                                              encoding="utf-8")


# -- installing wrappers ------------------------------------------------------


def _rebind(original: object, replacement: object) -> int:
    """Point every ``repro`` module binding of ``original`` at
    ``replacement`` — the wrapper must sit where each caller looks the
    name up, including modules that imported it by value."""
    rebound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    if not rebound:
        raise RuntimeError(f"no module binds {original!r}")
    return rebound


def _function(tracer: Tracer, module: str, attr: str, name: Optional[str],
              count: Optional[Count] = None) -> None:
    original = getattr(sys.modules[module], attr)
    if name is None:
        _rebind(original, tracer.counter(original, count))
    else:
        _rebind(original, tracer.wrap(name, original, count))


def _method(tracer: Tracer, owner: type, attr: str, name: Optional[str],
            count: Optional[Count] = None, op: Optional[str] = None) -> None:
    raw = inspect.getattr_static(owner, attr)
    is_static = isinstance(raw, staticmethod)
    fn = raw.__func__ if is_static else raw
    if name is None:
        wrapped = tracer.counter(fn, count)
    else:
        wrapped = tracer.wrap(name, fn, count, op=op)
    setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)


def _file_read(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.count("results_io.files_read")
    tracer.count("results_io.bytes_read", os.path.getsize(args[0]))


#: The five per-discipline generators ``core.benchmark`` assembles.
FAMILIES = (
    ("digital", "repro.digital", "generate_digital_questions"),
    ("analog", "repro.analog", "generate_analog_questions"),
    ("arch", "repro.arch", "generate_architecture_questions"),
    ("physical", "repro.physical", "generate_physical_questions"),
    ("manufacturing", "repro.manufacturing",
     "generate_manufacturing_questions"),
)

#: Modules :func:`install` wraps; importing them first lets every
#: binding exist before it is replaced.
MODULES = tuple(module for _, module, _ in FAMILIES) + (
    "repro.core.benchmark", "repro.core.databuild", "repro.core.engine",
    "repro.core.harness", "repro.core.perfstats", "repro.core.results_io",
    "repro.core.runcache", "repro.core.runner", "repro.core.sweep",
    "repro.agent", "repro.judge.llm_judge", "repro.models.encoder",
    "repro.models.providers", "repro.visual", "repro.service.jobs",
    "repro.service.server",
)


def install() -> Tracer:
    """Import :data:`MODULES`, wrap every layer boundary the benchmark
    reports, and return the tracer that records them."""
    for module in MODULES:
        importlib.import_module(module)
    from repro.agent.designer import ChipDesignerAgent
    from repro.core.engine import EvalEngine
    from repro.core.perfstats import SpillStore
    from repro.core.runner import ParallelRunner
    from repro.judge.llm_judge import HybridJudge
    from repro.models.encoder import VisualEncoder
    from repro.models.providers import LocalProvider
    from repro.service.jobs import JobQueue
    from repro.service.server import _Handler

    tracer = Tracer()
    for family, module, attr in FAMILIES:
        _function(tracer, module, attr, f"dataset.{family}")
    _function(tracer, "repro.core.benchmark", "build_chipvqa",
              "dataset.standard")
    _function(tracer, "repro.core.benchmark", "build_chipvqa_challenge",
              "dataset.challenge")
    _function(tracer, "repro.core.databuild", "build_shard",
              "databuild.shard")
    put = SpillStore.put

    def counted_put(store, key, value):
        # a put of an entry already on disk writes nothing
        if (store.root.name == "dataset_build"
                and not store.path_for(key).exists()):
            tracer.count("databuild.disk_writes")
        return put(store, key, value)

    SpillStore.put = counted_put
    _function(tracer, "repro.visual", "render", "visual.render")
    _function(tracer, "repro.visual", "content_key", "visual.content_key")
    _function(tracer, "repro.models.encoder", "visual_legibility",
              "visual.legibility")
    _method(tracer, VisualEncoder, "perceive", "encoder.perceive")
    _method(tracer, LocalProvider, "answer_batch", "provider.answer",
            lambda t, a, k, r: t.count("provider.questions", len(a[1])))
    _method(tracer, HybridJudge, "judge", "judge")
    _method(tracer, ChipDesignerAgent, "answer_all", "agent")
    _function(tracer, "repro.core.runcache", "question_key",
              "runcache.key")

    def runner_counts(t: Tracer, args: tuple, kwargs: dict, outcome) -> None:
        t.count("runner.units", len(args[1]))
        t.count("runner.resumed", outcome.stats.resumed)
        t.count("runner.retries", outcome.stats.total_retries)

    _method(tracer, ParallelRunner, "run", "runner", runner_counts)
    _function(tracer, "repro.core.sweep", "run_scaled_table2", "sweep")
    _method(tracer, EvalEngine, "canonical_payload", "engine.serialize")

    def payload_bytes(t: Tracer, args: tuple, kwargs: dict, result) -> None:
        if args[0].run_dir is not None:
            t.count("engine.checkpoint_bytes", len(args[2].encode("utf-8")))

    _method(tracer, EvalEngine, "checkpoint", "engine.checkpoint")
    for attr in ("checkpoint_bytes", "commit_payload"):
        _method(tracer, EvalEngine, attr, "engine.checkpoint", payload_bytes)
    _method(tracer, EvalEngine, "write_manifest", "engine.manifest")
    _method(tracer, EvalEngine, "prepare", "engine.prepare")
    _function(tracer, "repro.core.results_io", "verify_run",
              "results_io.verify")
    _function(tracer, "repro.core.results_io", "load", None, _file_read)
    _function(tracer, "repro.core.results_io", "verify_file", None,
              _file_read)
    for attr in ("do_GET", "do_POST"):
        _method(tracer, _Handler, attr, "service.http", op="http")
    _wrap_jobs(tracer, JobQueue)
    return tracer


def _wrap_jobs(tracer: Tracer, queue_cls: type) -> None:
    """Run each served job as its own operation (id = job id), with its
    queue wait counted and a counter snapshot taken when it ends."""
    from repro.core import perfstats

    execute = tracer.wrap("service.job", queue_cls._execute)

    def traced_execute(queue, job):
        token = _OP.set(tracer.op_index(job.job_id))
        try:
            tracer.count("service.queue_wait_ns",
                         int((time.monotonic() - job.created_s) * 1e9))
            return execute(queue, job)
        finally:
            _OP.reset(token)
            tracer.snapshot(job.job_id, perfstats.snapshot())

    queue_cls._execute = traced_execute


# -- reading spans back -------------------------------------------------------


def load(directory: "Path | str") -> dict:
    """Read what :meth:`Tracer.dump` wrote: the metadata plus a
    ``spans`` list of per-column arrays."""
    directory = Path(directory)
    meta = json.loads((directory / "trace.json").read_text("utf-8"))
    data = array("q")
    with open(directory / "spans.bin", "rb") as handle:
        data.frombytes(handle.read())
    meta["columns"] = {column: data[index::_WIDTH]
                       for index, column in enumerate(COLUMNS)}
    return meta


def layer_totals(trace: dict, ops: Optional[set] = None,
                 window: Optional[tuple] = None) -> Dict[str, List[int]]:
    """``{span name: [self ns, calls, inclusive ns]}`` over the spans of
    the operations named in ``ops`` and/or starting inside
    ``window = (start_ns, end_ns)``."""
    cols = trace["columns"]
    names, op_names = trace["names"], trace["ops"]
    totals: Dict[str, List[int]] = {}
    for start, end, self_ns, name, op in zip(
            cols["start"], cols["end"], cols["self"], cols["name"],
            cols["op"]):
        if ops is not None and op_names[op] not in ops:
            continue
        if window is not None and not window[0] <= start <= window[1]:
            continue
        entry = totals.setdefault(names[name], [0, 0, 0])
        entry[0] += self_ns
        entry[1] += 1
        entry[2] += end - start
    return totals


def op_roots(trace: dict, root: str) -> Dict[str, tuple]:
    """``{op id: (start_ns, end_ns)}`` of every ``root``-named span."""
    cols = trace["columns"]
    names, op_names = trace["names"], trace["ops"]
    if root not in names:
        return {}
    root_idx = names.index(root)
    return {op_names[op]: (start, end)
            for start, end, name, op in zip(cols["start"], cols["end"],
                                            cols["name"], cols["op"])
            if name == root_idx}


def self_time_by_op(trace: dict) -> Dict[str, int]:
    """Sum of span self times per operation id."""
    cols = trace["columns"]
    op_names = trace["ops"]
    sums: Dict[str, int] = {}
    for self_ns, op in zip(cols["self"], cols["op"]):
        key = op_names[op]
        sums[key] = sums.get(key, 0) + self_ns
    return sums


def counter_delta(before: dict, after: dict) -> Dict[str, Dict[str, int]]:
    """Counter movement between two ``perfstats.snapshot()`` results
    (``size`` is a level and is left out)."""
    moved: Dict[str, Dict[str, int]] = {}
    for cache, counters in after.items():
        base = before.get(cache, {})
        moved[cache] = {key: value - base.get(key, 0)
                        for key, value in counters.items() if key != "size"}
    return moved
