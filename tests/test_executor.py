"""Execution backend tests: spec round-trips, backend resolution, the
cross-backend golden-digest guarantee, per-unit lifecycle parity across
drivers, and process-backend failure handling (wedged workers,
persistently dying workers)."""

import hashlib
import os
import pickle
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.core import perfstats
from repro.core.executor import (
    BACKEND_NAMES,
    AsyncBackend,
    ExecutorConfigError,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    UnitSpec,
    WorkerOptions,
    create_backend,
    dataset_from_spec,
    ensure_picklable,
    register_dataset_builder,
    resolve_backend,
    spec_for,
)
from repro.core.coordinator import SweepCoordinator
from repro.core.faults import (
    CompositeBoundary,
    FaultBoundary,
    FlakyBoundary,
    LatencyBoundary,
    PoisonedQuestions,
)
from repro.core.resilience import CircuitBreaker, QuarantinePolicy
from repro.core.harness import run_table2
from repro.core.question import Category
from repro.core.runner import ParallelRunner, RetryPolicy, WorkUnit
from repro.models import WITH_CHOICE, build_model, build_zoo
from repro.models.providers import RemoteStubProvider, create_provider

#: Chained sha256 over the sorted checkpoint files of a full-zoo
#: ``run_table2`` (24 units), captured from the pre-backend thread path.
#: Every backend/spill combination must reproduce it byte-for-byte.
GOLDEN_TABLE2_DIGEST = (
    "0cc1564958013cfdc74622cfc12c3c559f8660e6ceadd87b606ec64ef7a39f9f"
)


def run_dir_digest(run_dir: Path) -> str:
    """Order-independent-input, byte-exact digest of a run's artifacts.

    The coordinator's commit log is excluded: it records *who* committed
    each unit (node names, sequence), which legitimately differs across
    fleet topologies while the checkpoints stay byte-identical.
    """
    digest = hashlib.sha256()
    for path in sorted(Path(run_dir).glob("*.jsonl")):
        if path.name == "commits.jsonl":
            continue
        digest.update(path.name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class TestBackendResolution:
    def test_default_is_serial_at_one_worker(self):
        assert isinstance(resolve_backend(None, 1), SerialBackend)

    def test_default_is_thread_at_many_workers(self):
        backend = resolve_backend(None, 4)
        assert isinstance(backend, ThreadBackend)
        assert backend.workers == 4

    def test_names_create_backends(self):
        assert isinstance(create_backend("serial", 2), SerialBackend)
        assert isinstance(create_backend("thread", 2), ThreadBackend)
        assert isinstance(create_backend("process", 2), ProcessBackend)
        assert isinstance(create_backend("async", 2), AsyncBackend)
        assert set(BACKEND_NAMES) == {
            "serial", "thread", "process", "async"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ExecutorConfigError, match="unknown backend"):
            create_backend("gpu", 2)

    def test_instances_pass_through(self):
        backend = ProcessBackend(workers=2)
        assert resolve_backend(backend, 8) is backend

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            ThreadBackend(0)
        with pytest.raises(ValueError):
            ProcessBackend(0)
        with pytest.raises(ValueError):
            AsyncBackend(0)

    def test_async_backend_option_validation(self):
        with pytest.raises(ValueError, match="rate_limit_per_s"):
            AsyncBackend(2, rate_limit_per_s=0.0)
        with pytest.raises(ValueError, match="hedge_after_s"):
            AsyncBackend(2, hedge_after_s=-1.0)
        with pytest.raises(ValueError, match="max_hedges"):
            AsyncBackend(2, hedge_after_s=0.5, max_hedges=0)

    def test_async_backend_builds_fresh_scheduler_per_run(self):
        backend = AsyncBackend(2, rate_limit_per_s=10.0,
                               hedge_after_s=0.5, max_hedges=2)
        first = backend.make_scheduler()
        second = backend.make_scheduler()
        assert first is not second
        assert backend.last_scheduler is second
        assert second.hedge is not None
        assert second.hedge.after_s == pytest.approx(0.5)
        assert second.hedge.max_hedges == 2

    def test_hard_deadline(self):
        backend = ProcessBackend(workers=1, hard_deadline_factor=2.0,
                                 hard_deadline_grace=0.5)
        assert backend.hard_deadline(None) is None
        assert backend.hard_deadline(1.0) == pytest.approx(2.5)


class TestUnitSpecs:
    def test_round_trip_registry_provider(self, chipvqa):
        unit = WorkUnit(model=build_model("gpt-4o"),
                        dataset=chipvqa.by_category(Category.DIGITAL),
                        setting=WITH_CHOICE, resolution_factor=2)
        spec = spec_for(unit)
        assert spec.provider_name == "gpt-4o"
        assert spec.provider_pickle is None
        assert spec.dataset_spec == (
            "chipvqa", "by_category", Category.DIGITAL.value)
        rebuilt = pickle.loads(pickle.dumps(spec)).build_unit()
        assert rebuilt.unit_id == unit.unit_id
        assert (rebuilt.provider.config_fingerprint()
                == unit.provider.config_fingerprint())
        assert [q.qid for q in rebuilt.dataset] == [
            q.qid for q in unit.dataset]

    def test_non_registry_provider_travels_as_pickle(self, chipvqa):
        wrapped = RemoteStubProvider(create_provider("gpt-4o"),
                                     transient_rate=0.5, seed=3)
        unit = WorkUnit(model=wrapped, dataset=chipvqa, setting=WITH_CHOICE)
        spec = spec_for(unit)
        assert spec.provider_name is None
        assert spec.provider_pickle is not None
        rebuilt = spec.build_unit()
        assert (rebuilt.provider.config_fingerprint()
                == wrapped.config_fingerprint())

    def test_dataset_without_build_spec_rejected(self, chipvqa):
        subset = chipvqa.by_category(Category.DIGITAL)
        subset.build_spec = None
        unit = WorkUnit(model=build_model("gpt-4o"), dataset=subset,
                        setting=WITH_CHOICE)
        with pytest.raises(ExecutorConfigError, match="build_spec"):
            spec_for(unit)

    def test_registered_builder_resolves(self, chipvqa):
        register_dataset_builder("digital-only",
                                 lambda: chipvqa.by_category(
                                     Category.DIGITAL))
        dataset = dataset_from_spec(("digital-only",))
        assert len(dataset) == len(chipvqa.by_category(Category.DIGITAL))

    def test_dataset_spec_errors(self):
        with pytest.raises(ExecutorConfigError, match="empty"):
            dataset_from_spec(())
        with pytest.raises(ExecutorConfigError, match="unknown dataset"):
            dataset_from_spec(("no-such-dataset",))
        with pytest.raises(ExecutorConfigError, match="malformed"):
            dataset_from_spec(("chipvqa", "by_category"))
        with pytest.raises(ExecutorConfigError, match="unknown dataset op"):
            dataset_from_spec(("chipvqa", "shuffle", "7"))

    def test_ensure_picklable_names_the_culprit(self):
        options = WorkerOptions(harness=lambda: None)  # lambdas don't pickle
        with pytest.raises(ExecutorConfigError, match="worker options"):
            ensure_picklable([], options)


class TestGoldenCrossBackend:
    """The tentpole acceptance pin: a full-zoo Table II sweep produces
    byte-identical artifacts on every backend, with and without the
    on-disk spill tier."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("spill", [False, True],
                             ids=["nospill", "spill"])
    def test_full_zoo_digest(self, backend, spill, tmp_path):
        run_dir = tmp_path / "run"
        spill_dir = tmp_path / "spill" if spill else None
        if spill:
            # cold in-memory caches, so the run actually exercises the
            # disk tier instead of hitting memory warmed by earlier tests
            perfstats.reset()
        runner = ParallelRunner(workers=4, run_dir=run_dir,
                                backend=backend, spill_dir=spill_dir)
        results = run_table2(build_zoo(), runner=runner)
        assert len(results) == 12
        assert runner.last_stats is not None
        assert runner.last_stats.completed == 24
        assert run_dir_digest(run_dir) == GOLDEN_TABLE2_DIGEST
        if spill:
            caches = runner.last_stats.perf_caches
            assert any(entry.get("spill_hits", 0)
                       + entry.get("spill_misses", 0) > 0
                       for entry in caches.values())

    def test_spill_warm_start_shares_work(self, tmp_path):
        """A second run over a warm spill directory serves perception
        work from disk — and still reproduces the golden digest."""
        spill_dir = tmp_path / "spill"
        perfstats.reset()
        first = ParallelRunner(workers=2, run_dir=tmp_path / "a",
                               backend="process", spill_dir=spill_dir)
        run_table2(["gpt-4o", "llava-7b"], runner=first)
        perfstats.reset()  # forget memory; disk is the only warm tier
        second = ParallelRunner(workers=2, run_dir=tmp_path / "b",
                                backend="process", spill_dir=spill_dir)
        run_table2(["gpt-4o", "llava-7b"], runner=second)
        assert (run_dir_digest(tmp_path / "a")
                == run_dir_digest(tmp_path / "b"))
        caches = second.last_stats.perf_caches
        assert sum(entry.get("spill_hits", 0)
                   for entry in caches.values()) > 0


class TestLifecycleParity:
    """Every driver runs a unit through the same lifecycle, so a unit's
    recorded counters do not depend on who executed it — including
    units that fail.  One unit exceeds its quarantine budget (failed),
    one is salvaged around a poisoned question, one is clean; flaky
    transient faults force retries that replay cached records."""

    FIELDS = ("status", "attempts", "retries", "cache_hits",
              "cache_misses", "quarantined", "error")

    @staticmethod
    def _units(chipvqa):
        subset = chipvqa.by_category(Category.DIGITAL)
        return [WorkUnit(model=build_model(name), dataset=subset,
                         setting=WITH_CHOICE)
                for name in ("gpt-4o", "llava-7b", "kosmos-2")]

    @staticmethod
    def _boundary(chipvqa, units, flaky):
        qids = [q.qid for q in chipvqa.by_category(Category.DIGITAL)]
        poison = PoisonedQuestions({
            f"{units[0].unit_id}::{qids[2]}",
            f"{units[0].unit_id}::{qids[6]}",
            f"{units[1].unit_id}::{qids[4]}",
        })
        if not flaky:
            return poison
        return CompositeBoundary(
            FlakyBoundary(rate=0.2, failures=1, seed=1), poison)

    @staticmethod
    def _run(driver, units, boundary):
        common = dict(fault_boundary=boundary,
                      quarantine=QuarantinePolicy(max_per_unit=1),
                      retry=RetryPolicy(max_attempts=20, base_delay=0.0))
        if driver == "nodes":
            runner = SweepCoordinator(nodes=2, **common)
        else:
            runner = ParallelRunner(
                workers=1 if driver == "serial" else 2,
                backend=driver, sleep=lambda d: None, **common)
        runner.run(units)
        return {unit.unit_id: tuple(
                    getattr(runner.last_stats.unit(unit.unit_id), field)
                    for field in TestLifecycleParity.FIELDS)
                for unit in units}

    @pytest.mark.parametrize("driver",
                             ["thread", "async", "nodes", "process"])
    def test_unit_counters_match_serial(self, chipvqa, driver):
        # FlakyBoundary holds a lock and does not pickle, so the process
        # backend is compared under the poison-only boundary
        flaky = driver != "process"
        units = self._units(chipvqa)
        expected = self._run(
            "serial", units, self._boundary(chipvqa, units, flaky))
        got = self._run(driver, units, self._boundary(chipvqa, units, flaky))
        assert got == expected
        poisoned = dict(zip(self.FIELDS, expected[units[0].unit_id]))
        assert poisoned["status"] == "failed"
        assert poisoned["quarantined"] == 1
        assert poisoned["cache_misses"] > 0
        assert "PermanentError" in poisoned["error"]
        salvaged = dict(zip(self.FIELDS, expected[units[1].unit_id]))
        assert salvaged["status"] == "completed"
        assert salvaged["quarantined"] == 1
        if flaky:
            # the failed unit retried and replayed cached records first
            assert poisoned["retries"] > 0
            assert poisoned["cache_hits"] > 0


class _KillEveryTime(FaultBoundary):
    """SIGKILL the current process at every crossing of one scripted
    key (a qid or ``unit_id::qid``) — a worker that can never survive
    this unit (no latch, unlike
    :class:`repro.core.faults.WorkerKillBoundary`)."""

    def __init__(self, kill_on: str):
        self.kill_on = kill_on

    def check(self, unit_id: str, qid: str) -> None:
        if qid == self.kill_on or f"{unit_id}::{qid}" == self.kill_on:
            os.kill(os.getpid(), signal.SIGKILL)


class _BreaksOnThirdSubmit(ProcessPoolExecutor):
    """A pool whose third ``submit`` finds it broken — the race where a
    worker dies after the backend's last ``wait`` returned."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submits = 0

    def submit(self, *args, **kwargs):
        self.submits += 1
        if self.submits == 3:
            raise BrokenProcessPool("worker died between wait and submit")
        return super().submit(*args, **kwargs)


class _SubmitRaceBackend(ProcessBackend):
    def _new_pool(self):
        return _BreaksOnThirdSubmit(max_workers=self.workers,
                                    mp_context=self._mp_context)


class _FirstSubmitBreaksBackend(ProcessBackend):
    """A backend whose first pool is found broken by its first
    ``submit`` (so that unit never ran); later pools work."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pools = 0

    def _new_pool(self):
        self.pools += 1
        pool = super()._new_pool()
        if self.pools == 1:
            def broken_submit(*args, **kwargs):
                raise BrokenProcessPool("worker died before the first submit")
            pool.submit = broken_submit
        return pool


class TestProcessFailureHandling:
    def test_wedged_worker_is_killed_and_timed_out(self, chipvqa):
        """A worker that wedges inside a model call (where cooperative
        deadline checks cannot run) is killed at the parent-side hard
        deadline and its unit recorded ``timed_out``."""
        subset = chipvqa.by_category(Category.DIGITAL)
        unit = WorkUnit(model=build_model("gpt-4o"), dataset=subset,
                        setting=WITH_CHOICE)
        runner = ParallelRunner(
            workers=1,
            backend=ProcessBackend(workers=1, hard_deadline_factor=2.0,
                                   hard_deadline_grace=0.2),
            fault_boundary=LatencyBoundary(per_question=60.0),
            deadline_s=0.1)
        outcome = runner.run([unit])
        stats = runner.last_stats.unit(unit.unit_id)
        assert stats.status == "timed_out"
        assert "hard deadline" in (stats.error or "")
        assert outcome.failures == {unit.unit_id: stats.error}

    def test_persistent_killer_convicted_without_collateral(self, chipvqa):
        """A unit whose worker dies on every attempt is recorded
        ``failed`` after ``max_respawns`` solo re-runs; its siblings
        complete normally."""
        subset = chipvqa.by_category(Category.DIGITAL)
        victim_qid = subset[0].qid
        units = [WorkUnit(model=build_model(name), dataset=subset,
                          setting=WITH_CHOICE)
                 for name in ("gpt-4o", "llava-7b", "kosmos-2")]
        runner = ParallelRunner(
            workers=2,
            backend=ProcessBackend(workers=2, max_respawns=2),
            fault_boundary=_KillEveryTime(
                f"{units[1].unit_id}::{victim_qid}"))
        outcome = runner.run(units)
        killer = runner.last_stats.unit(units[1].unit_id)
        assert killer.status == "failed"
        assert "WorkerCrash" in (killer.error or "")
        assert killer.worker_respawns == 3  # initial + 2 respawns, all died
        for survivor in (units[0], units[2]):
            assert runner.last_stats.unit(survivor.unit_id).status == \
                "completed"
            assert len(outcome.results[survivor.unit_id]) == len(subset)
        assert set(outcome.failures) == {units[1].unit_id}

    def test_pool_broken_at_submit_reruns_without_losing_the_run(
            self, chipvqa, tmp_path):
        """A ``BrokenProcessPool`` raised by ``submit`` itself takes the
        rebuild-and-rerun path: every unit completes with the serial
        run's checkpoint bytes, and the unit being submitted is not
        charged a worker death."""
        subset = chipvqa.by_category(Category.DIGITAL)
        units = [WorkUnit(model=build_model(name), dataset=subset,
                          setting=WITH_CHOICE)
                 for name in ("gpt-4o", "llava-7b", "kosmos-2")]
        ParallelRunner(run_dir=tmp_path / "serial").run(units)
        runner = ParallelRunner(workers=2,
                                backend=_SubmitRaceBackend(workers=2),
                                run_dir=tmp_path / "process")
        outcome = runner.run(units)
        assert not outcome.failures
        assert run_dir_digest(tmp_path / "process") == \
            run_dir_digest(tmp_path / "serial")
        assert runner.last_stats.unit(units[2].unit_id).worker_respawns == 0

    def test_resubmitted_breaker_trial_is_admitted_once(self, chipvqa,
                                                        tmp_path):
        """A unit that a broken pool refused at ``submit`` goes back to
        the pool without a second admission: as a half-open breaker's
        trial it completes with the serial run's checkpoint bytes and
        closes the circuit, instead of being fast-failed by its own
        second ask and holding the trial slot for the rest of the run."""
        unit = WorkUnit(model=build_model("gpt-4o"),
                        dataset=chipvqa.by_category(Category.DIGITAL),
                        setting=WITH_CHOICE)
        ParallelRunner(run_dir=tmp_path / "serial").run([unit])
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5,
                                 clock=lambda: now[0])
        breaker.record_failure("gpt-4o", "earlier outage")
        now[0] = 10.0
        assert breaker.state("gpt-4o") == "half_open"
        backend = _FirstSubmitBreaksBackend(workers=1)
        runner = ParallelRunner(workers=1, backend=backend, breaker=breaker,
                                run_dir=tmp_path / "process")
        outcome = runner.run([unit])
        assert backend.pools == 2
        assert not outcome.failures
        assert runner.last_stats.unit(unit.unit_id).status == "completed"
        assert run_dir_digest(tmp_path / "process") == \
            run_dir_digest(tmp_path / "serial")
        assert breaker.state("gpt-4o") == "closed"


class TestSpawnLock:
    """Every process pool in the process forks under one lock.  A fork
    inside another pool's launch window hands the second worker the
    first one's sentinel pipe, which hides the first worker's death
    until the second worker exits."""

    def test_concurrent_process_runs_never_overlap_forks(self, chipvqa,
                                                         monkeypatch):
        from multiprocessing import popen_fork

        launch = popen_fork.Popen._launch
        counts = {"active": 0, "peak": 0}
        lock = threading.Lock()

        def slow_launch(popen, process_obj):
            with lock:
                counts["active"] += 1
                counts["peak"] = max(counts["peak"], counts["active"])
            try:
                time.sleep(0.05)  # widen the window the race needs
                return launch(popen, process_obj)
            finally:
                with lock:
                    counts["active"] -= 1

        monkeypatch.setattr(popen_fork.Popen, "_launch", slow_launch)
        subset = chipvqa.by_category(Category.DIGITAL)
        barrier = threading.Barrier(2, timeout=60)
        failures = []

        def run(names):
            units = [WorkUnit(model=build_model(name), dataset=subset,
                              setting=WITH_CHOICE)
                     for name in names]
            runner = ParallelRunner(workers=2, backend="process")
            barrier.wait()
            failures.append(runner.run(units).failures)

        threads = [threading.Thread(target=run, args=(names,))
                   for names in (("gpt-4o", "llava-7b"),
                                 ("kosmos-2", "gpt-4o"))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert failures == [{}, {}]
        assert counts["peak"] == 1

    def test_worker_death_seen_while_another_pool_runs(self, chipvqa,
                                                      monkeypatch):
        """Run A's only worker dies at its first question; run B's
        worker, forked 50 ms later, works for about 2 s.  The parent
        sleeps after each fork, which widens the window in which B's
        fork could inherit A's sentinel pipe; A must still fail at
        once, not when B's worker exits."""
        real_fork = os.fork

        def slow_fork():
            pid = real_fork()
            if pid:
                time.sleep(0.2)
            return pid

        monkeypatch.setattr(os, "fork", slow_fork)
        subset = chipvqa.by_category(Category.DIGITAL)
        runs = {
            "a": (ParallelRunner(
                      workers=1,
                      backend=ProcessBackend(workers=1, max_respawns=0),
                      fault_boundary=_KillEveryTime(subset[0].qid)),
                  WorkUnit(model=build_model("gpt-4o"), dataset=subset,
                           setting=WITH_CHOICE)),
            "b": (ParallelRunner(
                      workers=1, backend="process",
                      fault_boundary=LatencyBoundary(per_question=0.05)),
                  WorkUnit(model=build_model("kosmos-2"), dataset=subset,
                           setting=WITH_CHOICE)),
        }
        walls = {}

        def run(key):
            runner, unit = runs[key]
            start = time.monotonic()
            runner.run([unit])
            walls[key] = time.monotonic() - start

        first = threading.Thread(target=run, args=("a",))
        second = threading.Thread(target=run, args=("b",))
        first.start()
        time.sleep(0.05)
        second.start()
        for thread in (first, second):
            thread.join(timeout=120)
            assert not thread.is_alive()
        statuses = {key: runner.last_stats.unit(unit.unit_id).status
                    for key, (runner, unit) in runs.items()}
        assert statuses == {"a": "failed", "b": "completed"}
        assert walls["a"] < walls["b"] / 2


class TestAsyncBackendSemantics:
    """The async backend preserves the runner's resilience semantics —
    retries, breaker fast-fails, deadlines, and resume all behave as
    they do on the in-process sync backends."""

    def _digital_unit(self, chipvqa, model="gpt-4o", **stub_kwargs):
        """One digital-category unit over a (possibly faulty) stub."""
        provider = build_model(model)
        if stub_kwargs:
            provider = RemoteStubProvider(create_provider(model),
                                          **stub_kwargs)
        return WorkUnit(model=provider,
                        dataset=chipvqa.by_category(Category.DIGITAL),
                        setting=WITH_CHOICE)

    def test_retry_recovers_transient_faults(self, chipvqa):
        unit = self._digital_unit(chipvqa, transient_rate=1.0,
                                  transient_failures=2)
        runner = ParallelRunner(workers=2, backend="async")
        runner.run([unit]).raise_on_failure()
        stats = runner.last_stats.unit(unit.unit_id)
        assert stats.status == "completed"
        assert stats.retries == 2

    def test_breaker_fast_fails_sibling_units(self, chipvqa):
        subset = chipvqa.by_category(Category.DIGITAL)
        broken = [WorkUnit(model=RemoteStubProvider(
                               create_provider("gpt-4o"),
                               permanent_rate=1.0),
                           dataset=subset, setting=WITH_CHOICE,
                           resolution_factor=factor)
                  for factor in (1, 2, 3)]
        healthy = WorkUnit(model=build_model("llava-7b"), dataset=subset,
                           setting=WITH_CHOICE)
        runner = ParallelRunner(workers=1, backend="async",
                                breaker=CircuitBreaker(
                                    failure_threshold=2))
        runner.run(broken + [healthy])
        statuses = [runner.last_stats.unit(u.unit_id).status
                    for u in broken]
        assert statuses.count("failed") == 2
        assert statuses.count("fast_failed") == 1
        assert runner.last_stats.unit(healthy.unit_id).status == \
            "completed"

    def test_deadline_times_out_unit(self, chipvqa):
        unit = self._digital_unit(chipvqa)
        runner = ParallelRunner(
            workers=1, backend="async", deadline_s=0.05,
            fault_boundary=LatencyBoundary(per_question=10.0))
        runner.run([unit])
        stats = runner.last_stats.unit(unit.unit_id)
        assert stats.status == "timed_out"

    def test_resume_skips_completed_units(self, chipvqa, tmp_path):
        subset = chipvqa.by_category(Category.DIGITAL)
        units = [WorkUnit(model=build_model(name), dataset=subset,
                          setting=WITH_CHOICE)
                 for name in ("gpt-4o", "llava-7b")]
        first = ParallelRunner(workers=2, backend="async",
                               run_dir=tmp_path)
        first.run(units).raise_on_failure()
        second = ParallelRunner(workers=2, backend="async",
                                run_dir=tmp_path)
        outcome = second.run(units)
        assert second.last_stats.resumed == 2
        assert second.last_stats.completed == 0
        assert len(outcome.results) == 2

    def test_scheduler_telemetry_counts_unit_calls(self, chipvqa):
        units = [WorkUnit(model=build_model(name),
                          dataset=chipvqa.by_category(Category.DIGITAL),
                          setting=WITH_CHOICE)
                 for name in ("gpt-4o", "llava-7b", "kosmos-2")]
        backend = AsyncBackend(4, rate_limit_per_s=1000.0)
        runner = ParallelRunner(workers=4, backend=backend)
        runner.run(units).raise_on_failure()
        assert backend.last_scheduler is not None
        assert backend.last_scheduler.calls == 3
        bucket = backend.last_scheduler.bucket_for("gpt-4o")
        assert bucket.granted >= 1

    def test_hedged_rate_limited_run_matches_plain_digest(self, tmp_path):
        """Hedging and client-side pacing shape latency only: a run
        under both knobs reproduces the golden Table II digest."""
        backend = AsyncBackend(8, rate_limit_per_s=1000.0,
                               hedge_after_s=5.0)
        runner = ParallelRunner(workers=8, run_dir=tmp_path / "run",
                                backend=backend)
        results = run_table2(build_zoo(), runner=runner)
        assert len(results) == 12
        assert run_dir_digest(tmp_path / "run") == GOLDEN_TABLE2_DIGEST
