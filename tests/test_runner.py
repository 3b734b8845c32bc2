"""Tests for the parallel evaluation runner: determinism, fault
tolerance (retry/backoff, permanent-failure isolation) and
checkpoint/resume."""

import json
import sys
import threading
from pathlib import Path

import pytest

from repro.core import perfstats, results_io
from repro.core.faults import (
    FlakyBoundary,
    LatencyBoundary,
    PermanentError,
    RecordingBoundary,
    ScriptedFaults,
    TransientModelError,
)
from repro.core.harness import EvaluationHarness, run_table2
from repro.core.question import Category
from repro.core.resilience import CircuitBreaker
from repro.core.runcache import RunCache
from repro.core.runner import (
    ParallelRunner,
    RetryPolicy,
    WorkUnit,
    read_manifest,
)
from repro.models import WITH_CHOICE, build_model, build_zoo


def _units(chipvqa, model_names=("gpt-4o", "llava-7b", "kosmos-2"),
           category=Category.DIGITAL):
    subset = chipvqa.by_category(category)
    return [WorkUnit(model=build_model(name), dataset=subset,
                     setting=WITH_CHOICE) for name in model_names]


def _checkpoint_bytes(run_dir):
    return {p.name: p.read_bytes()
            for p in sorted(Path(run_dir).glob("*.jsonl"))}


class TestWorkUnit:
    def test_unit_id_is_filesystem_safe(self, chipvqa):
        unit = WorkUnit(model=build_model("gpt-4o"),
                        dataset=chipvqa.by_category(Category.DIGITAL),
                        setting=WITH_CHOICE, resolution_factor=16)
        assert "/" not in unit.unit_id
        assert unit.unit_id.endswith("__r16")
        assert "gpt-4o" in unit.unit_id

    def test_duplicate_unit_ids_rejected(self, chipvqa):
        units = _units(chipvqa, ("gpt-4o", "gpt-4o"))
        with pytest.raises(ValueError, match="duplicate"):
            ParallelRunner().run(units)


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1,
                             multiplier=2.0, max_delay=0.5)
        delays = [policy.delay(a) for a in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)


class TestDeterminism:
    def test_serial_and_parallel_artifacts_byte_identical(self, chipvqa,
                                                          tmp_path):
        units = _units(chipvqa)
        serial = ParallelRunner(workers=1, run_dir=tmp_path / "serial")
        parallel = ParallelRunner(workers=8, run_dir=tmp_path / "parallel")
        out_serial = serial.run(units)
        out_parallel = parallel.run(units)
        assert not out_serial.failures and not out_parallel.failures
        bytes_serial = _checkpoint_bytes(tmp_path / "serial")
        bytes_parallel = _checkpoint_bytes(tmp_path / "parallel")
        assert bytes_serial.keys() == bytes_parallel.keys()
        assert bytes_serial == bytes_parallel

    def test_full_zoo_table2_parallel_matches_serial(self, tmp_path):
        """Acceptance: the 12-model sweep at workers=8 writes JSONL
        byte-identical to the serial path."""
        zoo = build_zoo()
        serial = run_table2(zoo, workers=1, run_dir=tmp_path / "w1")
        parallel = run_table2(zoo, workers=8, run_dir=tmp_path / "w8")
        assert _checkpoint_bytes(tmp_path / "w1") == \
            _checkpoint_bytes(tmp_path / "w8")
        for name, settings in serial.items():
            for setting, result in settings.items():
                assert parallel[name][setting].pass_at_1() == \
                    result.pass_at_1()

    def test_results_returned_in_unit_order(self, chipvqa):
        units = _units(chipvqa)
        outcome = ParallelRunner(workers=4).run(units)
        assert list(outcome.results) == [u.unit_id for u in units]


class TestFaultInjection:
    def test_transient_faults_retried_to_clean_artifacts(self, chipvqa,
                                                         tmp_path):
        """A run with injected transient failures converges to artifacts
        byte-identical to a fault-free run."""
        units = _units(chipvqa)
        clean = ParallelRunner(workers=2, run_dir=tmp_path / "clean")
        assert not clean.run(units).failures

        qids = [q.qid for q in chipvqa.by_category(Category.DIGITAL)]
        faults = ScriptedFaults({
            qids[0]: [TransientModelError("rate limit")],
            qids[5]: [TransientModelError("timeout"),
                      TransientModelError("timeout again")],
        })
        faulty = ParallelRunner(
            workers=2, run_dir=tmp_path / "faulty", fault_boundary=faults,
            retry=RetryPolicy(max_attempts=4, base_delay=0.001),
            sleep=lambda d: None)
        outcome = faulty.run(units)
        assert not outcome.failures
        assert faults.exhausted()
        assert _checkpoint_bytes(tmp_path / "clean") == \
            _checkpoint_bytes(tmp_path / "faulty")
        # each scripted fault hit every unit once (same qids per unit)
        assert outcome.stats.total_retries > 0

    def test_backoff_delays_are_exponential(self, chipvqa):
        recorded = []
        qid = chipvqa.by_category(Category.DIGITAL)[0].qid
        faults = ScriptedFaults({qid: [TransientModelError("1"),
                                       TransientModelError("2"),
                                       TransientModelError("3")]})
        runner = ParallelRunner(
            fault_boundary=faults,
            retry=RetryPolicy(max_attempts=5, base_delay=0.1,
                              multiplier=2.0, max_delay=10.0),
            sleep=recorded.append)
        outcome = runner.run(_units(chipvqa, ("gpt-4o",)))
        assert not outcome.failures
        assert recorded == [pytest.approx(0.1), pytest.approx(0.2),
                            pytest.approx(0.4)]

    def test_permanent_error_isolated_to_one_unit(self, chipvqa, tmp_path):
        units = _units(chipvqa)
        bad_qid = chipvqa.by_category(Category.DIGITAL)[3].qid
        # unit-scoped script: only the llava-7b unit is poisoned
        bad_unit = units[1].unit_id
        faults = ScriptedFaults({
            f"{bad_unit}::{bad_qid}": [PermanentError("content filter")],
        })
        runner = ParallelRunner(workers=2, run_dir=tmp_path,
                                fault_boundary=faults, sleep=lambda d: None)
        outcome = runner.run(units)
        assert set(outcome.failures) == {bad_unit}
        assert "PermanentError" in outcome.failures[bad_unit]
        # the two healthy units completed and checkpointed
        assert set(outcome.results) == {units[0].unit_id, units[2].unit_id}
        assert len(_checkpoint_bytes(tmp_path)) == 2
        with pytest.raises(RuntimeError, match="failed"):
            outcome.raise_on_failure()
        manifest = read_manifest(tmp_path)
        statuses = {u["unit_id"]: u["status"] for u in manifest["units"]}
        assert statuses[bad_unit] == "failed"
        assert sorted(statuses.values()) == ["completed", "completed",
                                             "failed"]

    def test_transient_exhaustion_fails_unit(self, chipvqa):
        qid = chipvqa.by_category(Category.DIGITAL)[0].qid
        faults = ScriptedFaults({
            qid: [TransientModelError(str(i)) for i in range(10)]})
        runner = ParallelRunner(fault_boundary=faults,
                                retry=RetryPolicy(max_attempts=3,
                                                  base_delay=0.001),
                                sleep=lambda d: None)
        outcome = runner.run(_units(chipvqa, ("gpt-4o",)))
        assert len(outcome.failures) == 1
        assert "persisted through 3 attempts" in next(
            iter(outcome.failures.values()))

    def test_flaky_boundary_converges_to_clean_run(self, chipvqa, tmp_path):
        """Pseudo-random flakes across many questions still converge."""
        units = _units(chipvqa)
        clean = ParallelRunner(workers=4, run_dir=tmp_path / "clean")
        clean.run(units)
        flaky = ParallelRunner(
            workers=4, run_dir=tmp_path / "flaky",
            fault_boundary=FlakyBoundary(rate=0.08, failures=1, seed=11),
            retry=RetryPolicy(max_attempts=20, base_delay=0.0),
            sleep=lambda d: None)
        outcome = flaky.run(units)
        assert not outcome.failures
        assert outcome.stats.total_retries > 0
        assert outcome.stats.cache_hits > 0  # retries reused cached records
        assert _checkpoint_bytes(tmp_path / "clean") == \
            _checkpoint_bytes(tmp_path / "flaky")


class TestCheckpointResume:
    def test_kill_and_resume_skips_finished_units(self, chipvqa, tmp_path):
        """Truncating one checkpoint mid-run simulates a kill; resume
        re-evaluates only the damaged unit."""
        units = _units(chipvqa)
        first = ParallelRunner(workers=1, run_dir=tmp_path)
        first.run(units)
        reference = _checkpoint_bytes(tmp_path)
        assert len(reference) == 3

        # tear the middle unit's checkpoint as an interrupted write would
        victim = tmp_path / f"{units[1].unit_id}.jsonl"
        torn = victim.read_text(encoding="utf-8").splitlines()[:-4]
        victim.write_text("\n".join(torn) + "\n", encoding="utf-8")

        spy = RecordingBoundary()
        resumed = ParallelRunner(workers=2, run_dir=tmp_path,
                                 fault_boundary=spy)
        outcome = resumed.run(units)
        assert not outcome.failures
        # only the damaged unit crossed the evaluation boundary
        assert spy.units_evaluated() == [units[1].unit_id]
        assert set(outcome.results) == {u.unit_id for u in units}
        assert _checkpoint_bytes(tmp_path) == reference
        manifest = read_manifest(tmp_path)
        statuses = {u["unit_id"]: u["status"] for u in manifest["units"]}
        assert statuses[units[0].unit_id] == "resumed"
        assert statuses[units[1].unit_id] == "completed"
        assert statuses[units[2].unit_id] == "resumed"

    def test_resume_rejects_mismatched_checkpoint(self, chipvqa, tmp_path):
        """A checkpoint for the same unit id but different content
        (wrong record count) is re-evaluated, not trusted."""
        units = _units(chipvqa, ("gpt-4o",))
        ParallelRunner(run_dir=tmp_path).run(units)
        path = tmp_path / f"{units[0].unit_id}.jsonl"
        # rewrite with one record dropped and the manifest count patched
        lines = path.read_text(encoding="utf-8").splitlines()
        head = json.loads(lines[0])
        head["records"] -= 1
        path.write_text(
            "\n".join([json.dumps(head, sort_keys=True)] + lines[1:-1]) + "\n",
            encoding="utf-8")
        spy = RecordingBoundary()
        outcome = ParallelRunner(run_dir=tmp_path,
                                 fault_boundary=spy).run(units)
        assert spy.units_evaluated() == [units[0].unit_id]
        assert not outcome.failures

    def test_no_resume_flag_reevaluates(self, chipvqa, tmp_path):
        units = _units(chipvqa, ("gpt-4o",))
        ParallelRunner(run_dir=tmp_path).run(units)
        spy = RecordingBoundary()
        ParallelRunner(run_dir=tmp_path, resume=False,
                       fault_boundary=spy).run(units)
        assert spy.units_evaluated() == [units[0].unit_id]

    def test_resumed_results_equal_fresh_results(self, chipvqa, tmp_path):
        units = _units(chipvqa)
        fresh = ParallelRunner(workers=2, run_dir=tmp_path).run(units)
        again = ParallelRunner(workers=2, run_dir=tmp_path).run(units)
        assert again.stats.resumed == 3
        for unit in units:
            assert again.result_for(unit).pass_at_1() == \
                fresh.result_for(unit).pass_at_1()


class TestTelemetry:
    def test_run_stats_in_manifest(self, chipvqa, tmp_path):
        units = _units(chipvqa)
        outcome = ParallelRunner(workers=2, run_dir=tmp_path).run(units)
        manifest = read_manifest(tmp_path)
        totals = manifest["totals"]
        assert totals["units"] == 3
        assert totals["completed"] == 3
        assert totals["failed"] == 0
        assert totals["cache_misses"] == sum(
            len(u.dataset) for u in units)
        assert totals["wall_time_s"] > 0
        per_unit = manifest["units"]
        assert all(u["wall_time_s"] > 0 for u in per_unit)
        assert all(u["attempts"] == 1 for u in per_unit)
        # queue depth counts down as units start
        assert sorted(u["queue_depth"] for u in per_unit) == [0, 1, 2]
        assert outcome.stats.as_dict()["completed"] == 3

    def test_in_memory_telemetry_attached_but_not_checkpointed(
            self, chipvqa, tmp_path):
        units = _units(chipvqa, ("gpt-4o",))
        outcome = ParallelRunner(run_dir=tmp_path).run(units)
        result = outcome.result_for(units[0])
        assert result.telemetry is not None
        assert result.telemetry["attempts"] == 1.0
        assert result.telemetry["wall_time_s"] > 0
        # the checkpoint on disk is canonical: no telemetry block
        reloaded = results_io.load(tmp_path / f"{units[0].unit_id}.jsonl")
        assert reloaded.telemetry is None

    def test_perf_cache_counters_in_manifest_and_telemetry(
            self, chipvqa, tmp_path):
        """The perception-substrate cache counters flow into the run
        manifest totals and into each result's telemetry block."""
        units = _units(chipvqa, ("gpt-4o", "llava-7b"))
        outcome = ParallelRunner(workers=2, run_dir=tmp_path).run(units)
        perf = outcome.stats.perf_caches
        assert {"render", "legibility", "perception", "dataset"} <= set(perf)
        for name, counters in perf.items():
            if name == perfstats.STAGE_TIMINGS_NAME:
                # stage wall clocks ride along in ns/calls shape
                assert any(key.endswith("_ns") for key in counters)
                continue
            assert {"hits", "misses", "evictions", "size"} <= set(counters)
        manifest = read_manifest(tmp_path)
        assert manifest["totals"]["perf_caches"] == perf
        result = outcome.result_for(units[0])
        assert "perf_cache_hits" in result.telemetry
        assert "perf_cache_misses" in result.telemetry
        # analytic perception still consults the perception cache
        total = (result.telemetry["perf_cache_hits"]
                 + result.telemetry["perf_cache_misses"])
        assert total > 0

    def test_cache_shared_across_identical_sweeps(self, chipvqa):
        cache = RunCache()
        units = _units(chipvqa, ("gpt-4o", "llava-7b"))
        runner = ParallelRunner(cache=cache)
        first = runner.run(units)
        second = runner.run(units)
        n = sum(len(u.dataset) for u in units)
        assert first.stats.cache_hits == 0
        assert second.stats.cache_hits == n
        assert second.stats.cache_misses == 0
        assert second.stats.cache_hit_rate() == 1.0


class _Clock:
    """A manually advanced engine clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _count_manifest_writes(runner):
    """Record, per ``write_manifest`` call, the manifest it wrote."""
    engine = runner.engine
    write = engine.write_manifest
    written = []

    def counted(units, stats, extra=None):
        write(units, stats, extra)
        written.append(read_manifest(engine.run_dir))

    engine.write_manifest = counted
    return written


class TestManifestWritePolicy:
    """The progress manifest is written at most once a second of the
    engine's clock while units complete, at once on an admission
    refusal, and always at ``finalize``."""

    MODELS = ("gpt-4o", "llava-7b", "kosmos-2", "fuyu-8b")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_write_when_the_clock_stands_still(self, chipvqa, tmp_path,
                                                   workers):
        units = _units(chipvqa, self.MODELS)
        runner = ParallelRunner(workers=workers, run_dir=tmp_path,
                                clock=_Clock())
        written = _count_manifest_writes(runner)
        runner.run(units)
        assert len(written) == 1
        assert written[0]["totals"]["completed"] == 4

    def test_writes_at_most_once_per_elapsed_second(self, chipvqa,
                                                    tmp_path):
        clock = _Clock()

        def advance(unit, payload):
            clock.now += 0.6

        units = _units(chipvqa, self.MODELS)
        runner = ParallelRunner(run_dir=tmp_path, clock=clock,
                                on_unit_payload=advance)
        written = _count_manifest_writes(runner)
        runner.run(units)
        before_finalize = len(written) - 1
        assert 1 <= before_finalize <= int(clock.now)
        # each progress write shows the units completed so far
        assert [m["totals"]["completed"] for m in written] == [2, 4, 4]

    def test_concurrent_completions_claim_one_write(self, chipvqa,
                                                    tmp_path):
        """Eight pool threads on a smaller host complete at once,
        switching often: the one interval that elapses yields exactly
        one progress write."""
        readings = iter([0.0])  # the run starts at 0, then reads 5 s
        units = _units(chipvqa, ("gpt-4o", "llava-7b", "llava-13b",
                                 "llava-34b", "kosmos-2", "fuyu-8b",
                                 "paligemma", "neva-22b"))
        barrier = threading.Barrier(len(units), timeout=60)
        runner = ParallelRunner(workers=len(units), run_dir=tmp_path,
                                clock=lambda: next(readings, 5.0),
                                on_unit_payload=lambda *_: barrier.wait())
        written = _count_manifest_writes(runner)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.run(units)
        finally:
            sys.setswitchinterval(interval)
        assert len(written) == 2
        assert written[-1]["totals"]["completed"] == 8

    def test_admission_refusal_writes_at_once(self, chipvqa, tmp_path):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure("gpt-4o", "provider down")
        units = [WorkUnit(model=build_model("gpt-4o"),
                          dataset=chipvqa.by_category(category),
                          setting=WITH_CHOICE)
                 for category in (Category.DIGITAL, Category.ANALOG)]
        units += _units(chipvqa, ("llava-7b",))
        runner = ParallelRunner(run_dir=tmp_path, clock=_Clock(),
                                breaker=breaker)
        written = _count_manifest_writes(runner)
        runner.run(units)
        assert [m["totals"]["fast_failed"] for m in written] == [1, 2, 2]
        assert written[-1]["totals"]["completed"] == 1

    def test_final_manifest_keeps_its_shape(self, chipvqa, tmp_path):
        ParallelRunner(run_dir=tmp_path, clock=_Clock()).run(
            _units(chipvqa, self.MODELS))
        manifest = read_manifest(tmp_path)
        assert set(manifest) == {"format_version", "units", "totals"}
        assert set(manifest["totals"]) == {
            "units", "completed", "failed", "resumed", "fast_failed",
            "timed_out", "quarantined", "corrupt_checkpoints",
            "stale_checkpoints", "retries", "cache_hits", "cache_misses",
            "cache_hit_rate", "wall_time_s", "perf_caches"}
        assert [set(unit) for unit in manifest["units"]] == [{
            "unit_id", "status", "attempts", "retries", "wall_time_s",
            "cache_hits", "cache_misses", "queue_depth", "quarantined",
            "corrupt_checkpoints", "stale_checkpoints", "worker_respawns",
            "node", "steals", "error", "path", "provider",
            "provider_fingerprint"}] * 4


@pytest.mark.slow
class TestLatencyScaling:
    def test_workers_overlap_model_latency(self, chipvqa):
        """With per-call latency dominating (the real API regime), eight
        workers beat serial by well over 2x."""
        import time

        units = _units(chipvqa, ("gpt-4o", "llava-7b", "llava-13b",
                                 "kosmos-2", "paligemma", "fuyu-8b"))
        delay = 0.002

        def timed(workers):
            runner = ParallelRunner(
                workers=workers,
                fault_boundary=LatencyBoundary(per_question=delay))
            start = time.perf_counter()
            assert not runner.run(units).failures
            return time.perf_counter() - start

        serial = timed(1)
        parallel = timed(8)
        assert serial / parallel >= 2.0
