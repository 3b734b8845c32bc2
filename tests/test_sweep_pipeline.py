"""Tests for the pipelined sweep path: bounded-lookahead prefetch,
serialize-once byte plumbing, and the per-stage hot-path timers.

``tests/test_pipeline.py`` covers :mod:`repro.arch.pipeline` (the model
perception pipeline); this module covers :mod:`repro.core.pipeline`,
the sweep-side shard prefetcher, plus the byte paths it feeds.
"""

import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import databuild, perfstats
from repro.core.coordinator import (CommitLog, ResultStore,
                                    SweepCoordinator, audit_commit_log)
from repro.core.engine import payload_digest
from repro.core.pipeline import Prefetcher, ShardPrefetcher
from repro.core.runner import WorkUnit
from repro.core.sweep import run_scaled_table2


@pytest.fixture(autouse=True)
def _fresh_perfstats():
    """Stage timers are process-global; isolate them per test."""
    perfstats.reset()
    yield
    perfstats.reset()


@pytest.fixture(autouse=True)
def _pristine_provider_registry():
    """Undo sample-salted provider registrations after each test."""
    from repro.models.providers import default_registry

    before = dict(default_registry._factories)
    yield
    default_registry._factories.clear()
    default_registry._factories.update(before)


# -- Prefetcher: ordering and backpressure -----------------------------------


class TestPrefetcher:
    @settings(deadline=None, max_examples=20)
    @given(
        delays=st.lists(st.sampled_from([0.0, 0.001, 0.004]),
                        min_size=0, max_size=10),
        lookahead=st.integers(min_value=1, max_value=4),
        workers=st.integers(min_value=1, max_value=4),
    )
    def test_in_order_delivery_whatever_the_completion_order(
            self, delays, lookahead, workers):
        """Builders racing with random latencies never reorder what the
        consumer observes, and residency never exceeds the lookahead."""

        def build(index):
            time.sleep(delays[index])
            return index * index

        with Prefetcher(build, len(delays), lookahead=lookahead,
                        workers=workers) as pf:
            got = [pf.get(i) for i in range(len(delays))]
        assert got == [i * i for i in range(len(delays))]
        assert pf.max_resident <= lookahead

    def test_backpressure_parks_builders_on_a_slow_consumer(self):
        built = []

        def build(index):
            built.append(index)
            return index

        with Prefetcher(build, 10, lookahead=2, workers=4) as pf:
            for i in range(10):
                assert pf.get(i) == i
                time.sleep(0.002)  # evaluation is the slow stage
                # instant builders against a slow consumer: the budget,
                # not build speed, bounds how far they run ahead
                assert pf.max_resident <= 2
        assert sorted(built) == list(range(10))

    def test_build_error_is_reraised_from_get(self):
        def build(index):
            if index == 2:
                raise RuntimeError("shard 2 is cursed")
            return index

        with Prefetcher(build, 4, lookahead=2) as pf:
            assert pf.get(0) == 0
            assert pf.get(1) == 1
            with pytest.raises(RuntimeError, match="cursed"):
                pf.get(2)
            assert pf.get(3) == 3

    def test_get_before_start_raises(self):
        pf = Prefetcher(lambda i: i, 3, lookahead=1)
        with pytest.raises(RuntimeError, match="not started"):
            pf.get(0)

    def test_get_after_close_raises_for_unproduced_items(self):
        gate = threading.Event()
        pf = Prefetcher(lambda i: gate.wait(1) and i, 4,
                        lookahead=1).start()
        pf.close()
        gate.set()
        with pytest.raises(RuntimeError, match="closed"):
            pf.get(3)

    def test_close_is_idempotent_with_builds_in_flight(self):
        release = threading.Event()

        def build(index):
            release.wait(5)
            return index

        pf = Prefetcher(build, 6, lookahead=3, workers=2).start()
        release.set()
        pf.close()
        pf.close()  # second close is a no-op, not an over-release

    def test_validation(self):
        with pytest.raises(ValueError, match="lookahead"):
            Prefetcher(lambda i: i, 3, lookahead=0)
        with pytest.raises(ValueError, match="count"):
            Prefetcher(lambda i: i, -1, lookahead=1)
        with pytest.raises(ValueError, match="workers"):
            Prefetcher(lambda i: i, 3, lookahead=1, workers=0)

    def test_workers_clamped_to_lookahead(self):
        pf = Prefetcher(lambda i: i, 3, lookahead=2, workers=8)
        assert pf.workers == 2

    def test_zero_count_starts_and_closes_cleanly(self):
        with Prefetcher(lambda i: i, 0, lookahead=2) as pf:
            pass
        assert pf.max_resident == 0

    def test_blocked_get_time_lands_in_build_wait_stage(self):
        with Prefetcher(lambda i: time.sleep(0.01) or i, 2,
                        lookahead=1) as pf:
            pf.get(0)
            pf.get(1)
        stages = perfstats.stage_snapshot()
        assert stages["build_wait_calls"] == 2
        assert stages["build_wait_ns"] > 0


class TestShardPrefetcher:
    def test_delivers_the_same_shards_as_the_serial_loop(self):
        streams = {
            "with_choice": databuild.StreamingDataset(
                120, 0, shard_size=40),
            "no_choice": databuild.StreamingDataset(
                120, 0, shard_size=40, challenge=True),
        }
        with ShardPrefetcher(streams, lookahead=2) as pf:
            for index in range(streams["with_choice"].num_shards):
                shards = pf.get(index)
                for setting, stream in streams.items():
                    expected = stream.shard(index)
                    assert [q.qid for q in shards[setting]] \
                        == [q.qid for q in expected]
        assert all(not q.is_multiple_choice
                   for q in shards["no_choice"])

    def test_validation(self):
        with pytest.raises(ValueError, match="no streams"):
            ShardPrefetcher({}, lookahead=1)
        with pytest.raises(ValueError, match="disagree"):
            ShardPrefetcher({
                "a": databuild.StreamingDataset(120, 0, shard_size=40),
                "b": databuild.StreamingDataset(120, 0, shard_size=60),
            }, lookahead=1)
        with pytest.raises(ValueError, match="unknown prefetch builder"):
            ShardPrefetcher(
                {"a": databuild.StreamingDataset(120, 0, shard_size=40)},
                lookahead=1, builder="fork-bomb")

    def test_process_builder_delivers_the_same_shards(self):
        streams = {
            "with_choice": databuild.StreamingDataset(
                120, 0, shard_size=40),
            "no_choice": databuild.StreamingDataset(
                120, 0, shard_size=40, challenge=True),
        }
        baseline = {
            setting: [
                [q.qid for q in stream.shard(i)]
                for i in range(stream.num_shards)
            ]
            for setting, stream in streams.items()
        }
        fresh = {
            "with_choice": databuild.StreamingDataset(
                120, 0, shard_size=40),
            "no_choice": databuild.StreamingDataset(
                120, 0, shard_size=40, challenge=True),
        }
        with ShardPrefetcher(fresh, lookahead=2,
                             builder="process") as pf:
            assert not pf.yield_to_consumer  # offloaded CPU: no gating
            for index in range(fresh["with_choice"].num_shards):
                shards = pf.get(index)
                for setting in streams:
                    assert [q.qid for q in shards[setting]] \
                        == baseline[setting][index]

    def test_thread_builder_gates_on_one_core_only(self):
        from repro.core import pipeline

        stream = {"a": databuild.StreamingDataset(120, 0, shard_size=40)}
        pf = ShardPrefetcher(stream, lookahead=2, workers=2)
        expect = pipeline._cpu_cores() == 1
        assert pf.yield_to_consumer is expect
        if expect:
            assert pf.workers == 1  # clamped: one builder keeps phase
        pf = ShardPrefetcher(stream, lookahead=2, workers=2,
                             yield_to_consumer=False)
        assert not pf.yield_to_consumer
        assert pf.workers == 2


class TestIdleWindowGating:
    def test_gated_builder_completes_without_idle_windows(self):
        # a consumer that never waits off-CPU must not stall the pool:
        # the starved flag (consumer blocked in get) and the bounded
        # wait both break the park
        with Prefetcher(lambda i: i * i, 6, lookahead=2,
                        yield_to_consumer=True) as pf:
            assert [pf.get(i) for i in range(6)] == [
                i * i for i in range(6)]

    def test_gated_builder_starts_inside_an_idle_window(self):
        started = threading.Event()

        def build(index):
            started.set()
            return index

        pf = Prefetcher(build, 1, lookahead=1, yield_to_consumer=True)
        pf.YIELD_MAX_WAIT_S = 5.0  # force the gate to matter
        with pf:
            assert not started.wait(0.1)  # parked: no window yet
            with perfstats.idle_window():
                assert started.wait(1.0)  # window opens -> build runs
            pf.get(0)

    def test_idle_window_records_transport_wait_stage(self):
        assert not perfstats.idle_event().is_set()
        with perfstats.idle_window():
            assert perfstats.idle_event().is_set()
            time.sleep(0.005)
        assert not perfstats.idle_event().is_set()
        stages = perfstats.stage_snapshot()
        assert stages["transport_wait_calls"] == 1
        assert stages["transport_wait_ns"] >= 5_000_000


# -- serialize-once byte path ------------------------------------------------


class TestSerializeOnce:
    def test_append_commit_hashes_the_given_bytes_once(self, tmp_path):
        log = CommitLog(tmp_path / "commits.jsonl")
        payload = '{"answer": 42}\n'
        status, digest = log.append_commit("unit-a", payload, "n0")
        assert status == "committed"
        assert digest == payload_digest(payload)
        # the chain is built over exactly those bytes
        entries, _, head = audit_commit_log(tmp_path / "commits.jsonl")
        assert entries == 1
        assert log.committed("unit-a") == digest
        again, same = log.append_commit("unit-a", payload, "n1")
        assert (again, same) == ("duplicate", digest)

    def test_store_digest_fast_path_counts_reuse(self, tmp_path):
        store = ResultStore(tmp_path)
        unit = WorkUnit(model="gpt-4o",
                        dataset=databuild.shard_dataset(20, 0, 20, 0),
                        setting="with_choice")
        payload = '{"records": []}\n'
        digest = payload_digest(payload)
        store.put(unit, payload, digest=digest)
        assert store.counters()["store_digest_reuse"] == 1
        # second identical put: digest reused again, write deduped
        before = store.path_for(unit).stat().st_mtime_ns
        store.put(unit, payload, digest=digest)
        assert store.counters()["store_digest_reuse"] == 2
        assert store.path_for(unit).stat().st_mtime_ns == before
        # the slow path still works and hashes for itself
        store.put(unit, payload)
        assert store.counters()["store_digest_reuse"] == 2

    def test_coordinator_sweep_hits_the_digest_fast_path(
            self, tmp_path):
        runner = SweepCoordinator(nodes=2, run_dir=tmp_path / "run",
                                  store_dir=tmp_path / "store")
        run_scaled_table2(["gpt-4o"], total=40, seed=1, samples=1,
                          shard_size=20, include_challenge=False,
                          runner=runner)
        stats = runner.last_stats
        assert stats is not None
        # every committed unit carried its dedup-gate digest into the
        # store verbatim — the store never re-hashed a payload
        assert stats.coordinator["store_digest_reuse"] \
            == stats.completed
        assert stats.completed > 0
        ok = audit_commit_log(tmp_path / "run" / "commits.jsonl")
        assert ok[0] == stats.completed


# -- stage timers ------------------------------------------------------------


class TestStageTimings:
    def test_stages_flow_into_the_sweep_report(self, tmp_path):
        report = run_scaled_table2(["gpt-4o"], total=40, seed=1,
                                   samples=1, shard_size=20,
                                   include_challenge=False,
                                   run_dir=tmp_path / "run")
        stages = report.perf_caches[perfstats.STAGE_TIMINGS_NAME]
        for name in ("build_wait", "eval", "serialize", "commit"):
            assert stages[f"{name}_calls"] > 0, name
            assert stages[f"{name}_ns"] > 0, name

    def test_sweep_report_counts_only_its_own_sweep(self):
        """Three windows of one shard each: the report holds exactly
        this sweep's counter movement, once."""
        before = perfstats.snapshot()
        report = run_scaled_table2(["gpt-4o"], total=60, seed=1,
                                   shard_size=20,
                                   include_challenge=False)
        moved = perfstats.delta(before, perfstats.snapshot())
        perf = report.perf_caches
        stages = perf[perfstats.STAGE_TIMINGS_NAME]
        assert perf["dataset_build"]["misses"] == 3
        assert stages["build_wait_calls"] == 3
        assert perf["perception"]["misses"] == 60
        assert perf == moved

    def test_process_prefetch_builds_count_in_the_sweep_report(self):
        """Shards a prefetch builder process builds count in the sweep's
        report, as thread-built ones do."""
        misses = {}
        for builder in ("thread", "process"):
            perfstats.reset()  # cold shard cache for each builder
            report = run_scaled_table2(["gpt-4o"], total=60, seed=1,
                                       shard_size=20,
                                       include_challenge=False,
                                       prefetch=2, prefetch_builder=builder)
            misses[builder] = report.perf_caches["dataset_build"]["misses"]
        assert misses == {"thread": 3, "process": 3}

    def test_cache_stats_prints_the_stage_table(self, capsys):
        from types import SimpleNamespace

        from repro.cli import _print_cache_stats

        counters = {
            "dataset_build": {"hits": 3, "misses": 1, "evictions": 0,
                              "size": 1},
            perfstats.STAGE_TIMINGS_NAME: {
                "build_wait_ns": 2_000_000, "build_wait_calls": 2,
                "eval_ns": 5_000_000, "eval_calls": 4,
            },
        }
        _print_cache_stats(SimpleNamespace(perf_caches=counters))
        out = capsys.readouterr().out
        assert "dataset_build" in out
        assert "stage" in out
        assert "build_wait" in out
        assert "eval" in out

    def test_metrics_exposition_renders_stage_families(self):
        from repro.service.metrics import render_prometheus

        perf = {
            "dataset_build": {"hits": 1, "misses": 0, "evictions": 0,
                              "size": 1},
            perfstats.STAGE_TIMINGS_NAME: {
                "eval_ns": 1_500_000_000, "eval_calls": 3,
                "build_wait_ns": 0, "build_wait_calls": 2,
            },
        }
        text = render_prometheus(perf_caches=perf)
        assert 'repro_stage_seconds_total{stage="eval"} 1.5' in text
        assert 'repro_stage_calls_total{stage="eval"} 3' in text
        assert 'repro_stage_seconds_total{stage="build_wait"} 0' in text
        # the stage entry never leaks into the cache families
        assert 'cache="stage_timings"' not in text
        assert text == render_prometheus(perf_caches=perf)


# -- CLI flag ---------------------------------------------------------------


class TestPrefetchFlag:
    """``table2 --prefetch`` through ``main``: a bad value is a usage
    error (exit 2), a large one is clamped to ``max(2, workers)``."""

    @pytest.fixture
    def sweep_prefetch(self, monkeypatch):
        """Record the ``prefetch`` each scaled CLI run passes on."""
        import repro.cli
        from repro.core import sweep

        monkeypatch.setattr(repro.cli.os, "cpu_count", lambda: 8)
        seen = []
        real = sweep.run_scaled_table2

        def recording(*args, **kwargs):
            seen.append(kwargs["prefetch"])
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep, "run_scaled_table2", recording)
        return seen

    def test_rejects_non_positive(self, capsys):
        from tests.test_cli import usage_error

        for value in ("0", "-2"):
            err = usage_error(["table2", "--models", "gpt-4o",
                               "--limit", "10", "--prefetch", value],
                              capsys)
            assert f"--prefetch: must be >= 1 (got {value})" in err

    def test_none_means_serial(self, sweep_prefetch, capsys):
        from repro.cli import main

        assert main(["table2", "--models", "gpt-4o", "--limit", "10",
                     "--workers", "4"]) == 0
        assert sweep_prefetch == [0]

    def test_clamps_against_workers_with_warning(self, sweep_prefetch,
                                                 capsys):
        from repro.cli import main

        scaled = ["table2", "--models", "gpt-4o", "--limit", "10"]
        assert main(scaled + ["--workers", "4", "--prefetch", "2"]) == 0
        assert "warning:" not in capsys.readouterr().out
        assert main(scaled + ["--workers", "4", "--prefetch", "64"]) == 0
        assert ("warning: --prefetch 64 exceeds the useful lookahead for "
                "4 worker(s); using 4") in capsys.readouterr().out
        # floor of 2: even a single-worker run may overlap one build
        assert main(scaled + ["--prefetch", "3"]) == 0
        assert sweep_prefetch == [2, 4, 2]

    def test_plain_table2_rejects_prefetch(self, capsys):
        from tests.test_cli import usage_error

        err = usage_error(["table2", "--models", "gpt-4o",
                           "--prefetch", "2"], capsys)
        assert "--prefetch 2 applies only to the scaled path" in err


# -- pipelined sweep: byte identity and memory ------------------------------


class TestPipelinedSweep:
    def test_prefetch_sweep_is_byte_identical_to_serial(
            self, tmp_path):
        from repro.core import results_io
        from tests.test_executor import run_dir_digest

        def sweep(run_dir, prefetch):
            report = run_scaled_table2(
                ["gpt-4o"], total=60, seed=3, samples=2,
                shard_size=20, run_dir=run_dir, prefetch=prefetch)
            return results_io.write_summary(
                run_dir / "sweep_summary.json",
                report.passk_summary(ks=(1, 2)))

        serial = sweep(tmp_path / "serial", prefetch=0)
        piped = sweep(tmp_path / "piped", prefetch=2)
        assert piped.read_bytes() == serial.read_bytes()
        assert run_dir_digest(tmp_path / "piped") \
            == run_dir_digest(tmp_path / "serial")

    def test_prefetch_residency_stays_o_lookahead_times_shard(self):
        shard_size, prefetch = 40, 2
        report = run_scaled_table2(["gpt-4o"], total=400, seed=1,
                                   samples=1, shard_size=shard_size,
                                   include_challenge=False,
                                   prefetch=prefetch)
        # resident questions: live window + lookahead builds + what the
        # shard cache retains — all O(shard), never O(total)
        bound = (databuild._SHARD_CACHE.capacity + prefetch + 2) \
            * shard_size
        assert 0 < report.peak_resident_questions <= bound
        assert report.peak_resident_questions < 400

    @pytest.mark.slow
    def test_tracemalloc_peak_is_o_lookahead_not_o_total(self):
        """10k-question streaming sweep with prefetch: peak allocation
        stays far below materialising the whole build at once."""
        from repro.core.benchmark import build_chipvqa_scaled

        total, shard_size = 9940, 142  # 70 shards

        tracemalloc.start()
        full = build_chipvqa_scaled(total, seed=1)
        _, full_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del full
        databuild._SHARD_CACHE.reset()

        tracemalloc.start()
        report = run_scaled_table2(["gpt-4o"], total=total, seed=1,
                                   samples=1, shard_size=shard_size,
                                   include_challenge=False,
                                   prefetch=2)
        _, sweep_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert sum(len(s.records)
                   for s in report.results["gpt-4o"]
                   ["with_choice"].samples) == total
        # the sweep holds O(lookahead x shard) questions plus the
        # accumulated (much smaller) records — nowhere near the full
        # 10k-question materialisation
        assert sweep_peak < 0.5 * full_peak
        bound = (databuild._SHARD_CACHE.capacity + 4) * shard_size
        assert report.peak_resident_questions <= bound
