"""Run isolation: each run counts its own cache traffic and uses its own
spill tier, however many runs one process holds at once.

Every counter counts into the :func:`repro.core.perfstats.scope` open on
the calling context, so a run's manifest and its units' telemetry must
not see another run's lookups.  The checks compare lookups (hits plus
misses) and stage call counts, never the hit/miss split, which races
between threads; the caches are warmed first where a concurrent run
could otherwise change which inner caches a lookup reaches.
"""

import threading
import time

from repro.core import perfstats
from repro.core.faults import GateBoundary
from repro.core.harness import run_table2
from repro.core.runner import ParallelRunner, WorkUnit, read_manifest
from repro.models import NO_CHOICE, WITH_CHOICE
from repro.service.jobs import JobQueue

STAGE = perfstats.STAGE_TIMINGS_NAME


def _lookups(counters):
    """``{cache: hits + misses}`` of a snapshot-shaped dict."""
    return {name: entry.get("hits", 0) + entry.get("misses", 0)
            for name, entry in counters.items() if name != STAGE}


def _stage_calls(counters):
    return {key: value for key, value in counters.get(STAGE, {}).items()
            if key.endswith("_calls")}


def _units(models, chipvqa, chipvqa_challenge):
    return [WorkUnit(model=model, dataset=dataset, setting=setting)
            for model in models
            for dataset, setting in ((chipvqa, WITH_CHOICE),
                                     (chipvqa_challenge, NO_CHOICE))]


def test_back_to_back_runs_each_count_only_themselves(tmp_path):
    """A second serial run's manifest holds its own lookups, not the
    process's since the first run began."""
    before = perfstats.snapshot()
    run_table2(["llava-7b"], runner=ParallelRunner(run_dir=tmp_path / "solo"))
    solo = _lookups(perfstats.delta(before, perfstats.snapshot()))
    assert solo["perception"] == 288  # 2 units x 144 figures

    perfstats.reset()
    run_table2(["gpt-4o"], runner=ParallelRunner(run_dir=tmp_path / "a"))
    run_table2(["llava-7b"], runner=ParallelRunner(run_dir=tmp_path / "b"))
    second = read_manifest(tmp_path / "b")["totals"]["perf_caches"]
    assert _lookups(second)["perception"] == solo["perception"]


def _job_counters(job):
    assert job.wait(timeout=120), job.job_id
    assert job.status == "completed", job.error
    perf = read_manifest(job.run_dir)["totals"]["perf_caches"]
    return _lookups(perf), _stage_calls(perf)


def test_concurrent_service_jobs_each_report_their_solo_counters(
        tmp_path):
    """Two jobs served at once by one queue each report exactly what the
    same job reports when it runs alone."""
    specs = {model: {"models": [model], "setting": "both",
                     "latency_s": 0.02}
             for model in ("gpt-4o", "llava-7b")}
    queue = JobQueue(queue_workers=2, run_root=tmp_path)
    try:
        for spec in specs.values():  # warm every cache level
            _job_counters(queue.submit(spec))
        solo = {model: _job_counters(queue.submit(spec))
                for model, spec in specs.items()}
        jobs = {model: queue.submit(spec) for model, spec in specs.items()}
        together = {model: _job_counters(job) for model, job in jobs.items()}
    finally:
        queue.shutdown()
    for model in specs:
        lookups, calls = together[model]
        assert lookups == solo[model][0], model
        assert calls == solo[model][1], model
        assert calls["eval_calls"] == 2


def test_thread_backend_units_count_only_their_own_lookups(
        chipvqa, chipvqa_challenge):
    """Under four threads, each unit's telemetry counts the lookups the
    same unit makes when the run is serial."""
    models = ("gpt-4o", "llava-7b", "kosmos-2", "paligemma")
    ParallelRunner().run(_units(models, chipvqa, chipvqa_challenge))

    def per_unit(runner):
        units = _units(models, chipvqa, chipvqa_challenge)
        outcome = runner.run(units)
        return {unit.unit_id: (
            outcome.result_for(unit).telemetry["perf_cache_hits"]
            + outcome.result_for(unit).telemetry["perf_cache_misses"])
            for unit in units}

    serial = per_unit(ParallelRunner())
    threaded = per_unit(ParallelRunner(workers=4, backend="thread"))
    assert len(serial) == 8
    assert threaded == serial


def test_a_spill_free_run_never_writes_into_another_runs_spill_dir(
        chipvqa, tmp_path):
    """While a run with a spill dir is held mid-unit on another thread,
    a run without one keeps all of its cache work in memory."""
    perfstats.reset()  # both runs start cold
    spill_dir = tmp_path / "spill"
    gate = GateBoundary(flag_path=tmp_path / "gate.flag",
                        block_on=chipvqa.questions[0].qid)
    held = ParallelRunner(spill_dir=spill_dir, fault_boundary=gate)
    thread = threading.Thread(target=held.run, args=(
        [WorkUnit(model="gpt-4o", dataset=chipvqa, setting=WITH_CHOICE)],))
    thread.start()
    try:
        deadline = time.monotonic() + 60
        while not (tmp_path / "gate.flag").exists():
            assert time.monotonic() < deadline, "held run never gated"
            time.sleep(0.01)
        before = sorted(spill_dir.rglob("*.json"))
        assert before  # the held run spilled its own work
        outcome = ParallelRunner().run(
            [WorkUnit(model="llava-7b", dataset=chipvqa,
                      setting=WITH_CHOICE)])
        assert outcome.stats.perf_caches["perception"]["misses"] > 0
        assert sorted(spill_dir.rglob("*.json")) == before
    finally:
        gate.release()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert held.last_stats.completed == 1
