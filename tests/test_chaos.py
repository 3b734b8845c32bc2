"""Chaos harness tests: crash/torn-write/judge-fault injection, the
acceptance criterion that a run under the full fault stack converges to
artifacts byte-identical to a fault-free run — and the coordinator
chaos suite (node kill, heartbeat blackout, commit-log tear, shared-
store bit-flip), whose full-zoo scenarios carry the ``chaos`` marker
and must converge to the golden Table II digest."""

import pytest

from repro.core import results_io
from repro.core.coordinator import SweepCoordinator, audit_commit_log
from repro.core.executor import ProcessBackend
from repro.core.faults import (
    ChaosCheckpointWriter,
    CompositeBoundary,
    FlakyBoundary,
    GateBoundary,
    NodeCrashBoundary,
    PermanentError,
    PoisonedQuestions,
    SimulatedCrash,
    TransientModelError,
    WorkerKillBoundary,
)
from repro.core.harness import EvaluationHarness, run_table2
from repro.core.question import Category
from repro.core.resilience import QUARANTINED_METHOD, QuarantinePolicy
from repro.core.runner import ParallelRunner, RetryPolicy, WorkUnit
from repro.judge import FaultInjectingJudge, HybridJudge
from repro.models import (
    NO_CHOICE,
    WITH_CHOICE,
    RemoteStubProvider,
    build_model,
    build_zoo,
)
from tests.test_executor import GOLDEN_TABLE2_DIGEST, run_dir_digest


def _units(chipvqa, model_names=("gpt-4o", "llava-7b", "kosmos-2")):
    subset = chipvqa.by_category(Category.DIGITAL)
    return [WorkUnit(model=build_model(name), dataset=subset,
                     setting=WITH_CHOICE) for name in model_names]


class TestChaosCheckpointWriter:
    def test_crash_is_one_shot_and_leaves_torn_file(self, tmp_path):
        writer = ChaosCheckpointWriter(crash_on={"unit-a"})
        path = tmp_path / "unit-a.jsonl"
        payload = "x" * 100 + "\n"
        with pytest.raises(SimulatedCrash):
            writer(path, payload)
        # the torn prefix reached the *final* path — a non-atomic write
        torn = path.read_text(encoding="utf-8")
        assert 0 < len(torn) < len(payload)
        assert payload.startswith(torn)
        assert writer.crashes == ["unit-a"]
        assert not writer.pending()
        # second write of the same stem goes through atomically
        writer(path, payload)
        assert path.read_text(encoding="utf-8") == payload

    def test_tear_is_silent(self, tmp_path):
        writer = ChaosCheckpointWriter(tear_on={"unit-b"}, keep_fraction=0.3)
        path = tmp_path / "unit-b.jsonl"
        writer(path, "y" * 50)  # no exception: the run believes it landed
        assert path.read_text(encoding="utf-8") == "y" * 15
        assert writer.tears == ["unit-b"]
        writer(path, "y" * 50)
        assert path.read_text(encoding="utf-8") == "y" * 50

    def test_unscripted_stems_write_atomically(self, tmp_path):
        writer = ChaosCheckpointWriter(crash_on={"other"})
        path = tmp_path / "unit-c.jsonl"
        writer(path, "z\n")
        assert path.read_text(encoding="utf-8") == "z\n"
        assert writer.pending()

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosCheckpointWriter(keep_fraction=1.0)


class TestFaultInjectingJudge:
    def test_scripted_fault_then_delegate(self, chipvqa):
        question = chipvqa.by_category(Category.DIGITAL)[0]
        judge = FaultInjectingJudge(
            HybridJudge(),
            {question.qid: [TransientModelError("judge rate limit")]})
        assert not judge.exhausted()
        with pytest.raises(TransientModelError):
            judge.judge(question, "some response")
        assert judge.exhausted()
        verdict = judge.judge(question, "some response")
        assert verdict == HybridJudge().judge(question, "some response")

    def test_unscripted_questions_pass_through(self, chipvqa):
        q0, q1 = chipvqa.by_category(Category.DIGITAL)[:2]
        judge = FaultInjectingJudge(
            HybridJudge(), {q0.qid: [PermanentError("content filter")]})
        assert judge.judge(q1, "r") == HybridJudge().judge(q1, "r")

    def test_judge_faults_feed_runner_retry_and_quarantine(self, chipvqa):
        """Transient judge faults retry; permanent ones quarantine."""
        units = _units(chipvqa, ("gpt-4o",))
        qids = [q.qid for q in chipvqa.by_category(Category.DIGITAL)]
        judge = FaultInjectingJudge(HybridJudge(), {
            qids[0]: [TransientModelError("judge 429")],
            qids[2]: [PermanentError("judge content filter"),
                      PermanentError("judge content filter")],
        })
        runner = ParallelRunner(
            harness=EvaluationHarness(judge=judge),
            quarantine=QuarantinePolicy(), sleep=lambda d: None)
        outcome = runner.run(units)
        assert not outcome.failures
        result = outcome.result_for(units[0])
        assert outcome.stats.total_retries == 1
        assert result.quarantined_count() == 1
        bad = [r for r in result.records if r.qid == qids[2]][0]
        assert bad.judge_method == QUARANTINED_METHOD


class TestSimulatedCrashEscapes:
    def test_runner_does_not_absorb_crashes(self, chipvqa, tmp_path):
        units = _units(chipvqa, ("gpt-4o",))
        runner = ParallelRunner(
            run_dir=tmp_path,
            checkpoint_writer=ChaosCheckpointWriter(
                crash_on={units[0].unit_id}))
        with pytest.raises(SimulatedCrash):
            runner.run(units)
        # the kill left a torn artifact behind for resume to reject
        torn = tmp_path / f"{units[0].unit_id}.jsonl"
        assert torn.exists()
        with pytest.raises(ValueError):
            results_io.load(torn)


class TestWorkerProcessDeath:
    """Chaos at the process-backend layer: a worker process is SIGKILLed
    mid-unit, the pool is rebuilt, and the run still converges to
    artifacts byte-identical to a fault-free serial run."""

    def test_killed_worker_respawns_and_converges(self, chipvqa,
                                                  tmp_path):
        units = _units(chipvqa)
        subset = chipvqa.by_category(Category.DIGITAL)
        victim_unit = units[1].unit_id
        victim_qid = subset[2].qid
        boundary = WorkerKillBoundary(
            flag_path=tmp_path / "killed.flag",
            kill_on=f"{victim_unit}::{victim_qid}")

        # one worker means the victim is always alone in flight, so the
        # death is attributed to it (multi-unit flights cannot convict)
        chaos_dir = tmp_path / "chaos"
        runner = ParallelRunner(
            workers=1,
            backend=ProcessBackend(workers=1, max_respawns=2),
            run_dir=chaos_dir,
            fault_boundary=boundary)
        outcome = runner.run(units)

        # the kill latched exactly once: the respawned worker survives
        assert (tmp_path / "killed.flag").exists()
        assert not outcome.failures
        stats = runner.last_stats
        assert stats.unit(victim_unit).worker_respawns == 1
        for unit in units:
            assert stats.unit(unit.unit_id).status == "completed"
            assert len(outcome.results[unit.unit_id]) == len(subset)

        # byte-identical to a fault-free serial run, and auditable
        clean_dir = tmp_path / "clean"
        clean = ParallelRunner(workers=1, run_dir=clean_dir).run(units)
        assert not clean.failures
        for unit in units:
            name = f"{unit.unit_id}.jsonl"
            assert ((chaos_dir / name).read_bytes()
                    == (clean_dir / name).read_bytes())
        audit = results_io.verify_run(chaos_dir)
        assert audit.ok
        assert audit.counts()["ok"] == len(units)

    def test_killed_worker_checkpoints_survive_resume(self, chipvqa,
                                                      tmp_path):
        """A second launch over the post-kill run directory resumes
        every unit from checkpoints instead of re-evaluating."""
        units = _units(chipvqa, ("gpt-4o", "llava-7b"))
        subset = chipvqa.by_category(Category.DIGITAL)
        boundary = WorkerKillBoundary(
            flag_path=tmp_path / "killed.flag",
            kill_on=f"{units[0].unit_id}::{subset[0].qid}")
        run_dir = tmp_path / "run"
        first = ParallelRunner(
            workers=2, backend=ProcessBackend(workers=2),
            run_dir=run_dir, fault_boundary=boundary)
        assert not first.run(units).failures

        second = ParallelRunner(
            workers=2, backend=ProcessBackend(workers=2),
            run_dir=run_dir, fault_boundary=boundary)
        outcome = second.run(units)
        assert not outcome.failures
        assert second.last_stats.resumed == len(units)
        for unit in units:
            assert second.last_stats.unit(
                unit.unit_id).worker_respawns == 0


class TestChaosConvergence:
    """The acceptance criterion: a chaos run over the Table II sweep
    converges to artifacts byte-identical to a fault-free run (modulo
    deterministically-quarantined records), and ``verify-run`` vouches
    for the result."""

    def test_chaos_run_converges_to_clean_artifacts(self, chipvqa,
                                                    tmp_path):
        units = _units(chipvqa)
        qids = [q.qid for q in chipvqa.by_category(Category.DIGITAL)]
        poison_qid = qids[3]
        poison_unit = units[1].unit_id

        # the full fault stack: transient flakes + a permanently
        # poisoned (unit, question) + judge faults + a process kill
        # mid-checkpoint + a silent torn write
        boundary = CompositeBoundary(
            FlakyBoundary(rate=0.12, failures=1, seed=5),
            PoisonedQuestions({f"{poison_unit}::{poison_qid}"}))
        judge = FaultInjectingJudge(HybridJudge(), {
            qids[0]: [TransientModelError("judge rate limit")],
        })
        writer = ChaosCheckpointWriter(crash_on={units[0].unit_id},
                                       tear_on={units[2].unit_id})
        chaos_dir = tmp_path / "chaos"

        launches = 0
        outcome = None
        for _ in range(8):  # relaunch loop: each pass is a "process"
            launches += 1
            runner = ParallelRunner(
                harness=EvaluationHarness(judge=judge),
                workers=1, run_dir=chaos_dir,
                fault_boundary=boundary,
                quarantine=QuarantinePolicy(),
                retry=RetryPolicy(max_attempts=25, base_delay=0.0),
                sleep=lambda d: None,
                checkpoint_writer=writer)
            try:
                outcome = runner.run(units)
            except SimulatedCrash:
                continue  # the "process" died; relaunch resumes
            if (not writer.pending()
                    and outcome.stats.corrupt_checkpoints == 0
                    and outcome.stats.stale_checkpoints == 0):
                break
        else:
            pytest.fail("chaos run did not converge in 8 launches")

        # launch 1 crashes; 2 repairs the crash and tears unit 3;
        # 3 repairs the tear; 4 resumes everything cleanly
        assert launches == 4
        assert writer.crashes == [units[0].unit_id]
        assert writer.tears == [units[2].unit_id]
        assert not outcome.failures
        assert outcome.stats.resumed == len(units)

        # fault-free reference run
        clean_dir = tmp_path / "clean"
        clean = ParallelRunner(workers=1, run_dir=clean_dir).run(units)
        assert not clean.failures

        # crash-hit and tear-hit units converged to byte-identical files
        for unit in (units[0], units[2]):
            name = f"{unit.unit_id}.jsonl"
            assert ((chaos_dir / name).read_bytes()
                    == (clean_dir / name).read_bytes())

        # the poisoned unit differs only in its quarantined line
        chaos_lines = (chaos_dir / f"{poison_unit}.jsonl").read_text(
            encoding="utf-8").splitlines()
        clean_lines = (clean_dir / f"{poison_unit}.jsonl").read_text(
            encoding="utf-8").splitlines()
        assert len(chaos_lines) == len(clean_lines)
        differing = [i for i, (a, b) in
                     enumerate(zip(chaos_lines, clean_lines)) if a != b]
        assert len(differing) == 2  # the manifest checksum + one record
        assert differing[0] == 0    # line 0 is the manifest
        import json
        bad = json.loads(chaos_lines[differing[1]])
        assert bad["qid"] == poison_qid
        assert bad["judge_method"] == QUARANTINED_METHOD
        assert bad["correct"] is False
        quarantined = results_io.load(chaos_dir / f"{poison_unit}.jsonl")
        assert quarantined.quarantined_count() == 1

        # the converged artifacts verify...
        audit = results_io.verify_run(chaos_dir)
        assert audit.ok
        assert audit.counts()["ok"] == len(units)

        # ...and a single flipped byte is caught
        victim = chaos_dir / f"{units[2].unit_id}.jsonl"
        original = victim.read_bytes()
        victim.write_bytes(original.replace(b'"correct"', b'"cXrrect"', 1))
        broken = results_io.verify_run(chaos_dir)
        assert not broken.ok
        statuses = {f.name: f.status for f in broken.files}
        assert statuses[victim.name] == "corrupt"
        victim.write_bytes(original)
        assert results_io.verify_run(chaos_dir).ok


class TestAsyncChaosConvergence:
    """Chaos at the async-backend layer: transient transport faults
    and simulated-429 rate-limit rejections land mid-flight on the
    event loop, a crash and a silent torn write hit the checkpoint
    layer — and the relaunch loop still converges to artifacts
    byte-identical to a fault-free run, vouched by ``verify-run``."""

    def _stub_units(self, chipvqa, **stub_kwargs):
        """Three Table II units over fault-injecting remote stubs."""
        subset = chipvqa.by_category(Category.DIGITAL)
        units = []
        for name in ("gpt-4o", "llava-7b", "kosmos-2"):
            stub = RemoteStubProvider(build_model(name),
                                      sleep=lambda d: None,
                                      **stub_kwargs)
            units.append(WorkUnit(model=stub, dataset=subset,
                                  setting=WITH_CHOICE))
        return units

    def test_async_chaos_run_converges_to_clean_artifacts(
            self, chipvqa, tmp_path):
        # Server-side budget: burst of 1 with a scripted clock that
        # advances 20 ms per observation, so every retry loop must eat
        # a string of simulated 429s before the bucket refills.
        ticker = {"now": 0.0}

        def ticking_clock():
            ticker["now"] += 0.02
            return ticker["now"]

        units = self._stub_units(
            chipvqa, transient_rate=1.0, transient_failures=2, seed=7,
            rate_limit_per_s=10.0, rate_limit_burst=1,
            rate_clock=ticking_clock)
        writer = ChaosCheckpointWriter(crash_on={units[0].unit_id},
                                       tear_on={units[2].unit_id})
        chaos_dir = tmp_path / "chaos"

        launches = 0
        outcome = None
        for _ in range(8):  # relaunch loop: each pass is a "process"
            launches += 1
            # one in-flight unit keeps the crash/tear schedule
            # deterministic (the loop admits units in order)
            runner = ParallelRunner(
                workers=1, backend="async", run_dir=chaos_dir,
                retry=RetryPolicy(max_attempts=25, base_delay=0.0),
                sleep=lambda d: None,
                checkpoint_writer=writer)
            try:
                outcome = runner.run(units)
            except SimulatedCrash:
                continue  # the "process" died; relaunch resumes
            if (not writer.pending()
                    and outcome.stats.corrupt_checkpoints == 0
                    and outcome.stats.stale_checkpoints == 0):
                break
        else:
            pytest.fail("async chaos run did not converge in 8 launches")

        # launch 1 crashes; 2 repairs the crash and tears unit 3;
        # 3 repairs the tear; 4 resumes everything cleanly
        assert launches == 4
        assert writer.crashes == [units[0].unit_id]
        assert writer.tears == [units[2].unit_id]
        assert not outcome.failures
        assert outcome.stats.resumed == len(units)

        # the chaos actually happened mid-flight: every stub bounced
        # calls off the rate limiter and injected transient faults
        # beyond the 429s, all absorbed by the async retry path
        stubs = [unit.provider for unit in units]
        assert all(stub.rate_limited > 0 for stub in stubs)
        assert all(stub.faults_injected > stub.rate_limited
                   for stub in stubs)

        # fault-free reference run over the same models
        clean_units = self._stub_units(chipvqa)
        clean_dir = tmp_path / "clean"
        clean = ParallelRunner(workers=1, run_dir=clean_dir).run(
            clean_units)
        assert not clean.failures

        # every unit converged to byte-identical artifacts
        for unit in units:
            name = f"{unit.unit_id}.jsonl"
            assert ((chaos_dir / name).read_bytes()
                    == (clean_dir / name).read_bytes())

        # the converged artifacts verify...
        audit = results_io.verify_run(chaos_dir)
        assert audit.ok
        assert audit.counts()["ok"] == len(units)

        # ...and a single flipped byte is caught
        victim = chaos_dir / f"{units[1].unit_id}.jsonl"
        original = victim.read_bytes()
        victim.write_bytes(original.replace(b'"correct"', b'"cXrrect"', 1))
        broken = results_io.verify_run(chaos_dir)
        assert not broken.ok
        statuses = {f.name: f.status for f in broken.files}
        assert statuses[victim.name] == "corrupt"
        victim.write_bytes(original)
        assert results_io.verify_run(chaos_dir).ok


class TestProcessNodeSigkill:
    """A real SIGKILL of a process-mode node's worker group: the broken
    pool surfaces as a node death, the unit is stolen by the surviving
    node, and the artifacts stay byte-identical to a serial run."""

    def test_sigkilled_node_is_replaced_by_stealing(self, chipvqa,
                                                    tmp_path):
        units = _units(chipvqa, ("gpt-4o", "llava-7b"))
        subset = chipvqa.by_category(Category.DIGITAL)
        boundary = WorkerKillBoundary(
            flag_path=tmp_path / "killed.flag",
            kill_on=f"{units[0].unit_id}::{subset[1].qid}")
        fleet_dir = tmp_path / "fleet"
        coordinator = SweepCoordinator(
            nodes=2, node_backend="process", run_dir=fleet_dir,
            fault_boundary=boundary, lease_s=60.0)
        outcome = coordinator.run(units)
        assert (tmp_path / "killed.flag").exists()
        assert not outcome.failures
        counters = coordinator.last_stats.coordinator
        assert counters["nodes_lost"] == 1
        assert counters["units_stolen"] >= 1

        clean_dir = tmp_path / "clean"
        assert not ParallelRunner(workers=1,
                                  run_dir=clean_dir).run(units).failures
        for unit in units:
            name = f"{unit.unit_id}.jsonl"
            assert ((fleet_dir / name).read_bytes()
                    == (clean_dir / name).read_bytes())


@pytest.mark.chaos
class TestCoordinatorChaosConvergence:
    """The acceptance pin: each coordinator chaos scenario runs the
    full-zoo Table II sweep and must converge to the golden digest —
    artifacts byte-identical to every fault-free backend — with the
    fleet counters telling the story of what was survived."""

    def test_node_kill_mid_unit(self, chipvqa, tmp_path):
        # llava-7b with_choice is the first unit dispatched; killing
        # its node three questions in forces an early steal while the
        # rest of the queue is still deep.
        victim = WorkUnit(model="llava-7b", dataset=chipvqa,
                          setting=WITH_CHOICE)
        qid = chipvqa.by_category(Category.DIGITAL)[2].qid
        run_dir = tmp_path / "run"
        boundary = NodeCrashBoundary(
            flag_path=tmp_path / "crash.flag",
            crash_on=f"{victim.unit_id}::{qid}")
        coordinator = SweepCoordinator(nodes=3, run_dir=run_dir,
                                       fault_boundary=boundary)
        results = run_table2(build_zoo(), runner=coordinator)
        assert len(results) == 12
        counters = coordinator.last_stats.coordinator
        assert counters["nodes_lost"] == 1
        assert counters["units_stolen"] >= 1
        assert run_dir_digest(run_dir) == GOLDEN_TABLE2_DIGEST
        assert results_io.verify_run(run_dir).ok

    def test_heartbeat_blackout_mid_unit(self, chipvqa_challenge,
                                         tmp_path):
        # Gate the *last-dispatched* unit (gpt-4o no_choice): requeued
        # units go to the back of the queue, so wedging a unit the
        # healthy node can reach quickly keeps the steal well inside
        # the gate window.
        victim = WorkUnit(model="gpt-4o", dataset=chipvqa_challenge,
                          setting=NO_CHOICE)
        qid = chipvqa_challenge.by_category(Category.DIGITAL)[1].qid
        run_dir = tmp_path / "run"
        gate = GateBoundary(flag_path=tmp_path / "gate.flag",
                            block_on=f"{victim.unit_id}::{qid}",
                            max_block_s=2.0)
        coordinator = SweepCoordinator(
            nodes=2, run_dir=run_dir, fault_boundary=gate,
            lease_s=0.15, heartbeat_timeout_s=120.0, poll_interval=0.02)
        run_table2(build_zoo(), runner=coordinator)
        counters = coordinator.last_stats.coordinator
        assert counters["nodes_lost"] == 0
        assert counters["lease_expirations"] >= 1
        assert counters["units_stolen"] >= 1
        assert counters["duplicate_commits"] == 1
        assert run_dir_digest(run_dir) == GOLDEN_TABLE2_DIGEST
        # exactly-once despite the double execution
        assert audit_commit_log(run_dir / "commits.jsonl")[:2] == (24, 24)

    def test_commit_log_tear_between_launches(self, tmp_path):
        run_dir = tmp_path / "run"
        first = SweepCoordinator(nodes=2, run_dir=run_dir)
        run_table2(build_zoo(), runner=first)
        assert run_dir_digest(run_dir) == GOLDEN_TABLE2_DIGEST
        log_path = run_dir / "commits.jsonl"
        whole = log_path.read_text(encoding="utf-8")
        log_path.write_text(whole[:-40], encoding="utf-8")

        second = SweepCoordinator(nodes=2, run_dir=run_dir)
        run_table2(build_zoo(), runner=second)
        stats = second.last_stats
        assert stats.resumed == 24
        assert stats.coordinator["commit_repairs"] == 1
        assert audit_commit_log(log_path)[:2] == (24, 24)
        assert run_dir_digest(run_dir) == GOLDEN_TABLE2_DIGEST
        assert results_io.verify_run(run_dir).ok

    def test_store_bit_flip_between_launches(self, chipvqa, tmp_path):
        from repro.core.coordinator import ResultStore

        run_dir, store_dir = tmp_path / "run", tmp_path / "store"
        first = SweepCoordinator(nodes=2, run_dir=run_dir,
                                 store_dir=store_dir)
        run_table2(build_zoo(), runner=first)
        assert run_dir_digest(run_dir) == GOLDEN_TABLE2_DIGEST

        # flip one byte inside a shared-store entry, then lose the
        # matching checkpoint so resume is forced through the store
        victim = WorkUnit(model="gpt-4o", dataset=chipvqa,
                          setting=WITH_CHOICE)
        entry = ResultStore(store_dir).path_for(victim)
        blob = entry.read_bytes()
        entry.write_bytes(blob.replace(b"correct", b"cXrrect", 1))
        (run_dir / f"{victim.unit_id}.jsonl").unlink()

        second = SweepCoordinator(nodes=2, run_dir=run_dir,
                                  store_dir=store_dir)
        run_table2(build_zoo(), runner=second)
        stats = second.last_stats
        assert stats.coordinator["store_quarantined"] == 1
        assert stats.resumed == 23        # everything else untouched
        assert stats.completed == 1       # the victim was re-executed
        assert run_dir_digest(run_dir) == GOLDEN_TABLE2_DIGEST
        assert results_io.verify_run(run_dir).ok


class TestScaledSweepResume:
    """Satellite: kill a scaled multi-sample sweep mid-shard, relaunch
    over the same run directory, and the final ``sweep_summary.json``
    is byte-identical to an uninterrupted run's."""

    def test_killed_scaled_sweep_resumes_to_identical_summary(
            self, tmp_path):
        from repro.core.sweep import run_scaled_table2

        def summarise(report, path):
            return results_io.write_summary(
                path, report.passk_summary(ks=(1, 2)))

        # uninterrupted reference sweep
        clean_dir = tmp_path / "clean"
        clean = run_scaled_table2(["gpt-4o"], total=60, seed=3,
                                  samples=2, shard_size=60,
                                  run_dir=clean_dir)
        clean_summary = summarise(clean, clean_dir / "sweep_summary.json")
        stems = sorted(p.stem for p in clean_dir.glob("*__*.jsonl"))
        assert len(stems) == 4  # 1 model x 2 settings x 2 samples

        # chaos sweep: the checkpoint writer kills the "process" while
        # a mid-shard unit's artifact is mid-write
        chaos_dir = tmp_path / "chaos"
        writer = ChaosCheckpointWriter(crash_on={stems[2]})
        report = None
        launches = 0
        for _ in range(4):  # relaunch loop: each pass is a "process"
            launches += 1
            runner = SweepCoordinator(nodes=2, run_dir=chaos_dir,
                                      checkpoint_writer=writer)
            try:
                report = run_scaled_table2(["gpt-4o"], total=60, seed=3,
                                           samples=2, shard_size=60,
                                           runner=runner)
            except SimulatedCrash:
                continue  # the sweep died mid-shard; relaunch resumes
            break
        else:
            pytest.fail("scaled sweep did not converge after kills")
        assert launches == 2
        assert writer.crashes == [stems[2]]

        chaos_summary = summarise(report,
                                  chaos_dir / "sweep_summary.json")
        assert (chaos_summary.read_bytes()
                == clean_summary.read_bytes())
        # and the run directory's checkpoints converged byte-for-byte
        assert run_dir_digest(chaos_dir) == run_dir_digest(clean_dir)

    def test_killed_prefetch_sweep_converges_byte_identical(
            self, tmp_path):
        """Same kill-and-relaunch drill with the prefetch pipeline on:
        overlapped shard builds must not perturb checkpoint bytes,
        commit order, or the summary artifact."""
        from repro.core.sweep import run_scaled_table2

        def summarise(report, path):
            return results_io.write_summary(
                path, report.passk_summary(ks=(1, 2)))

        clean_dir = tmp_path / "clean"
        clean = run_scaled_table2(["gpt-4o"], total=60, seed=3,
                                  samples=2, shard_size=20,
                                  run_dir=clean_dir)
        clean_summary = summarise(clean, clean_dir / "sweep_summary.json")
        stems = sorted(p.stem for p in clean_dir.glob("*__*.jsonl"))
        assert len(stems) == 12  # 1 model x 2 settings x 2 samples x 3

        chaos_dir = tmp_path / "chaos"
        writer = ChaosCheckpointWriter(crash_on={stems[5]})
        report = None
        for _ in range(4):
            runner = SweepCoordinator(nodes=2, run_dir=chaos_dir,
                                      checkpoint_writer=writer)
            try:
                report = run_scaled_table2(["gpt-4o"], total=60, seed=3,
                                           samples=2, shard_size=20,
                                           runner=runner, prefetch=2)
            except SimulatedCrash:
                continue  # prefetcher torn down with the "process"
            break
        else:
            pytest.fail("prefetch sweep did not converge after kills")
        assert writer.crashes == [stems[5]]

        chaos_summary = summarise(report,
                                  chaos_dir / "sweep_summary.json")
        assert (chaos_summary.read_bytes()
                == clean_summary.read_bytes())
        assert run_dir_digest(chaos_dir) == run_dir_digest(clean_dir)
