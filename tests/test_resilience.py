"""Tests for the resilience layer: circuit breaker, deadlines and
watchdog, question-level quarantine, resume-rejection counters — plus
the retry/boundary edge cases they compose with."""

import pytest

from repro.core import results_io
from repro.core.faults import (
    CompositeBoundary,
    FaultBoundary,
    PermanentError,
    PoisonedQuestions,
    RecordingBoundary,
    TransientModelError,
)
from repro.core.question import Category
from repro.core.resilience import (
    QUARANTINED_METHOD,
    AdmissionPolicy,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    QuarantinePolicy,
    Watchdog,
    count_quarantined,
    quarantined_record,
)
from repro.core.runner import (
    ParallelRunner,
    RetryPolicy,
    WorkUnit,
    read_manifest,
)
from repro.models import WITH_CHOICE, build_model


class FakeClock:
    """A manually-advanced monotonic clock for deadline tests."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _model_units(chipvqa, model_name="gpt-4o",
                 categories=(Category.DIGITAL, Category.ANALOG,
                             Category.ARCHITECTURE, Category.PHYSICAL)):
    """Several units of the *same* model (distinct category subsets)."""
    model = build_model(model_name)
    return [WorkUnit(model=model, dataset=chipvqa.by_category(category),
                     setting=WITH_CHOICE) for category in categories]


def _units(chipvqa, model_names=("gpt-4o", "llava-7b", "kosmos-2"),
           category=Category.DIGITAL):
    subset = chipvqa.by_category(category)
    return [WorkUnit(model=build_model(name), dataset=subset,
                     setting=WITH_CHOICE) for name in model_names]


class _ModelDown(FaultBoundary):
    """Every crossing of the named model's units fails."""

    def __init__(self, model_slug, error=PermanentError):
        self.model_slug = model_slug
        self.error = error

    def check(self, unit_id, qid):
        if unit_id.startswith(self.model_slug):
            raise self.error(f"{self.model_slug} is down")


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        assert breaker.allow("m")
        breaker.record_failure("m")
        breaker.record_failure("m")
        assert breaker.allow("m")
        assert breaker.record_failure("m") is True  # the opening trip
        assert not breaker.allow("m")
        assert breaker.state("m") == "open"
        assert breaker.open_keys() == ["m"]
        with pytest.raises(CircuitOpenError, match="circuit open"):
            breaker.check("m")

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure("m")
        breaker.record_success("m")
        breaker.record_failure("m")
        assert breaker.allow("m")  # never two in a row

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure("bad")
        assert not breaker.allow("bad")
        assert breaker.allow("good")

    def test_fast_fail_counting_and_snapshot(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure("m", "PermanentError: down")
        breaker.record_fast_fail("m")
        breaker.record_fast_fail("m")
        assert breaker.fast_fail_count("m") == 2
        assert breaker.fast_fail_count() == 2
        snap = breaker.as_dict()
        assert snap["open"] == ["m"]
        assert snap["fast_fails"] == {"m": 2}

    def test_reset_closes_circuit(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure("m")
        breaker.reset("m")
        assert breaker.allow("m")

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1.0)


class TestHalfOpenBreaker:
    def test_cooldown_admits_exactly_one_trial(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=clock)
        breaker.record_failure("m", "down")
        assert breaker.state("m") == "open"
        assert not breaker.allow("m")
        clock.advance(4.9)
        assert not breaker.allow("m")  # still cooling
        clock.advance(0.1)
        assert breaker.state("m") == "half_open"
        assert breaker.allow("m")       # the single trial probe
        assert not breaker.allow("m")   # one probe at a time
        assert breaker.state("m") == "half_open"

    def test_successful_trial_closes_the_circuit(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=1.0,
                                 clock=clock)
        breaker.record_failure("m")
        clock.advance(1.0)
        assert breaker.allow("m")
        breaker.record_success("m")
        assert breaker.state("m") == "closed"
        assert breaker.allow("m")
        assert breaker.open_keys() == []

    def test_failed_trial_rearms_the_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=clock)
        breaker.record_failure("m", "down")
        clock.advance(5.0)
        assert breaker.allow("m")
        # the trial fails: back to fully open, cooldown restarted
        assert breaker.record_failure("m", "still down") is False
        assert breaker.state("m") == "open"
        assert not breaker.allow("m")
        clock.advance(4.9)
        assert not breaker.allow("m")
        clock.advance(0.1)
        assert breaker.allow("m")  # next probe after the fresh cooldown

    def test_without_cooldown_the_circuit_never_half_opens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, clock=clock)
        breaker.record_failure("m")
        clock.advance(10_000.0)
        assert breaker.state("m") == "open"
        assert not breaker.allow("m")

    def test_snapshot_keys_appear_only_when_configured(self):
        plain = CircuitBreaker(failure_threshold=1)
        plain.record_failure("m")
        snap = plain.as_dict()
        assert "cooldown_s" not in snap and "half_open" not in snap

        clock = FakeClock()
        probing = CircuitBreaker(failure_threshold=1, cooldown_s=2.0,
                                 clock=clock)
        probing.record_failure("m", "down")
        clock.advance(2.0)
        assert probing.allow("m")
        snap = probing.as_dict()
        assert snap["cooldown_s"] == 2.0
        assert snap["half_open"] == ["m"]
        assert snap["open"] == ["m"]


class TestBreakerInRunner:
    def test_fast_fails_remaining_units_of_open_model(self, chipvqa,
                                                      tmp_path):
        units = _model_units(chipvqa)
        spy = RecordingBoundary()
        boundary = CompositeBoundary(spy, _ModelDown("gpt-4o"))
        breaker = CircuitBreaker(failure_threshold=2)
        runner = ParallelRunner(workers=1, run_dir=tmp_path,
                                fault_boundary=boundary, breaker=breaker,
                                sleep=lambda d: None)
        outcome = runner.run(units)
        # all four units failed, but only the first two crossed the
        # boundary: the breaker opened and fast-failed the rest
        assert set(outcome.failures) == {u.unit_id for u in units}
        assert spy.units_evaluated() == [units[0].unit_id,
                                         units[1].unit_id]
        manifest = read_manifest(tmp_path)
        statuses = [u["status"] for u in manifest["units"]]
        assert statuses == ["failed", "failed", "fast_failed",
                            "fast_failed"]
        assert manifest["totals"]["fast_failed"] == 2
        assert manifest["breaker"]["open"] == ["gpt-4o"]
        for unit_id in (units[2].unit_id, units[3].unit_id):
            assert "CircuitOpenError" in outcome.failures[unit_id]

    def test_fast_fail_spends_no_retry_budget(self, chipvqa):
        units = _model_units(chipvqa)
        sleeps = []
        runner = ParallelRunner(
            workers=1,
            fault_boundary=_ModelDown("gpt-4o", error=TransientModelError),
            breaker=CircuitBreaker(failure_threshold=1),
            retry=RetryPolicy(max_attempts=4, base_delay=0.1),
            sleep=sleeps.append)
        outcome = runner.run(units)
        assert len(outcome.failures) == len(units)
        # only the first unit burned backoff; the rest fast-failed
        assert len(sleeps) == 3

    def test_healthy_models_unaffected_by_open_circuit(self, chipvqa):
        units = _units(chipvqa)
        runner = ParallelRunner(
            workers=1, fault_boundary=_ModelDown("llava-7b"),
            breaker=CircuitBreaker(failure_threshold=1),
            sleep=lambda d: None)
        outcome = runner.run(units)
        assert set(outcome.failures) == {units[1].unit_id}
        assert set(outcome.results) == {units[0].unit_id,
                                        units[2].unit_id}


class TestDeadline:
    def test_expiry_and_remaining(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert not deadline.expired
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded, match="deadline"):
            deadline.check("unit-x", "q-1")

    def test_validation(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_deadline_exceeded_is_not_transient(self):
        assert not issubclass(DeadlineExceeded, TransientModelError)


class _SlowUnit(FaultBoundary):
    """Advance a fake clock on every crossing of one unit."""

    def __init__(self, unit_id, clock, per_question):
        self.unit_id = unit_id
        self.clock = clock
        self.per_question = per_question

    def check(self, unit_id, qid):
        if unit_id == self.unit_id:
            self.clock.advance(self.per_question)


class TestDeadlineInRunner:
    def test_overdue_unit_times_out_others_complete(self, chipvqa,
                                                    tmp_path):
        units = _units(chipvqa)
        clock = FakeClock()
        victim = units[1].unit_id
        runner = ParallelRunner(
            workers=1, run_dir=tmp_path,
            fault_boundary=_SlowUnit(victim, clock, per_question=3.0),
            deadline_s=5.0, clock=clock, sleep=lambda d: None)
        outcome = runner.run(units)
        assert set(outcome.failures) == {victim}
        assert "DeadlineExceeded" in outcome.failures[victim]
        manifest = read_manifest(tmp_path)
        statuses = {u["unit_id"]: u["status"] for u in manifest["units"]}
        assert statuses[victim] == "timed_out"
        assert sorted(statuses.values()) == ["completed", "completed",
                                             "timed_out"]
        assert manifest["totals"]["timed_out"] == 1
        # the timed-out unit wrote no checkpoint
        assert not (tmp_path / f"{victim}.jsonl").exists()

    def test_overdue_unit_skips_retry_backoff(self, chipvqa):
        """Once overdue, a transient fault must not trigger more
        backoff sleeps: the deadline check fires before the sleep."""
        units = _units(chipvqa, ("gpt-4o",))
        clock = FakeClock()
        unit_id = units[0].unit_id

        class _SlowFlake(FaultBoundary):
            """Burn the clock, then keep failing transiently."""

            def check(self, inner_unit_id, qid):
                clock.advance(10.0)
                raise TransientModelError("still flapping")

        sleeps = []
        runner = ParallelRunner(
            workers=1, fault_boundary=_SlowFlake(),
            retry=RetryPolicy(max_attempts=5, base_delay=0.1),
            deadline_s=5.0, clock=clock, sleep=sleeps.append)
        outcome = runner.run(units)
        assert "DeadlineExceeded" in outcome.failures[unit_id]
        assert sleeps == []

    def test_breaker_counts_timeouts(self, chipvqa):
        """Deadline timeouts feed the circuit breaker like any other
        unit failure."""
        units = _model_units(chipvqa,
                             categories=(Category.DIGITAL,
                                         Category.ANALOG,
                                         Category.ARCHITECTURE))
        clock = FakeClock()

        class _AllSlow(FaultBoundary):
            def check(self, unit_id, qid):
                clock.advance(10.0)

        breaker = CircuitBreaker(failure_threshold=2)
        runner = ParallelRunner(
            workers=1, fault_boundary=_AllSlow(), breaker=breaker,
            deadline_s=5.0, clock=clock, sleep=lambda d: None)
        outcome = runner.run(units)
        assert len(outcome.failures) == 3
        assert not breaker.allow("gpt-4o")
        assert "CircuitOpenError" in outcome.failures[units[2].unit_id]


class _StatsStub:
    """Duck-typed stand-in for UnitStats in watchdog unit tests."""

    def __init__(self):
        self.status = "pending"
        self.error = None


class TestWatchdog:
    def test_sweep_marks_overdue_units(self):
        clock = FakeClock()
        fired = []
        watchdog = Watchdog(clock=clock, on_timeout=fired.append)
        healthy, wedged = _StatsStub(), _StatsStub()
        watchdog.register("healthy", Deadline(10.0, clock=clock), healthy)
        watchdog.register("wedged", Deadline(1.0, clock=clock), wedged)
        assert watchdog.sweep() == []
        clock.advance(2.0)
        assert watchdog.sweep() == ["wedged"]
        assert wedged.status == "timed_out"
        assert "overdue" in wedged.error
        assert healthy.status == "pending"
        assert fired == ["wedged"]
        assert watchdog.timed_out == ["wedged"]
        # marked once, not again on the next pass
        assert watchdog.sweep() == []

    def test_unregistered_unit_is_not_marked(self):
        clock = FakeClock()
        watchdog = Watchdog(clock=clock)
        stats = _StatsStub()
        watchdog.register("u", Deadline(1.0, clock=clock), stats)
        watchdog.unregister("u")
        clock.advance(5.0)
        assert watchdog.sweep() == []
        assert stats.status == "pending"

    def test_daemon_thread_lifecycle(self):
        watchdog = Watchdog(interval=0.005)
        watchdog.start()
        watchdog.start()  # idempotent
        assert watchdog._thread is not None
        watchdog.stop()
        assert watchdog._thread is None
        watchdog.stop()  # idempotent

    def test_validation(self):
        with pytest.raises(ValueError):
            Watchdog(interval=0.0)

    def test_runner_tears_watchdog_down(self, chipvqa):
        runner = ParallelRunner(workers=1, deadline_s=60.0)
        outcome = runner.run(_units(chipvqa, ("gpt-4o",)))
        assert not outcome.failures
        assert runner._watchdog is None

    def test_thread_workers_start_one_watchdog(self, chipvqa, monkeypatch):
        """The first evaluation under a deadline starts the run's
        watchdog; eight racing pool threads, switching every
        microsecond, still start exactly one, and the run stops it."""
        import sys
        import threading

        from repro.core import runner as runner_mod

        starts = []

        class CountingWatchdog(Watchdog):
            def start(self):
                starts.append(self)
                super().start()

        monkeypatch.setattr(runner_mod, "Watchdog", CountingWatchdog)
        units = [WorkUnit(model=build_model(name), dataset=subset,
                          setting=WITH_CHOICE)
                 for name in ("gpt-4o", "llava-7b", "kosmos-2")
                 for subset in (chipvqa.by_category(category)
                                for category in Category)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = ParallelRunner(workers=8, backend="thread",
                                    deadline_s=60.0)
            outcome = runner.run(units)
        finally:
            sys.setswitchinterval(interval)
        assert not outcome.failures
        assert len(starts) == 1
        assert runner._watchdog is None
        assert not any(thread.name == "runner-watchdog"
                       for thread in threading.enumerate())


class TestQuarantinePolicy:
    def test_admit_budget(self):
        assert QuarantinePolicy().admit(10 ** 6)
        bounded = QuarantinePolicy(max_per_unit=2)
        assert bounded.admit(0) and bounded.admit(1)
        assert not bounded.admit(2)
        assert not QuarantinePolicy(max_per_unit=0).admit(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuarantinePolicy(max_per_unit=-1)

    def test_quarantined_record_is_deterministic(self, chipvqa):
        question = chipvqa.by_category(Category.DIGITAL)[0]
        record = quarantined_record(question)
        assert record.qid == question.qid
        assert record.category == question.category
        assert record.correct is False
        assert record.judge_method == QUARANTINED_METHOD
        assert record.response == ""
        assert record.perception == 0.0
        assert record == quarantined_record(question)
        assert count_quarantined([record]) == 1


class TestQuarantineInRunner:
    def test_poison_question_salvages_rest_of_unit(self, chipvqa,
                                                   tmp_path):
        units = _units(chipvqa)
        qids = [q.qid for q in chipvqa.by_category(Category.DIGITAL)]
        poison_key = f"{units[1].unit_id}::{qids[3]}"
        runner = ParallelRunner(
            workers=1, run_dir=tmp_path,
            fault_boundary=PoisonedQuestions({poison_key}),
            quarantine=QuarantinePolicy(), sleep=lambda d: None)
        outcome = runner.run(units)
        # the poisoned unit completed — salvaged around one question
        assert not outcome.failures
        salvaged = outcome.result_for(units[1])
        assert salvaged.quarantined_count() == 1
        bad = [r for r in salvaged.records if r.qid == qids[3]][0]
        assert bad.judge_method == QUARANTINED_METHOD and not bad.correct
        # the other records match the clean evaluation
        clean = ParallelRunner(workers=1).run(units)
        for mine, ref in zip(salvaged.records,
                             clean.result_for(units[1]).records):
            if mine.qid != qids[3]:
                assert mine == ref
        # counts flow into the manifest and the checkpoint
        manifest = read_manifest(tmp_path)
        per_unit = {u["unit_id"]: u for u in manifest["units"]}
        assert per_unit[units[1].unit_id]["quarantined"] == 1
        assert manifest["totals"]["quarantined"] == 1
        reloaded = results_io.load(tmp_path / f"{units[1].unit_id}.jsonl")
        assert reloaded.quarantined_count() == 1
        assert outcome.result_for(units[1]).telemetry["quarantined"] == 1.0

    def test_without_policy_permanent_fault_fails_unit(self, chipvqa):
        units = _units(chipvqa, ("gpt-4o",))
        qid = chipvqa.by_category(Category.DIGITAL)[0].qid
        runner = ParallelRunner(
            fault_boundary=PoisonedQuestions({qid}), sleep=lambda d: None)
        outcome = runner.run(units)
        assert set(outcome.failures) == {units[0].unit_id}

    def test_budget_exceeded_fails_unit_as_poisoned(self, chipvqa):
        units = _units(chipvqa, ("gpt-4o",))
        qids = [q.qid for q in chipvqa.by_category(Category.DIGITAL)]
        runner = ParallelRunner(
            fault_boundary=PoisonedQuestions(set(qids[:3])),
            quarantine=QuarantinePolicy(max_per_unit=2),
            sleep=lambda d: None)
        outcome = runner.run(units)
        assert set(outcome.failures) == {units[0].unit_id}
        assert "PermanentError" in outcome.failures[units[0].unit_id]

    def test_quarantine_artifacts_deterministic_across_workers(
            self, chipvqa, tmp_path):
        units = _units(chipvqa)
        qids = [q.qid for q in chipvqa.by_category(Category.DIGITAL)]
        poison = {qids[1], f"{units[2].unit_id}::{qids[5]}"}

        def run(workers, run_dir):
            runner = ParallelRunner(
                workers=workers, run_dir=run_dir,
                fault_boundary=PoisonedQuestions(poison),
                quarantine=QuarantinePolicy(), sleep=lambda d: None)
            assert not runner.run(units).failures

        run(1, tmp_path / "serial")
        run(8, tmp_path / "parallel")
        serial = {p.name: p.read_bytes()
                  for p in sorted((tmp_path / "serial").glob("*.jsonl"))}
        parallel = {p.name: p.read_bytes()
                    for p in sorted((tmp_path / "parallel").glob("*.jsonl"))}
        assert serial == parallel


class TestResumeRejectionCounters:
    def test_corrupt_checkpoint_counted_and_reevaluated(self, chipvqa,
                                                        tmp_path):
        units = _units(chipvqa)
        ParallelRunner(workers=1, run_dir=tmp_path).run(units)
        reference = {p.name: p.read_bytes()
                     for p in sorted(tmp_path.glob("*.jsonl"))}
        victim = tmp_path / f"{units[1].unit_id}.jsonl"
        victim.write_bytes(
            victim.read_bytes().replace(b'"correct"', b'"cXrrect"', 1))
        outcome = ParallelRunner(workers=1, run_dir=tmp_path).run(units)
        assert not outcome.failures
        assert outcome.stats.corrupt_checkpoints == 1
        assert outcome.stats.stale_checkpoints == 0
        manifest = read_manifest(tmp_path)
        per_unit = {u["unit_id"]: u for u in manifest["units"]}
        assert per_unit[units[1].unit_id]["corrupt_checkpoints"] == 1
        assert manifest["totals"]["corrupt_checkpoints"] == 1
        # the damaged checkpoint was re-evaluated back to reference bytes
        assert {p.name: p.read_bytes()
                for p in sorted(tmp_path.glob("*.jsonl"))} == reference

    def test_stale_checkpoint_counted(self, chipvqa, tmp_path):
        units = _units(chipvqa, ("gpt-4o",))
        ParallelRunner(workers=1, run_dir=tmp_path).run(units)
        path = tmp_path / f"{units[0].unit_id}.jsonl"
        # a *valid* file whose record count disagrees with the dataset
        shrunk = results_io.load(path)
        shrunk.records.pop()
        results_io.save(shrunk, path)
        outcome = ParallelRunner(workers=1, run_dir=tmp_path).run(units)
        assert not outcome.failures
        assert outcome.stats.stale_checkpoints == 1
        assert outcome.stats.corrupt_checkpoints == 0


class TestRetryPolicyBounds:
    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay(0)
        with pytest.raises(ValueError):
            RetryPolicy().delay(-3)

    def test_large_attempts_stay_capped(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.05,
                             multiplier=2.0, max_delay=1.5)
        # no overflow, no runaway growth: the cap holds forever
        assert policy.delay(50) == 1.5
        assert policy.delay(500) == 1.5

    def test_zero_base_delay_never_sleeps(self):
        policy = RetryPolicy(base_delay=0.0, max_delay=10.0)
        assert [policy.delay(a) for a in (1, 2, 5)] == [0.0, 0.0, 0.0]

    def test_multiplier_one_is_constant_backoff(self):
        policy = RetryPolicy(base_delay=0.2, multiplier=1.0, max_delay=5.0)
        assert [policy.delay(a) for a in (1, 3, 9)] == [0.2, 0.2, 0.2]


class TestCompositeBoundary:
    def test_visits_all_in_order(self):
        first, second = RecordingBoundary(), RecordingBoundary()
        composite = CompositeBoundary(first, second)
        composite("u", "q1")
        composite("u", "q2")
        assert first.calls == [("u", "q1"), ("u", "q2")]
        assert second.calls == first.calls

    def test_short_circuits_on_first_fault(self):
        tail = RecordingBoundary()
        composite = CompositeBoundary(
            PoisonedQuestions({"bad-q"}), tail)
        composite("u", "ok-q")
        with pytest.raises(PermanentError):
            composite("u", "bad-q")
        # the boundary after the fault was not consulted for bad-q
        assert tail.calls == [("u", "ok-q")]

    def test_empty_composite_is_noop(self):
        CompositeBoundary()("u", "q")


class TestAdmissionPolicy:
    """The composed admission seam both runs and the service gate on."""

    def test_empty_policy_admits_everything(self):
        policy = AdmissionPolicy()
        assert policy.refuse_unit("gpt-4o") is None
        assert policy.refuse_request(10 ** 6) is None
        assert policy.deadline() is None
        # no quarantine policy -> permanent faults keep failing units
        assert not policy.may_quarantine(0)
        assert policy.as_dict() == {}

    def test_cancellation_refuses_units(self):
        cancelled = {"flag": False}
        policy = AdmissionPolicy(cancelled=lambda: cancelled["flag"])
        assert policy.refuse_unit("gpt-4o") is None
        cancelled["flag"] = True
        refusal = policy.refuse_unit("gpt-4o")
        assert refusal is not None and "JobCancelled" in refusal

    def test_cancellation_outranks_breaker(self):
        """A cancelled run must not spend breaker bookkeeping on units
        it will never evaluate."""
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure("gpt-4o", "down")
        policy = AdmissionPolicy(breaker=breaker, cancelled=lambda: True)
        refusal = policy.refuse_unit("gpt-4o")
        assert "JobCancelled" in refusal
        assert breaker.as_dict()["fast_fails"] == {}

    def test_breaker_refusal_counts_fast_fail(self):
        breaker = CircuitBreaker(failure_threshold=1)
        policy = AdmissionPolicy(breaker=breaker)
        policy.record_failure("gpt-4o", "down")
        refusal = policy.refuse_unit("gpt-4o")
        assert "CircuitOpenError" in refusal
        assert breaker.as_dict()["fast_fails"] == {"gpt-4o": 1}

    def test_refuse_request_bounds_backlog(self):
        policy = AdmissionPolicy(max_pending=2)
        assert policy.refuse_request(1) is None
        refusal = policy.refuse_request(2)
        assert "queue full" in refusal and "max_pending 2" in refusal

    def test_deadline_minted_per_unit(self):
        clock = FakeClock()
        policy = AdmissionPolicy(deadline_s=5.0)
        deadline = policy.deadline(clock=clock)
        assert deadline.remaining() == 5.0
        clock.advance(6.0)
        assert deadline.expired

    def test_validation(self):
        with pytest.raises(ValueError, match="deadline_s"):
            AdmissionPolicy(deadline_s=-1.0)
        with pytest.raises(ValueError, match="max_pending"):
            AdmissionPolicy(max_pending=0)

    def test_as_dict_round_trip(self):
        policy = AdmissionPolicy(breaker=CircuitBreaker(3),
                                 quarantine=QuarantinePolicy(),
                                 deadline_s=2.0, max_pending=8)
        data = policy.as_dict()
        assert data["deadline_s"] == 2.0
        assert data["max_pending"] == 8
        assert data["breaker"]["failure_threshold"] == 3
