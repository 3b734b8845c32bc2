"""Sweep-coordinator tests: commit-log chaining and tail repair, lease
ownership with steal detection, the shared result store's corruption
quarantine, and multi-node fleets converging byte-identically to a
single-runner run through node deaths and heartbeat blackouts."""

import json
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import results_io
from repro.core.coordinator import (
    GENESIS,
    CommitConflict,
    CommitLog,
    LeaseTable,
    Node,
    ResultStore,
    SweepCoordinator,
    audit_commit_log,
    payload_digest,
)
from repro.core.faults import (
    FaultBoundary,
    GateBoundary,
    NodeCrashBoundary,
    NodeKilled,
    PermanentError,
)
from repro.core.harness import EvaluationHarness
from repro.core.question import Category
from repro.core.resilience import CircuitBreaker
from repro.core.runner import ParallelRunner, WorkUnit, read_manifest
from repro.models import WITH_CHOICE, build_model


def _units(chipvqa, model_names=("gpt-4o", "llava-7b", "kosmos-2")):
    subset = chipvqa.by_category(Category.DIGITAL)
    return [WorkUnit(model=build_model(name), dataset=subset,
                     setting=WITH_CHOICE) for name in model_names]


def _payload(unit) -> str:
    """The canonical checkpoint payload a fault-free run writes."""
    result = EvaluationHarness().evaluate(unit.provider, unit.dataset,
                                          unit.setting)
    return results_io.dumps(result, telemetry=False) + "\n"


class TestCommitLog:
    def test_commit_then_duplicate_then_conflict(self):
        log = CommitLog()
        assert log.commit("u1", "a" * 64, "node-0") == "committed"
        assert log.commit("u1", "a" * 64, "node-1") == "duplicate"
        assert len(log) == 1
        assert log.committed("u1") == "a" * 64
        assert log.committed("u2") is None
        with pytest.raises(CommitConflict, match="double-commit"):
            log.commit("u1", "b" * 64, "node-1")

    def test_persistence_and_chain_audit(self, tmp_path):
        path = tmp_path / "commits.jsonl"
        log = CommitLog.open(path)
        for index in range(3):
            log.commit(f"u{index}", f"{index}" * 64, "node-0")
        valid, total, detail = audit_commit_log(path)
        assert (valid, total, detail) == (3, 3, "")
        reopened = CommitLog.open(path)
        assert reopened.repaired == 0
        assert len(reopened) == 3
        assert reopened.committed("u1") == "1" * 64
        # the chain extends across reopen: prev links stay verifiable
        reopened.commit("u3", "3" * 64, "node-1")
        assert audit_commit_log(path)[:2] == (4, 4)

    def test_first_entry_chains_to_genesis(self, tmp_path):
        path = tmp_path / "commits.jsonl"
        CommitLog.open(path).commit("u0", "f" * 64, "node-0")
        entry = json.loads(path.read_text(encoding="utf-8"))
        assert entry["prev"] == GENESIS
        assert entry["seq"] == 0

    def test_mid_chain_edit_breaks_audit(self, tmp_path):
        path = tmp_path / "commits.jsonl"
        log = CommitLog.open(path)
        log.commit("u0", "a" * 64, "node-0")
        log.commit("u1", "b" * 64, "node-0")
        path.write_text(
            path.read_text(encoding="utf-8").replace("a" * 64, "c" * 64),
            encoding="utf-8")
        valid, total, detail = audit_commit_log(path)
        assert valid == 0 and total == 2
        assert "checksum" in detail

    def test_torn_tail_is_repaired_on_open(self, tmp_path):
        path = tmp_path / "commits.jsonl"
        log = CommitLog.open(path)
        log.commit("u0", "a" * 64, "node-0")
        log.commit("u1", "b" * 64, "node-0")
        whole = path.read_text(encoding="utf-8")
        path.write_text(whole[:-25], encoding="utf-8")  # tear last line
        repaired = CommitLog.open(path)
        assert repaired.repaired == 1
        assert repaired.committed("u0") == "a" * 64
        assert repaired.committed("u1") is None
        assert audit_commit_log(path)[:2] == (1, 1)
        # the repaired log keeps accepting chained commits
        repaired.commit("u1", "b" * 64, "node-2")
        assert audit_commit_log(path)[:2] == (2, 2)

    def test_fresh_discards_existing_log(self, tmp_path):
        path = tmp_path / "commits.jsonl"
        CommitLog.open(path).commit("u0", "a" * 64, "node-0")
        fresh = CommitLog.open(path, fresh=True)
        assert len(fresh) == 0
        assert not path.exists()


class TestLeaseTable:
    def test_acquire_release_holder(self):
        table = LeaseTable(lease_s=10.0)
        assert table.acquire("u1", "node-0", now=0.0) is False
        assert table.holder("u1") == "node-0"
        table.release("u1", "node-1")  # not the holder: no-op
        assert table.holder("u1") == "node-0"
        table.release("u1", "node-0")
        assert table.holder("u1") is None

    def test_expiry_and_renew(self):
        table = LeaseTable(lease_s=5.0)
        table.acquire("u1", "node-0", now=0.0)
        assert table.expired(now=4.9) == []
        assert table.expired(now=5.0) == [("u1", "node-0")]
        table.renew_node("node-0", now=4.0)
        assert table.expired(now=5.0) == []
        assert table.expired(now=9.0) == [("u1", "node-0")]

    def test_reacquire_by_other_node_is_a_steal(self):
        table = LeaseTable(lease_s=1.0)
        table.acquire("u1", "node-0", now=0.0)
        table.release("u1", "node-0")
        assert table.acquire("u1", "node-1", now=2.0) is True
        # same node taking its own unit back is not a steal
        table.release("u1", "node-1")
        assert table.acquire("u1", "node-1", now=3.0) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            LeaseTable(lease_s=0.0)


class TestResultStore:
    def test_put_get_and_counters(self, chipvqa, tmp_path):
        unit = _units(chipvqa, ("gpt-4o",))[0]
        store = ResultStore(tmp_path)
        assert store.get(unit) is None
        payload = _payload(unit)
        store.put(unit, payload)
        assert store.get(unit) == payload
        assert store.get(unit, expected_sha256=payload_digest(payload)) \
            == payload
        assert store.counters() == {"store_hits": 2, "store_misses": 1,
                                    "store_quarantined": 0,
                                    "store_digest_reuse": 0}

    def test_bit_flip_is_quarantined_not_fatal(self, chipvqa, tmp_path):
        unit = _units(chipvqa, ("gpt-4o",))[0]
        store = ResultStore(tmp_path)
        store.put(unit, _payload(unit))
        entry = store.path_for(unit)
        blob = entry.read_bytes()
        entry.write_bytes(blob.replace(b"correct", b"cXrrect", 1))
        assert store.get(unit) is None
        assert store.counters()["store_quarantined"] == 1
        assert not entry.exists()  # evicted, so a rebuild can land
        store.put(unit, _payload(unit))
        assert store.get(unit) is not None

    def test_commit_log_disagreement_is_quarantined(self, chipvqa,
                                                    tmp_path):
        unit = _units(chipvqa, ("gpt-4o",))[0]
        store = ResultStore(tmp_path)
        store.put(unit, _payload(unit))
        assert store.get(unit, expected_sha256="0" * 64) is None
        assert store.counters()["store_quarantined"] == 1

    def test_wrong_units_payload_is_quarantined(self, chipvqa, tmp_path):
        gpt, llava = _units(chipvqa, ("gpt-4o", "llava-7b"))
        store = ResultStore(tmp_path)
        store.put(gpt, _payload(llava))  # cross-wired artifact
        assert store.get(gpt) is None
        assert store.counters()["store_quarantined"] == 1


class TestValidation:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="nodes"):
            SweepCoordinator(nodes=0)
        with pytest.raises(ValueError, match="node backend"):
            SweepCoordinator(nodes=2, node_backend="gpu")
        with pytest.raises(ValueError, match="lease_s"):
            SweepCoordinator(nodes=2, lease_s=0.0)
        with pytest.raises(ValueError, match="poll_interval"):
            SweepCoordinator(nodes=2, poll_interval=0.0)
        with pytest.raises(ValueError, match="node backend"):
            Node("node-0", "gpu")

    def test_duplicate_unit_ids_rejected(self, chipvqa):
        units = _units(chipvqa, ("gpt-4o", "gpt-4o"))
        coordinator = SweepCoordinator(nodes=2)
        with pytest.raises(ValueError, match="duplicate unit ids"):
            coordinator.run(units)

    def test_workers_mirrors_fleet_width(self):
        assert SweepCoordinator(nodes=3).workers == 3


class TestCoordinatedRuns:
    def test_fleet_matches_single_runner_bytes(self, chipvqa, tmp_path):
        units = _units(chipvqa)
        fleet_dir = tmp_path / "fleet"
        coordinator = SweepCoordinator(nodes=3, run_dir=fleet_dir)
        outcome = coordinator.run(units)
        assert not outcome.failures
        stats = coordinator.last_stats
        assert stats.completed == len(units)
        assert stats.coordinator["nodes"] == 3
        assert stats.coordinator["nodes_lost"] == 0

        solo_dir = tmp_path / "solo"
        solo = ParallelRunner(workers=1, run_dir=solo_dir)
        assert not solo.run(units).failures
        for unit in units:
            name = f"{unit.unit_id}.jsonl"
            assert ((fleet_dir / name).read_bytes()
                    == (solo_dir / name).read_bytes())

        manifest = read_manifest(fleet_dir)
        assert manifest["coordinator"]["nodes"] == 3
        assert manifest["totals"]["coordinator"]["nodes"] == 3
        nodes = {u["node"] for u in manifest["units"]}
        assert nodes <= {"node-0", "node-1", "node-2"}
        audit = results_io.verify_run(fleet_dir)
        assert audit.ok
        assert {f.name for f in audit.files} >= {"commits.jsonl"}

    def test_resume_skips_committed_units(self, chipvqa, tmp_path):
        units = _units(chipvqa, ("gpt-4o", "llava-7b"))
        first = SweepCoordinator(nodes=2, run_dir=tmp_path)
        assert not first.run(units).failures
        log_bytes = (tmp_path / "commits.jsonl").read_bytes()

        second = SweepCoordinator(nodes=2, run_dir=tmp_path)
        outcome = second.run(units)
        assert not outcome.failures
        assert second.last_stats.resumed == len(units)
        # exactly-once: resume re-commits nothing already in the log
        assert (tmp_path / "commits.jsonl").read_bytes() == log_bytes

    def test_lost_checkpoint_recovers_from_shared_store(self, chipvqa,
                                                        tmp_path):
        units = _units(chipvqa, ("gpt-4o", "llava-7b"))
        run_dir, store_dir = tmp_path / "run", tmp_path / "store"
        first = SweepCoordinator(nodes=2, run_dir=run_dir,
                                 store_dir=store_dir)
        assert not first.run(units).failures
        victim = run_dir / f"{units[0].unit_id}.jsonl"
        original = victim.read_bytes()
        victim.unlink()

        second = SweepCoordinator(nodes=2, run_dir=run_dir,
                                  store_dir=store_dir)
        assert not second.run(units).failures
        stats = second.last_stats
        assert stats.resumed == len(units)
        assert stats.coordinator["store_hits"] >= 1
        assert victim.read_bytes() == original

    def test_torn_commit_log_repairs_and_reconciles(self, chipvqa,
                                                    tmp_path):
        units = _units(chipvqa, ("gpt-4o", "llava-7b"))
        first = SweepCoordinator(nodes=2, run_dir=tmp_path)
        assert not first.run(units).failures
        log_path = tmp_path / "commits.jsonl"
        whole = log_path.read_text(encoding="utf-8")
        log_path.write_text(whole[:-30], encoding="utf-8")

        second = SweepCoordinator(nodes=2, run_dir=tmp_path)
        outcome = second.run(units)
        assert not outcome.failures
        stats = second.last_stats
        assert stats.resumed == len(units)
        assert stats.coordinator["commit_repairs"] == 1
        # the dropped entry was re-committed from its intact checkpoint
        assert audit_commit_log(log_path)[:2] == (len(units), len(units))
        assert results_io.verify_run(tmp_path).ok

    def test_node_death_steals_unit_and_converges(self, chipvqa,
                                                  tmp_path):
        units = _units(chipvqa)
        subset = chipvqa.by_category(Category.DIGITAL)
        boundary = NodeCrashBoundary(
            flag_path=tmp_path / "crash.flag",
            crash_on=f"{units[1].unit_id}::{subset[2].qid}")
        fleet_dir = tmp_path / "fleet"
        coordinator = SweepCoordinator(nodes=2, run_dir=fleet_dir,
                                       fault_boundary=boundary,
                                       lease_s=30.0)
        outcome = coordinator.run(units)
        assert not outcome.failures
        stats = coordinator.last_stats
        assert stats.completed == len(units)
        assert stats.coordinator["nodes_lost"] == 1
        assert stats.coordinator["units_stolen"] >= 1
        assert stats.unit(units[1].unit_id).steals >= 1

        solo_dir = tmp_path / "solo"
        assert not ParallelRunner(workers=1,
                                  run_dir=solo_dir).run(units).failures
        for unit in units:
            name = f"{unit.unit_id}.jsonl"
            assert ((fleet_dir / name).read_bytes()
                    == (solo_dir / name).read_bytes())

    def test_every_node_lost_degrades_instead_of_hanging(self, chipvqa,
                                                         tmp_path):
        units = _units(chipvqa, ("gpt-4o", "llava-7b"))
        subset = chipvqa.by_category(Category.DIGITAL)
        boundary = NodeCrashBoundary(flag_path=tmp_path / "crash.flag",
                                     crash_on=subset[0].qid)
        coordinator = SweepCoordinator(nodes=1, run_dir=tmp_path / "run",
                                       fault_boundary=boundary)
        outcome = coordinator.run(units)
        assert set(outcome.failures) == {u.unit_id for u in units}
        assert all("NodeLost" in error
                   for error in outcome.failures.values())
        stats = coordinator.last_stats
        assert stats.coordinator["nodes_lost"] == 1
        assert stats.coordinator["nodes"] == 1

    def test_heartbeat_blackout_is_stolen_and_deduplicated(self, chipvqa,
                                                           tmp_path):
        """A wedged node blacks out mid-unit: its lease expires, a
        healthy node steals and re-executes the unit, and the victim's
        late result is deduplicated at commit time — not double-counted,
        not corrupting."""
        units = _units(chipvqa)
        subset = chipvqa.by_category(Category.DIGITAL)
        gate = GateBoundary(flag_path=tmp_path / "gate.flag",
                            block_on=f"{units[0].unit_id}::{subset[3].qid}",
                            max_block_s=0.6)
        fleet_dir = tmp_path / "fleet"
        coordinator = SweepCoordinator(
            nodes=2, run_dir=fleet_dir, fault_boundary=gate,
            lease_s=0.1, heartbeat_timeout_s=60.0, poll_interval=0.02)
        outcome = coordinator.run(units)
        assert not outcome.failures
        stats = coordinator.last_stats
        assert stats.completed == len(units)
        counters = stats.coordinator
        assert counters["nodes_lost"] == 0
        assert counters["lease_expirations"] >= 1
        assert counters["units_stolen"] >= 1
        assert counters["duplicate_commits"] == 1
        # the log holds exactly one commit per unit despite the dup
        assert audit_commit_log(fleet_dir / "commits.jsonl")[:2] \
            == (len(units), len(units))

        solo_dir = tmp_path / "solo"
        assert not ParallelRunner(workers=1,
                                  run_dir=solo_dir).run(units).failures
        for unit in units:
            name = f"{unit.unit_id}.jsonl"
            assert ((fleet_dir / name).read_bytes()
                    == (solo_dir / name).read_bytes())


class _ModelDown(FaultBoundary):
    """Permanently fault every crossing of one model's units."""

    def __init__(self, model_prefix: str):
        self.model_prefix = model_prefix

    def check(self, unit_id: str, qid: str) -> None:
        if unit_id.startswith(self.model_prefix):
            raise PermanentError(f"{self.model_prefix} is down")


class TestBreakerIntegration:
    def _gpt_units(self, chipvqa):
        return [
            WorkUnit(model=build_model("gpt-4o"),
                     dataset=chipvqa.by_category(category),
                     setting=WITH_CHOICE)
            for category in (Category.DIGITAL, Category.ANALOG,
                             Category.PHYSICAL)
        ]

    def test_open_circuit_fast_fails_across_the_fleet(self, chipvqa,
                                                      tmp_path):
        units = self._gpt_units(chipvqa)
        breaker = CircuitBreaker(failure_threshold=1)
        coordinator = SweepCoordinator(nodes=1, run_dir=tmp_path,
                                       fault_boundary=_ModelDown("gpt-4o"),
                                       breaker=breaker)
        outcome = coordinator.run(units)
        assert set(outcome.failures) == {u.unit_id for u in units}
        stats = coordinator.last_stats
        assert stats.failed == 1
        assert stats.fast_failed == 2
        manifest = read_manifest(tmp_path)
        assert manifest["breaker"]["open"] == ["gpt-4o"]
        assert manifest["breaker"]["fast_fails"] == {"gpt-4o": 2}

    def test_half_open_probe_recovers_the_model(self, chipvqa, tmp_path):
        """With a cooldown, an open circuit admits one trial unit; the
        trial's success closes the circuit and the rest of the model's
        units run normally instead of fast-failing."""
        units = self._gpt_units(chipvqa)
        first_qid = chipvqa.by_category(Category.DIGITAL)[0].qid
        from repro.core.faults import ScriptedFaults
        boundary = ScriptedFaults({
            f"{units[0].unit_id}::{first_qid}":
                [PermanentError("transient outage")],
        })
        # a stepping clock makes the cooldown elapse deterministically
        # between breaker calls, independent of wall time
        ticks = iter(range(10 ** 6))
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=1.0,
                                 clock=lambda: float(next(ticks)))
        coordinator = SweepCoordinator(nodes=1, run_dir=tmp_path,
                                       fault_boundary=boundary,
                                       breaker=breaker)
        outcome = coordinator.run(units)
        assert set(outcome.failures) == {units[0].unit_id}
        stats = coordinator.last_stats
        assert stats.failed == 1
        assert stats.fast_failed == 0
        assert stats.completed == 2
        assert breaker.state("gpt-4o") == "closed"


class TestProcessNodes:
    def test_node_worker_forks_never_overlap(self, chipvqa, tmp_path,
                                             monkeypatch):
        """Two process nodes start at once, each forking its worker.  A
        fork inside another's launch window hands the second worker the
        first one's sentinel pipe, which hides the first worker's death
        (no ``BrokenProcessPool``), so launches must never overlap."""
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
        coordinator = SweepCoordinator(nodes=2, node_backend="process",
                                       run_dir=tmp_path, lease_s=60.0)
        units = _units(chipvqa, ("gpt-4o", "llava-7b"))
        assert not coordinator.run(units).failures
        assert counts["peak"] == 1

    def test_submit_to_a_dead_group_is_a_node_death(self):
        """A group whose worker died after its last unit returned
        refuses the next submit; that is a node death, not a crash of
        the run."""

        class _DeadGroup:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("worker died after its last unit")

        node = Node("node-0", "process")
        node._pool = _DeadGroup()
        with pytest.raises(NodeKilled, match="worker process died"):
            node.execute(spec=None, options=None)
        assert node._pool is None

    def test_process_fleet_matches_inline_bytes(self, chipvqa, tmp_path):
        units = _units(chipvqa, ("gpt-4o", "llava-7b"))
        proc_dir = tmp_path / "proc"
        coordinator = SweepCoordinator(nodes=2, node_backend="process",
                                       run_dir=proc_dir, lease_s=60.0)
        outcome = coordinator.run(units)
        assert not outcome.failures
        assert coordinator.last_stats.completed == len(units)

        inline_dir = tmp_path / "inline"
        inline = SweepCoordinator(nodes=2, run_dir=inline_dir)
        assert not inline.run(units).failures
        for unit in units:
            name = f"{unit.unit_id}.jsonl"
            assert ((proc_dir / name).read_bytes()
                    == (inline_dir / name).read_bytes())
