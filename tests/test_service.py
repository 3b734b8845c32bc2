"""Tests for the evaluation service (:mod:`repro.service`).

Covers the serving stack end-to-end over real HTTP sockets: golden
byte-identity through the ``table2 --service`` driver, offset-resumable
result streaming (including a torn connection mid-stream), mid-run job
cancellation, replica failover under a tripped circuit breaker,
saturation rejection (503, never a hang), and the Prometheus text
exposition shared with ``table2 --metrics-out``.
"""

import hashlib
import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.core.faults import TransientModelError
from repro.core.resilience import AdmissionPolicy, CircuitBreaker
from repro.models.providers import create_provider
from repro.service.client import EvalServiceClient, ServiceError
from repro.service.jobs import JobQueue, JobRejected, validate_spec
from repro.service.metrics import render_prometheus
from repro.service.router import ProviderRouter
from repro.service.server import serve

#: Same pin as tests/test_provider_contract.py: sha256 over the sorted
#: checkpoint artifacts of a serial full-zoo ``run_table2``.  A *served*
#: sweep runs the same EvalEngine substrate, so its artifacts must
#: reproduce the digest byte-for-byte.
GOLDEN_TABLE2_DIGEST = (
    "0cc1564958013cfdc74622cfc12c3c559f8660e6ceadd87b606ec64ef7a39f9f")
GOLDEN_TABLE2_FILES = 24


def _digest_run_dir(run_dir) -> str:
    files = sorted(p for p in run_dir.glob("*.jsonl")
                   if p.name != "commits.jsonl")
    combined = hashlib.sha256()
    for path in files:
        combined.update(
            path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return combined.hexdigest()


@pytest.fixture()
def server(tmp_path):
    srv = serve(queue_workers=2, run_root=tmp_path / "serve")
    yield srv
    srv.shutdown()
    srv.queue.shutdown()


class _Flaky:
    """A replica that fails its first ``fail_times`` calls, then
    delegates — same name/fingerprint as its inner, so it satisfies the
    router's identity check."""

    def __init__(self, inner, fail_times):
        self.inner = inner
        self.fail_times = fail_times
        self.calls = 0

    @property
    def name(self):
        return self.inner.name

    def config_fingerprint(self):
        return self.inner.config_fingerprint()

    def answer_batch(self, questions, setting, resolution_factor=1,
                     use_raster=True):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise TransientModelError("simulated replica outage")
        return self.inner.answer_batch(questions, setting,
                                       resolution_factor,
                                       use_raster=use_raster)


class TestSpecValidation:
    def test_models_required(self):
        with pytest.raises(ValueError, match="non-empty list"):
            validate_spec({"models": []})

    def test_bad_setting_rejected(self):
        with pytest.raises(ValueError, match="setting"):
            validate_spec({"models": ["gpt-4o"], "setting": "sideways"})

    def test_defaults_normalised(self):
        spec = validate_spec({"models": ["gpt-4o"]})
        assert spec["setting"] == "both"
        assert spec["backend"] == "async"
        assert spec["workers"] == 1

    def test_unknown_model_rejected_at_submit(self, tmp_path):
        queue = JobQueue(queue_workers=1, run_root=tmp_path)
        try:
            with pytest.raises(ValueError, match="unknown model"):
                queue.submit({"models": ["made-up-model"]})
        finally:
            queue.shutdown()


class TestServedGoldenIdentity:
    def test_table2_service_reproduces_golden_digest(self, server,
                                                     capsys):
        """The acceptance pin through the third driver: a full-zoo
        sweep submitted via ``table2 --service`` writes server-side
        checkpoints byte-identical to the batch golden digest."""
        assert main(["table2", "--service", server.url,
                     "--backend", "serial"]) == 0
        out = capsys.readouterr().out
        assert "GPT4o" in out and "fuyu-8b" in out
        match = re.search(r"server artifacts in (\S+)", out)
        assert match, out
        from pathlib import Path

        run_dir = Path(match.group(1))
        files = sorted(run_dir.glob("*.jsonl"))
        assert len(files) == GOLDEN_TABLE2_FILES
        assert _digest_run_dir(run_dir) == GOLDEN_TABLE2_DIGEST

    def test_streamed_lines_match_checkpoint_bytes(self, server):
        """The stream IS the artifact: every line a client receives is
        the canonical checkpoint payload, byte-for-byte."""
        client = EvalServiceClient(server.url)
        job_id = client.submit_job({"models": ["gpt-4o", "llava-7b"],
                                    "backend": "serial"})
        lines = client.collect(job_id)
        snapshot = client.job_status(job_id)
        assert snapshot["status"] == "completed"
        assert snapshot["units_done"] == snapshot["units_total"] == 4
        from pathlib import Path

        run_dir = Path(snapshot["run_dir"])
        disk = sorted(p.read_text(encoding="utf-8")
                      for p in run_dir.glob("*.jsonl"))
        assert sorted(lines) == disk

    def test_single_setting_job(self, server):
        client = EvalServiceClient(server.url)
        job_id = client.submit_job({"models": ["kosmos-2"],
                                    "setting": "standard",
                                    "backend": "serial"})
        client.wait(job_id, timeout_s=60)
        snapshot = client.job_status(job_id)
        assert snapshot["units_total"] == 1
        (line,) = client.collect(job_id)
        header = json.loads(line.splitlines()[0])
        assert header["setting"] == "with_choice"
        assert header["model"] == "kosmos-2"


class TestCancellation:
    def _slow_spec(self, models):
        # Real latency per provider call so a cancel lands mid-run.
        return {"models": models, "backend": "serial",
                "latency_s": 0.15}

    def test_cancel_mid_run_stops_at_unit_boundary(self, tmp_path):
        queue = JobQueue(queue_workers=1, run_root=tmp_path)
        try:
            job = queue.submit(self._slow_spec(
                ["gpt-4o", "llava-7b", "kosmos-2"]))
            # wait for the first completed unit, then cancel
            while True:
                lines, _, complete = job.results_since(0)
                if lines or complete:
                    break
                time.sleep(0.01)
            queue.cancel(job.job_id)
            assert job.wait(timeout=60)
            assert job.status == "cancelled"
            assert "cancelled" in (job.error or "")
            # progress was made, but the sweep did not run to the end
            assert 0 < job.units_done < job.units_total
            # refused units are accounted, not silently dropped
            assert job.units_failed > 0
            assert queue.metrics()["jobs_cancelled"] == 1
        finally:
            queue.shutdown()

    def test_cancel_queued_job_never_runs(self, tmp_path):
        queue = JobQueue(queue_workers=1, run_root=tmp_path)
        try:
            blocker = queue.submit(self._slow_spec(["gpt-4o"]))
            queued = queue.submit({"models": ["kosmos-2"],
                                   "backend": "serial"})
            queue.cancel(queued.job_id)
            assert queued.status == "cancelled"
            assert queued.units_done == 0
            queue.cancel(blocker.job_id)
            assert blocker.wait(timeout=60)
        finally:
            queue.shutdown()

    def test_cancel_over_http(self, server):
        client = EvalServiceClient(server.url)
        job_id = client.submit_job(self._slow_spec(
            ["gpt-4o", "llava-7b", "kosmos-2", "fuyu-8b"]))
        stream = client.stream_results(job_id)
        next(stream)  # at least one unit landed
        snapshot = client.cancel(job_id)
        assert snapshot["status"] in ("running", "cancelled")
        final = client.wait(job_id, timeout_s=60)
        assert final["status"] == "cancelled"
        # the stream drains cleanly instead of hanging
        remaining = list(stream)
        assert len(remaining) + 1 < 8


class TestRouterFailover:
    def test_identity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one provider name"):
            ProviderRouter([create_provider("gpt-4o"),
                            create_provider("kosmos-2")])

    def test_failover_on_mid_call_fault(self, chipvqa):
        healthy = create_provider("gpt-4o")
        flaky = _Flaky(create_provider("gpt-4o"), fail_times=1)
        router = ProviderRouter([flaky, healthy])
        questions = list(chipvqa)[:3]
        answers = router.answer_batch(questions, "with_choice")
        assert len(answers) == 3
        stats = router.stats()
        assert stats["failovers"] == 1
        assert stats["dispatches"] == [1, 1]

    def test_tripped_breaker_ejects_replica(self, chipvqa):
        """Once the flaky replica's circuit opens, traffic routes to
        the healthy replica without even trying the ejected one."""
        healthy = create_provider("gpt-4o")
        flaky = _Flaky(create_provider("gpt-4o"), fail_times=10 ** 9)
        router = ProviderRouter([flaky, healthy], failure_threshold=2)
        questions = list(chipvqa)[:2]
        for _ in range(5):
            router.answer_batch(questions, "with_choice")
        # two failures tripped the breaker; after that the flaky
        # replica's call count stops growing
        assert flaky.calls == 2
        stats = router.stats()
        assert stats["failovers"] == 2
        assert stats["ejections"] >= 3
        assert stats["breaker"]["open"] == ["replica-0"]

    def test_all_ejected_raises_transient(self, chipvqa):
        flaky = _Flaky(create_provider("gpt-4o"), fail_times=10 ** 9)
        breaker = CircuitBreaker(1)
        router = ProviderRouter([flaky], breaker=breaker)
        questions = list(chipvqa)[:1]
        with pytest.raises(TransientModelError):
            router.answer_batch(questions, "with_choice")
        with pytest.raises(TransientModelError, match="ejected"):
            router.answer_batch(questions, "with_choice")

    def test_served_job_with_replicas(self, server):
        """A replicated job still reproduces the canonical bytes —
        routing is invisible in the artifacts."""
        client = EvalServiceClient(server.url)
        solo = client.submit_job({"models": ["kosmos-2"],
                                  "backend": "serial"})
        replicated = client.submit_job({"models": ["kosmos-2"],
                                        "backend": "serial",
                                        "replicas": 3})
        assert sorted(client.collect(solo)) == sorted(
            client.collect(replicated))


class TestClientRetry:
    def test_torn_stream_resumes_from_offset(self, server):
        """A connection reset mid-stream is retried with backoff and
        the offset cursor guarantees no dropped or duplicated lines."""
        real_open = urllib.request.urlopen
        calls = {"n": 0}

        def torn_opener(request, timeout=None):
            calls["n"] += 1
            if calls["n"] == 2:  # tear the first results poll
                raise ConnectionResetError("connection torn mid-read")
            return real_open(request, timeout=timeout)

        client = EvalServiceClient(server.url, opener=torn_opener,
                                   backoff_s=0.01)
        job_id = client.submit_job({"models": ["gpt-4o"],
                                    "backend": "serial"})
        lines = client.collect(job_id)
        assert len(lines) == 2
        assert len(set(lines)) == 2
        assert client.transport_retries == 1

    def test_retries_exhausted_raise_service_error(self):
        def always_torn(request, timeout=None):
            raise ConnectionResetError("nope")

        client = EvalServiceClient("http://127.0.0.1:9", retries=2,
                                   backoff_s=0.0, opener=always_torn)
        with pytest.raises(ServiceError, match="after 3 attempt"):
            client.job_status("whatever")
        assert client.transport_retries == 2

    def test_http_error_is_not_retried(self, server):
        client = EvalServiceClient(server.url)
        with pytest.raises(ServiceError, match="404"):
            client.job_status("no-such-job")
        assert client.transport_retries == 0


class TestSaturation:
    def test_queue_rejects_past_max_pending(self, tmp_path):
        queue = JobQueue(queue_workers=1, run_root=tmp_path,
                         admission=AdmissionPolicy(max_pending=1))
        try:
            blocker = queue.submit({"models": ["gpt-4o"],
                                    "backend": "serial",
                                    "latency_s": 0.2})
            with pytest.raises(JobRejected, match="queue full"):
                queue.submit({"models": ["kosmos-2"]})
            assert queue.metrics()["jobs_rejected"] == 1
            queue.cancel(blocker.job_id)
            assert blocker.wait(timeout=60)
        finally:
            queue.shutdown()

    def test_http_503_raises_job_rejected(self, tmp_path):
        srv = serve(queue_workers=1, run_root=tmp_path,
                    admission=AdmissionPolicy(max_pending=1))
        try:
            client = EvalServiceClient(srv.url)
            blocker = client.submit_job({"models": ["gpt-4o"],
                                         "backend": "serial",
                                         "latency_s": 0.2})
            with pytest.raises(JobRejected, match="queue full"):
                client.submit_job({"models": ["kosmos-2"]})
            client.cancel(blocker)
            client.wait(blocker, timeout_s=60)
        finally:
            srv.shutdown()
            srv.queue.shutdown()

    def test_shutdown_queue_rejects(self, tmp_path):
        queue = JobQueue(queue_workers=1, run_root=tmp_path)
        queue.shutdown()
        with pytest.raises(JobRejected, match="shut down"):
            queue.submit({"models": ["gpt-4o"]})


class TestMetricsEndpoint:
    def test_render_is_deterministic(self):
        kwargs = dict(
            perf_caches={"figure": {"hits": 3, "misses": 1,
                                    "evictions": 0, "size": 2}},
            extra={"jobs_submitted": 2, "jobs_running": 1})
        first = render_prometheus(**kwargs)
        assert first == render_prometheus(**kwargs)
        assert 'repro_cache_hits{cache="figure"} 3' in first
        assert "# TYPE repro_cache_size gauge" in first
        assert "repro_service_jobs_submitted 2" in first
        assert first.endswith("\n")

    def test_render_exports_quarantined_spill_entries(self):
        text = render_prometheus(perf_caches={"perception": {
            "hits": 1, "misses": 3, "evictions": 0, "size": 1,
            "spill_hits": 0, "spill_misses": 3, "spill_corrupt": 2}})
        assert "# TYPE repro_cache_spill_corrupt counter" in text
        assert 'repro_cache_spill_corrupt{cache="perception"} 2' in text

    def test_empty_render_is_empty(self):
        assert render_prometheus() == ""

    def test_metrics_endpoint_tracks_queue(self, server):
        client = EvalServiceClient(server.url)
        job_id = client.submit_job({"models": ["kosmos-2"],
                                    "backend": "serial"})
        client.wait(job_id, timeout_s=60)
        text = client.metrics()
        assert "repro_service_jobs_submitted 1" in text
        assert "repro_service_jobs_completed 1" in text
        assert "repro_service_units_evaluated 2" in text

    def test_healthz(self, server):
        with urllib.request.urlopen(f"{server.url}/healthz") as response:
            assert response.read() == b"ok\n"

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/nope")
        assert excinfo.value.code == 404


class TestConcurrentJobs:
    def test_parallel_clients_share_the_queue(self, server):
        """Several clients submitting concurrently all complete, and
        consecutive jobs over the same models reuse the shared
        harness's perception caches."""
        client = EvalServiceClient(server.url)
        results = {}
        errors = []

        def one(index):
            try:
                job_id = client.submit_job({"models": ["kosmos-2"],
                                            "backend": "serial"})
                results[index] = sorted(client.collect(job_id))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(results) == 4
        baseline = results[0]
        assert all(lines == baseline for lines in results.values())
