"""Load benchmark for the evaluation service (docs/SERVICE.md).

An open-loop load generator drives a real in-process
``eval-serve`` instance over HTTP sockets: job arrivals follow a
seeded Poisson process (exponential inter-arrival times) dispatched by
at least eight concurrent client threads — open-loop, so arrivals do
NOT slow down when the service does, which is what exposes queueing
behaviour that closed-loop (request-response-request) loops hide.

Two shapes are pinned:

* **throughput + latency distribution** — a paced arrival stream over
  a 2-worker queue completes every job; the bench reports offered and
  achieved QPS and p50/p95/p99 job turnaround (submit -> terminal
  status) from the client's perspective;
* **graceful saturation** — arrivals far past capacity against a
  ``max_pending=2`` queue are *rejected fast* with a 503-style
  :class:`~repro.service.jobs.JobRejected` (the queue's backlog cap), never
  queued into an unbounded hang: rejections must come back orders of
  magnitude faster than an evaluation takes, and accepted jobs still
  all complete.

Latency knobs are simulated (``latency_s`` rides on
:class:`~repro.models.providers.RemoteStubProvider`), so the bench
measures scheduling/admission policy, not model compute.
"""

import random
import statistics
import threading
import time

import pytest

from repro.service.client import EvalServiceClient
from repro.service.jobs import JobRejected
from repro.service.server import serve

#: Concurrent client threads in the load generator (the acceptance
#: floor is eight).
CLIENTS = 8

#: Jobs per load phase.
JOBS = 16

#: Seed for the Poisson arrival process — identical arrival timelines
#: across runs.
SEED = 20260809


def _percentiles(samples):
    ordered = sorted(samples)

    def pct(p):
        index = min(len(ordered) - 1,
                    max(0, round(p / 100 * (len(ordered) - 1))))
        return ordered[index]

    return pct(50), pct(95), pct(99)


class _LoadGenerator:
    """Open-loop Poisson arrivals fanned over a client-thread pool."""

    def __init__(self, url, rate_per_s, jobs=JOBS, clients=CLIENTS,
                 spec=None, seed=SEED):
        self.url = url
        self.rate = rate_per_s
        self.jobs = jobs
        self.clients = clients
        self.spec = spec or {"models": ["kosmos-2"], "backend": "serial"}
        self.rng = random.Random(seed)
        self.latencies = []
        self.rejections = []
        self.rejection_times = []
        self.errors = []
        self._lock = threading.Lock()
        self._work = []

    def _client_loop(self, index):
        client = EvalServiceClient(self.url)
        while True:
            with self._lock:
                if not self._work:
                    return
                fire_at = self._work.pop(0)
            delay = fire_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            start = time.perf_counter()
            try:
                job_id = client.submit_job(dict(self.spec))
                client.wait(job_id, timeout_s=120)
                with self._lock:
                    self.latencies.append(time.perf_counter() - start)
            except JobRejected as exc:
                with self._lock:
                    self.rejections.append(str(exc))
                    self.rejection_times.append(
                        time.perf_counter() - start)
            except BaseException as exc:  # pragma: no cover - surfaced
                with self._lock:
                    self.errors.append(exc)

    def run(self):
        """Fire all arrivals; returns wall-clock duration."""
        now = time.perf_counter()
        fire_at = now
        schedule = []
        for _ in range(self.jobs):
            fire_at += self.rng.expovariate(self.rate)
            schedule.append(fire_at)
        self._work = schedule
        threads = [threading.Thread(target=self._client_loop, args=(i,))
                   for i in range(self.clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not self.errors, self.errors
        return time.perf_counter() - start


def test_open_loop_throughput_and_latency(tmp_path):
    """A paced Poisson stream over a 2-worker queue: every job
    completes, and the client-side turnaround distribution is
    reported."""
    server = serve(queue_workers=2, run_root=tmp_path / "serve")
    try:
        generator = _LoadGenerator(server.url, rate_per_s=6.0)
        wall = generator.run()
        assert len(generator.latencies) == JOBS
        assert not generator.rejections
        p50, p95, p99 = _percentiles(generator.latencies)
        offered = JOBS / (JOBS / 6.0)
        achieved = JOBS / wall
        print(f"\nopen-loop load: {CLIENTS} clients, "
              f"{JOBS} jobs, Poisson rate 6.0/s (seed {SEED})")
        print(f"  offered {offered:.1f} QPS   achieved "
              f"{achieved:.1f} jobs/s over {wall:.2f}s")
        print(f"  turnaround p50 {p50 * 1000:.0f} ms   "
              f"p95 {p95 * 1000:.0f} ms   p99 {p99 * 1000:.0f} ms   "
              f"mean {statistics.mean(generator.latencies) * 1000:.0f} ms")
        # shape pin: the queue keeps up with a paced stream — p95 stays
        # within an order of magnitude of p50, not unboundedly queued
        assert p95 <= max(p50 * 10, p50 + 5.0)
    finally:
        server.shutdown()
        server.queue.shutdown()


def test_saturation_rejects_fast_instead_of_hanging(tmp_path):
    """Past saturation the admission gate answers 503 immediately:
    rejected submissions return far faster than an evaluation, and
    every *accepted* job still completes."""
    server = serve(queue_workers=1, run_root=tmp_path / "serve",
                   max_pending=2)
    try:
        # each job holds the single worker for ~0.4s of simulated
        # latency; a burst of 16 must overflow max_pending=2
        spec = {"models": ["kosmos-2"], "backend": "serial",
                "latency_s": 0.2}
        generator = _LoadGenerator(server.url, rate_per_s=50.0,
                                   spec=spec)
        generator.run()
        completed = len(generator.latencies)
        rejected = len(generator.rejections)
        assert completed + rejected == JOBS
        assert rejected > 0, "burst never saturated the queue"
        assert completed > 0, "admission rejected everything"
        assert all("queue full" in message
                   for message in generator.rejections)
        # a rejection is an admission decision, not a timeout: it must
        # come back well under one job's simulated service time
        slowest_rejection = max(generator.rejection_times)
        print(f"\nsaturation: {completed} completed, {rejected} "
              f"rejected with 503 (max_pending=2)")
        print(f"  slowest rejection {slowest_rejection * 1000:.0f} ms "
              f"vs >= 400 ms of service time per job")
        assert slowest_rejection < 0.35
    finally:
        server.shutdown()
        server.queue.shutdown()


@pytest.mark.slow
def test_sustained_load_metrics_account_everything(tmp_path):
    """Longer sustained phase: the /metrics ledger balances — every
    submission is exactly one of completed/rejected, and the queue
    drains to idle."""
    server = serve(queue_workers=2, run_root=tmp_path / "serve",
                   max_pending=8)
    try:
        generator = _LoadGenerator(server.url, rate_per_s=12.0,
                                   jobs=48)
        generator.run()
        client = EvalServiceClient(server.url)
        text = client.metrics()
        counters = {
            line.split()[0]: float(line.split()[1])
            for line in text.splitlines()
            if line.startswith("repro_service_")}
        submitted = counters["repro_service_jobs_submitted"]
        completed = counters["repro_service_jobs_completed"]
        assert submitted == len(generator.latencies)
        assert completed == submitted
        assert counters["repro_service_jobs_rejected"] == len(
            generator.rejections)
        assert counters["repro_service_jobs_queued"] == 0
        assert counters["repro_service_jobs_running"] == 0
        print(f"\nsustained: {submitted:.0f} accepted, "
              f"{len(generator.rejections)} rejected, ledger balanced")
    finally:
        server.shutdown()
        server.queue.shutdown()
