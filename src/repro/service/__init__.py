"""Evaluation-as-a-service: HTTP job queue over the EvalEngine core.

The batch harness and this service share one execution substrate —
:class:`~repro.core.engine.EvalEngine` under a
:class:`~repro.core.runner.ParallelRunner` — so a served sweep produces
artifacts byte-identical to a batch run.  The pieces:

* :mod:`repro.service.jobs` — the in-process async job queue
  (:class:`~repro.service.jobs.JobQueue`): submit / status / streamed
  results / cancellation, with a backlog cap (queued plus running jobs
  at ``max_pending`` are *rejected*, never queued into a hang);
* :mod:`repro.service.server` — the stdlib-only HTTP layer
  (``eval-serve`` CLI) exposing the queue at ``/v1/jobs`` plus a
  Prometheus-style ``/metrics`` endpoint;
* :mod:`repro.service.client` —
  :class:`~repro.service.client.EvalServiceClient`, the thin
  retry-aware client the ``table2 --service URL`` path uses;
* :mod:`repro.service.metrics` — the text exposition shared by
  ``/metrics`` and ``table2 --metrics-out``.

See ``docs/SERVICE.md`` for endpoints, the job lifecycle and the
load-bench methodology (``benchmarks/bench_service_load.py``).
"""

from repro.service.client import EvalServiceClient, ServiceError
from repro.service.jobs import Job, JobQueue, JobRejected
from repro.service.metrics import render_prometheus

__all__ = [
    "EvalServiceClient",
    "Job",
    "JobQueue",
    "JobRejected",
    "ServiceError",
    "render_prometheus",
]
