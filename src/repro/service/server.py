"""The stdlib-only HTTP layer of the evaluation service.

``eval-serve`` (this module's :func:`main`) wraps a
:class:`~repro.service.jobs.JobQueue` in a
:class:`http.server.ThreadingHTTPServer` — no web framework, nothing
outside the standard library, same dependency posture as the rest of
the repo.  Endpoints:

========================================  ==================================
``POST /v1/jobs``                         submit a job spec → 202
                                          ``{"job_id": ...}``; 503 with the
                                          admission refusal when the queue
                                          is saturated; 400 on a bad spec
``GET  /v1/jobs/<id>``                    job status snapshot (404 unknown)
``GET  /v1/jobs/<id>/results?offset=N``   incremental result lines —
                                          canonical checkpoint payloads,
                                          read from the job's run dir —
                                          plus the next cursor and a
                                          ``complete`` flag; 410 when a
                                          checkpoint was removed
``POST /v1/jobs/<id>/cancel``             request cancellation (unit
                                          granularity; see docs/SERVICE.md)
``GET  /metrics``                         Prometheus text exposition of
                                          queue counters + this process's
                                          perception caches
``GET  /healthz``                         liveness probe → ``ok``
========================================  ==================================

The server is threaded so a long-polling results client never blocks a
submit; evaluation itself runs on the queue's worker threads, not on
request threads.
"""

from __future__ import annotations

import argparse
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.core import perfstats
from repro.service.jobs import DEFAULT_MAX_PENDING, JobQueue, JobRejected
from repro.service.metrics import render_prometheus


class EvalHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server carrying the job queue for its handlers."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], queue: JobQueue) -> None:
        super().__init__(address, _Handler)
        self.queue = queue

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    server: EvalHTTPServer

    # Silence per-request stderr logging; /metrics is the telemetry
    # surface.
    def log_message(self, format: str, *args: object) -> None:
        pass

    def _send_json(self, code: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[Dict[str, object]]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return parsed if isinstance(parsed, dict) else None

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["healthz"]:
            self._send_text(200, "ok\n")
        elif parts == ["metrics"]:
            self._send_text(200, render_prometheus(
                perf_caches=perfstats.snapshot(),
                extra=self.server.queue.metrics()))
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            self._job_status(parts[2])
        elif (len(parts) == 4 and parts[:2] == ["v1", "jobs"]
                and parts[3] == "results"):
            self._job_results(parts[2], parse_qs(parsed.query))
        else:
            self._send_json(404, {"error": f"no route for {parsed.path}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        if parts == ["v1", "jobs"]:
            self._submit()
        elif (len(parts) == 4 and parts[:2] == ["v1", "jobs"]
                and parts[3] == "cancel"):
            self._cancel(parts[2])
        else:
            self._send_json(404, {"error": f"no route for {self.path}"})

    # -- handlers ------------------------------------------------------------

    def _submit(self) -> None:
        spec = self._read_body()
        if spec is None:
            self._send_json(400, {"error": "body must be a JSON object"})
            return
        try:
            job = self.server.queue.submit(spec)
        except JobRejected as exc:
            self._send_json(503, {"error": str(exc)})
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
        else:
            self._send_json(202, {"job_id": job.job_id,
                                  "status": job.status})

    def _get_job(self, job_id: str):
        try:
            return self.server.queue.get(job_id)
        except KeyError:
            self._send_json(404, {"error": f"no such job {job_id!r}"})
            return None

    def _job_status(self, job_id: str) -> None:
        job = self._get_job(job_id)
        if job is not None:
            self._send_json(200, job.snapshot())

    def _job_results(self, job_id: str,
                     query: Dict[str, list]) -> None:
        job = self._get_job(job_id)
        if job is None:
            return
        try:
            offset = int(query.get("offset", ["0"])[0])
        except ValueError:
            self._send_json(400, {"error": "offset must be an integer"})
            return
        try:
            lines, next_offset, complete = job.results_since(offset)
        except OSError as exc:
            self._send_json(410, {"error": f"results of job {job_id!r} "
                                           f"are gone: {exc}"})
            return
        self._send_json(200, {
            "lines": lines,
            "next_offset": next_offset,
            "complete": complete,
            "status": job.status,
        })

    def _cancel(self, job_id: str) -> None:
        job = self._get_job(job_id)
        if job is not None:
            self.server.queue.cancel(job_id)
            self._send_json(200, job.snapshot())


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    queue: Optional[JobQueue] = None,
    **queue_kwargs: object,
) -> EvalHTTPServer:
    """Start a service on ``host:port`` (0 = ephemeral) in a daemon
    thread and return the server (``server.url`` for clients,
    ``server.shutdown()`` + ``server.queue.shutdown()`` to stop).
    Extra keyword arguments construct the :class:`JobQueue`.
    """
    import threading

    if queue is None:
        queue = JobQueue(**queue_kwargs)  # type: ignore[arg-type]
    server = EvalHTTPServer((host, port), queue)
    thread = threading.Thread(target=server.serve_forever,
                              name="eval-serve", daemon=True)
    thread.start()
    return server


def main(argv: Optional[list] = None) -> int:
    """``eval-serve`` console entry point."""
    parser = argparse.ArgumentParser(
        prog="eval-serve",
        description="Serve ChipVQA evaluations over an HTTP job queue.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8377)
    parser.add_argument("--queue-workers", type=int, default=2,
                        help="concurrently running jobs (default: 2)")
    parser.add_argument("--max-pending", type=int,
                        default=DEFAULT_MAX_PENDING,
                        help="queued+running jobs before 503 "
                             "(default: %(default)s)")
    parser.add_argument("--run-root", default=None,
                        help="checkpoint root; one directory per job "
                             "(default: a temp directory)")
    args = parser.parse_args(argv)
    queue = JobQueue(
        queue_workers=args.queue_workers,
        run_root=args.run_root,
        max_pending=args.max_pending)
    server = EvalHTTPServer((args.host, args.port), queue)
    print(f"eval-serve listening on {server.url} "
          f"(queue workers: {args.queue_workers}, "
          f"max pending: {args.max_pending})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
        queue.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
