"""Tests for the evaluation service's result stream: lines are read
back from each job's checkpoints, so a long-lived ``eval-serve`` keeps
no payloads in memory, and a stream whose checkpoint is gone answers
an HTTP error instead of dropping the connection."""

import gc
import json
import tracemalloc
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.service import jobs
from repro.service.client import EvalServiceClient, ServiceError
from repro.service.jobs import Job, JobQueue
from repro.service.server import serve

SPEC = {"models": ["gpt-4o", "llava-7b"], "backend": "serial"}


def _checkpoint_bytes(job) -> int:
    return sum(path.stat().st_size
               for path in Path(job.run_dir).glob("*.jsonl"))


class TestResultStream:
    def test_server_memory_does_not_grow_with_jobs_served(self, tmp_path):
        """Retained memory grows from job 2 to job 8 by less than one
        job's payload: the queue keeps unit ids, not payloads."""
        queue = JobQueue(queue_workers=1, run_root=tmp_path)
        try:
            for _ in range(2):
                assert queue.submit(SPEC).wait(timeout=120)
            gc.collect()
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                for _ in range(6):
                    job = queue.submit(SPEC)
                    assert job.wait(timeout=120)
                    assert job.status == "completed"
                    lines, _, complete = job.results_since(0)
                    assert complete and len(lines) == 4
                del lines
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - start
            finally:
                tracemalloc.stop()
            assert grown < _checkpoint_bytes(job)
        finally:
            queue.shutdown()

    def test_queue_keeps_a_bounded_number_of_finished_jobs(
            self, tmp_path, monkeypatch):
        """Past ``MAX_FINISHED_JOBS`` finished jobs the earliest one is
        forgotten, as an unknown id is; the rest still report their
        status and stream their results."""
        monkeypatch.setattr(jobs, "MAX_FINISHED_JOBS", 2)
        server = serve(queue_workers=1, run_root=tmp_path)
        client = EvalServiceClient(server.url)
        try:
            job_ids = []
            for _ in range(3):
                job = server.queue.submit(SPEC)
                assert job.wait(timeout=120)
                job_ids.append(job.job_id)
            with pytest.raises(ServiceError, match="404"):
                client.job_status(job_ids[0])
            for job_id in job_ids[1:]:
                assert client.job_status(job_id)["status"] == "completed"
                assert len(list(client.stream_results(job_id))) == 4
        finally:
            server.shutdown()
            server.queue.shutdown()

    def test_complete_page_never_misses_a_last_line(self, tmp_path,
                                                    monkeypatch):
        """A page that reports the job complete carries every line: the
        last unit landing while a page is read is served next poll."""
        job = Job(dict(SPEC), tmp_path)
        for unit_id in ("a", "b"):
            (tmp_path / f"{unit_id}.jsonl").write_text(unit_id)
        job.append_result("a")
        read_bytes = Path.read_bytes

        def racing_read(path):
            if not job.wait(timeout=0):
                job.append_result("b")
                job.finish("completed")
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", racing_read)
        seen, offset = [], 0
        for _ in range(3):
            lines, offset, complete = job.results_since(offset)
            seen += lines
            if complete:
                break
        assert complete and seen == ["a", "b"]

    def test_missing_checkpoint_answers_http_error(self, tmp_path):
        server = serve(queue_workers=1, run_root=tmp_path / "serve")
        try:
            client = EvalServiceClient(server.url)
            job_id = client.submit_job({"models": ["kosmos-2"],
                                        "setting": "standard",
                                        "backend": "serial"})
            client.wait(job_id, timeout_s=60)
            run_dir = Path(client.job_status(job_id)["run_dir"])
            (checkpoint,) = run_dir.glob("*.jsonl")
            checkpoint.unlink()
            url = f"{server.url}/v1/jobs/{job_id}/results?offset=0"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=10)
            assert excinfo.value.code == 410
            body = json.loads(excinfo.value.read().decode("utf-8"))
            assert checkpoint.name in body["error"]
            with pytest.raises(ServiceError, match="410"):
                client.collect(job_id)
            # the server keeps serving after the error
            assert client.job_status(job_id)["status"] == "completed"
        finally:
            server.shutdown()
            server.queue.shutdown()
