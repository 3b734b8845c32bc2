"""Tests for the CI work-count gate: ``benchmarks/perfbench_work.json``
covers every count and bytes metric the benchmark reports, and
``benchmarks/perfbench_work.py`` fails on any difference, naming it."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHECKER = ROOT / "benchmarks" / "perfbench_work.py"
WORK = json.loads((ROOT / "benchmarks" / "perfbench_work.json")
                  .read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _check(workload, metrics):
    line = json.dumps({"correct": True, "metrics": {
        name: {"value": value, "unit": "count"}
        for name, value in metrics.items()}})
    return subprocess.run([sys.executable, str(CHECKER), workload],
                          input=line, capture_output=True, text=True,
                          timeout=60)


class TestWorkFile:
    def test_covers_every_count_and_bytes_metric(self):
        expected = {metric["name"] for metric in BENCHMARK["per_layer"]
                    if metric["unit"] in ("count", "bytes")}
        expected -= set(WORK["excluded"])
        assert set(WORK["excluded"]) == {"engine.manifest_writes",
                                         "service.requests_per_job"}
        assert set(WORK["workloads"]) == {
            workload["name"] for workload in BENCHMARK["workloads"]}
        for metrics in WORK["workloads"].values():
            assert set(metrics) == expected


class TestChecker:
    WORKLOAD = "paper-cold"

    def test_matching_run_passes(self):
        done = _check(self.WORKLOAD, WORK["workloads"][self.WORKLOAD])
        assert done.returncode == 0, done.stdout

    def test_extra_call_fails_and_names_the_metric(self):
        metrics = dict(WORK["workloads"][self.WORKLOAD])
        metrics["judge.calls"] += 1
        done = _check(self.WORKLOAD, metrics)
        assert done.returncode == 1
        expected = WORK["workloads"][self.WORKLOAD]["judge.calls"]
        assert (f"judge.calls: expected {expected!r}, got "
                f"{metrics['judge.calls']!r}") in done.stdout

    def test_missing_metric_fails(self):
        metrics = dict(WORK["workloads"][self.WORKLOAD])
        del metrics["provider.calls"]
        done = _check(self.WORKLOAD, metrics)
        assert done.returncode == 1
        assert "provider.calls" in done.stdout

    @pytest.mark.parametrize("scale, ok", [(1 + 1e-12, True),
                                           (1 + 1e-6, False)])
    def test_ratios_compare_to_relative_tolerance(self, scale, ok):
        metrics = dict(WORK["workloads"][self.WORKLOAD])
        metrics["provider.questions_per_call"] *= scale
        assert (_check(self.WORKLOAD, metrics).returncode == 0) is ok
