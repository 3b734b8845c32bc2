"""Tests for ``benchmarks/perfbench_history.jsonl``, the A/B record of
speed-up changes: every line is one complete, self-consistent record of
alternating parent/change perfbench runs (format in docs/PERF.md)."""

import json
import math
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HISTORY = ROOT / "benchmarks" / "perfbench_history.jsonl"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BETTER = {metric["name"]: metric["better"]
          for metric in BENCHMARK["end_to_end"]}
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
KEYS = {"change", "parent", "workload", "seeds", "seconds", "runs",
        "medians", "pairs_won", "probe_ms", "steal"}
SIDES = ("parent", "change")


def records():
    lines = HISTORY.read_text(encoding="utf-8").splitlines()
    return [(number, json.loads(line))
            for number, line in enumerate(lines, 1)]


def beats(metric, change, parent):
    if BETTER[metric] == "lower":
        return change < parent
    return change > parent


def test_history_has_records():
    assert records()


def test_every_line_has_the_record_keys():
    for number, record in records():
        assert set(record) == KEYS, f"line {number}"
        assert record["workload"] in WORKLOADS, f"line {number}"
        assert record["change"] and record["parent"], f"line {number}"
        assert record["seconds"] > 0, f"line {number}"
        assert set(record["pairs_won"]) == set(BETTER), f"line {number}"


def test_runs_and_diagnostics_cover_every_seed_on_both_sides():
    for number, record in records():
        pairs = len(record["seeds"])
        assert pairs >= 1, f"line {number}"
        for side in SIDES:
            assert len(record["runs"][side]) == pairs, f"line {number}"
            for run in record["runs"][side]:
                assert set(run) == set(BETTER), f"line {number}"
            probes = record["probe_ms"][side]
            assert len(probes) == pairs, f"line {number}"
            assert all(len(start_end) == 2 for start_end in probes)
            assert len(record["steal"][side]) == pairs, f"line {number}"


def test_medians_and_pairs_won_follow_from_the_runs():
    for number, record in records():
        runs = record["runs"]
        for metric in BETTER:
            for side in SIDES:
                median = statistics.median(run[metric] for run in runs[side])
                assert math.isclose(record["medians"][side][metric], median,
                                    abs_tol=1e-4), (number, side, metric)
            won = sum(beats(metric, change[metric], parent[metric])
                      for parent, change in zip(runs["parent"],
                                                runs["change"]))
            assert record["pairs_won"][metric] == won, (number, metric)
