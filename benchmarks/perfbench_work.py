"""Check a traced perfbench run's work counts against their expected values.

Usage::

    python3 perfbench/run.py --workload paper-cold --seconds 5 --trace 1 \\
        | tail -n 1 | python3 benchmarks/perfbench_work.py paper-cold

Reads the run's last stdout line (its JSON result) on stdin and compares
every metric that ``perfbench_work.json`` lists for the workload: the
per-operation counts and byte totals of a seed-0 run.  Unlike timings
they are exact on any host, so a layer doing more or less work than it
did (an extra provider or judge call, a renamed wrapped layer that no
longer records) shows up as a difference.  Exits 1 and prints each
metric that differs with its expected and actual value; a change that
alters work on purpose updates ``perfbench_work.json`` in the same diff.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

WORK = Path(__file__).with_name("perfbench_work.json")

#: Relative tolerance; only ratios such as ``provider.questions_per_call``
#: are not whole numbers.
REL_TOL = 1e-9


def differences(expected: Dict[str, float],
                metrics: Dict[str, dict]) -> List[str]:
    """One line per expected metric that the run's metrics miss or
    disagree with."""
    problems = []
    for name, want in sorted(expected.items()):
        got = metrics.get(name, {}).get("value")
        if got is None:
            problems.append(f"{name}: expected {want!r}, got no value")
        elif not math.isclose(got, want, rel_tol=REL_TOL):
            problems.append(f"{name}: expected {want!r}, got {got!r}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/perfbench_work.py",
        description="compare a traced perfbench result line, read on "
                    "stdin, with the expected work counts")
    parser.add_argument("workload")
    args = parser.parse_args(argv)
    workloads = json.loads(WORK.read_text(encoding="utf-8"))["workloads"]
    if args.workload not in workloads:
        parser.error(f"no expected work for {args.workload!r}; known: "
                     f"{', '.join(sorted(workloads))}")
    expected = workloads[args.workload]
    result = json.loads(sys.stdin.read())
    problems = differences(expected, result["metrics"])
    for problem in problems:
        print(f"WORK CHANGED ({args.workload}) {problem}")
    if problems:
        return 1
    print(f"{args.workload}: all {len(expected)} work counts as expected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
