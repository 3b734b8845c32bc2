"""Static timing analysis on a combinational timing graph.

A :class:`TimingGraph` is a DAG of pins with delay-annotated arcs.  Provides
arrival/required-time propagation, slack, critical-path extraction — the STA
mechanics Physical Design questions test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


@dataclass(frozen=True)
class Arc:
    src: str
    dst: str
    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("negative arc delay")


class TimingGraph:
    """Delay-annotated DAG with startpoints (inputs) and endpoints."""

    def __init__(self) -> None:
        self._arcs: List[Arc] = []
        self._succ: Dict[str, List[Arc]] = {}
        self._pred: Dict[str, List[Arc]] = {}
        self._nodes: Set[str] = set()

    def arc(self, src: str, dst: str, delay: float) -> "TimingGraph":
        edge = Arc(src, dst, delay)
        self._arcs.append(edge)
        self._succ.setdefault(src, []).append(edge)
        self._pred.setdefault(dst, []).append(edge)
        self._nodes.add(src)
        self._nodes.add(dst)
        return self

    @property
    def nodes(self) -> Set[str]:
        return set(self._nodes)

    def startpoints(self) -> List[str]:
        return sorted(n for n in self._nodes if n not in self._pred)

    def endpoints(self) -> List[str]:
        return sorted(n for n in self._nodes if n not in self._succ)

    def _toposort(self) -> List[str]:
        indegree = {n: 0 for n in self._nodes}
        for arc in self._arcs:
            indegree[arc.dst] += 1
        ready = sorted(n for n, d in indegree.items() if d == 0)
        order: List[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for arc in self._succ.get(node, ()):
                indegree[arc.dst] -= 1
                if indegree[arc.dst] == 0:
                    ready.append(arc.dst)
            ready.sort()
        if len(order) != len(self._nodes):
            raise ValueError("timing graph has a cycle")
        return order

    def arrival_times(
        self, input_arrivals: Optional[Dict[str, float]] = None
    ) -> Dict[str, float]:
        """Latest arrival at every node (inputs default to 0)."""
        arrivals = {n: 0.0 for n in self.startpoints()}
        if input_arrivals:
            arrivals.update(input_arrivals)
        for node in self._toposort():
            for arc in self._succ.get(node, ()):
                candidate = arrivals.get(node, 0.0) + arc.delay
                if candidate > arrivals.get(arc.dst, float("-inf")):
                    arrivals[arc.dst] = candidate
        return arrivals

    def required_times(self, clock_period: float) -> Dict[str, float]:
        """Latest tolerable arrival at every node for a period constraint."""
        required = {n: clock_period for n in self.endpoints()}
        for node in reversed(self._toposort()):
            for arc in self._succ.get(node, ()):
                candidate = required[arc.dst] - arc.delay
                if candidate < required.get(node, float("inf")):
                    required[node] = candidate
        return required

    def slacks(self, clock_period: float) -> Dict[str, float]:
        arrivals = self.arrival_times()
        required = self.required_times(clock_period)
        return {n: required[n] - arrivals[n] for n in self._nodes}

    def worst_slack(self, clock_period: float) -> float:
        return min(self.slacks(clock_period).values())

    def critical_path(self) -> Tuple[List[str], float]:
        """(node sequence, delay) of the longest path."""
        arrivals = self.arrival_times()
        end = max(self.endpoints(), key=lambda n: arrivals[n])
        path = [end]
        node = end
        while node not in self.startpoints():
            best_arc = max(
                self._pred[node],
                key=lambda a: arrivals[a.src] + a.delay,
            )
            node = best_arc.src
            path.append(node)
        path.reverse()
        return path, arrivals[end]

    def min_clock_period(self, setup_time: float = 0.0,
                         clk_to_q: float = 0.0) -> float:
        """Smallest period: clk-to-q + longest combinational path + setup."""
        _, delay = self.critical_path()
        return clk_to_q + delay + setup_time
