"""Clock-tree synthesis: H-trees, skew analysis, useful skew, buffering."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.physical.geometry import Point


@dataclass(frozen=True)
class ClockSink:
    name: str
    location: Point
    insertion_delay: float  # source-to-sink latency, ns


def skew(sinks: Sequence[ClockSink]) -> float:
    """Global skew: max minus min insertion delay."""
    if not sinks:
        raise ValueError("no sinks")
    delays = [s.insertion_delay for s in sinks]
    return max(delays) - min(delays)


def h_tree_levels(n_sinks: int) -> int:
    """Levels of a balanced H-tree serving ``n_sinks`` (power of 4)."""
    if n_sinks < 1:
        raise ValueError("need at least one sink")
    levels = 0
    while 4 ** levels < n_sinks:
        levels += 1
    return levels


def setup_slack(clock_period: float, data_arrival: float,
                setup_time: float, capture_skew: float = 0.0) -> float:
    """Setup slack = T + skew(capture - launch) - arrival - t_setup."""
    return clock_period + capture_skew - data_arrival - setup_time


def hold_slack(data_arrival: float, hold_time: float,
               capture_skew: float = 0.0) -> float:
    """Hold slack = arrival - skew - t_hold (same-edge check)."""
    return data_arrival - capture_skew - hold_time


def useful_skew_gain(path_delays: Sequence[float]) -> float:
    """Period reduction available by skewing registers (retiming bound).

    With arbitrary intentional skew the achievable period approaches the
    *average* stage delay instead of the maximum; the gain is the
    difference.
    """
    if not path_delays:
        raise ValueError("no paths")
    return max(path_delays) - sum(path_delays) / len(path_delays)


def buffers_needed(total_cap_ff: float, drive_cap_ff: float) -> int:
    """Buffers to drive a capacitive load within a per-buffer budget."""
    if drive_cap_ff <= 0:
        raise ValueError("drive capability must be positive")
    if total_cap_ff < 0:
        raise ValueError("load must be non-negative")
    return max(1, math.ceil(total_cap_ff / drive_cap_ff))


def elmore_delay(r_stages: Sequence[float],
                 c_stages: Sequence[float]) -> float:
    """Elmore delay of an RC ladder: sum_i R_upstream(i) * C_i.

    ``r_stages[i]`` is the resistance of segment i (source side first),
    ``c_stages[i]`` the capacitance at its downstream node.
    """
    if len(r_stages) != len(c_stages):
        raise ValueError("mismatched RC stage lists")
    delay = 0.0
    upstream = 0.0
    for r, c in zip(r_stages, c_stages):
        upstream += r
        delay += upstream * c
    return delay
