"""Vector processor timing: chimes, strip-mining, Amdahl arithmetic."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Set, Tuple


@dataclass(frozen=True)
class VectorOp:
    """One vector instruction with its functional unit and register usage."""

    name: str
    unit: str
    dst: str
    srcs: Tuple[str, ...] = ()


def chimes(ops: Sequence[VectorOp], allow_chaining: bool = True) -> int:
    """Number of convoys/chimes for a vector sequence.

    A new convoy starts when an op needs a functional unit already used in
    the current convoy, or (without chaining) reads a register written in
    the current convoy.
    """
    if not ops:
        return 0
    convoys = 1
    units: Set[str] = set()
    written: Set[str] = set()
    for op in ops:
        conflict = op.unit in units
        if not allow_chaining and any(s in written for s in op.srcs):
            conflict = True
        if conflict:
            convoys += 1
            units = set()
            written = set()
        units.add(op.unit)
        written.add(op.dst)
    return convoys


def strip_mine_iterations(n: int, mvl: int) -> int:
    """Loop iterations to process ``n`` elements with max vector length."""
    if n < 0 or mvl < 1:
        raise ValueError("bad sizes")
    return math.ceil(n / mvl) if n else 0


def amdahl_speedup(parallel_fraction: float, speedup_factor: float) -> float:
    """Amdahl's law."""
    if not 0 <= parallel_fraction <= 1:
        raise ValueError("fraction must be a probability")
    if speedup_factor <= 0:
        raise ValueError("speedup factor must be positive")
    return 1.0 / ((1 - parallel_fraction) + parallel_fraction / speedup_factor)


def roofline_gflops(peak_gflops: float, bandwidth_gbs: float,
                    intensity: float) -> float:
    """Attainable performance under the roofline model."""
    if min(peak_gflops, bandwidth_gbs, intensity) <= 0:
        raise ValueError("all inputs must be positive")
    return min(peak_gflops, bandwidth_gbs * intensity)
