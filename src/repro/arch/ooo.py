"""Out-of-order execution: hazard classification.

Covers the OoO exam staple of naming the RAW/WAR/WAW hazards in a code
fragment; WAR and WAW are the false dependences register renaming removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.arch.pipeline import Instr


@dataclass(frozen=True)
class Hazard:
    kind: str        # RAW | WAR | WAW
    earlier: int     # index of the earlier instruction
    later: int
    register: str


def classify_hazards(trace: Sequence[Instr]) -> List[Hazard]:
    """All register hazards between instruction pairs (nearest producer).

    RAW: later reads a register an earlier writes.
    WAR: later writes a register an earlier reads.
    WAW: later writes a register an earlier writes.
    """
    hazards: List[Hazard] = []
    for j, later in enumerate(trace):
        for i in range(j - 1, -1, -1):
            earlier = trace[i]
            if later.srcs and earlier.dst in later.srcs:
                hazards.append(Hazard("RAW", i, j, earlier.dst))
            if later.dst is not None:
                if later.dst in earlier.srcs:
                    hazards.append(Hazard("WAR", i, j, later.dst))
                if earlier.dst == later.dst:
                    hazards.append(Hazard("WAW", i, j, later.dst))
    return hazards


def hazard_counts(trace: Sequence[Instr]) -> Dict[str, int]:
    """RAW/WAR/WAW hazard totals for a trace."""
    counts = {"RAW": 0, "WAR": 0, "WAW": 0}
    for hazard in classify_hazards(trace):
        counts[hazard.kind] += 1
    return counts
