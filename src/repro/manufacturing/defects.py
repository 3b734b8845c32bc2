"""Wafer defects: classification signatures and critical-area analysis."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence


class DefectClass(enum.Enum):
    """Spatial defect signatures a wafer map can exhibit."""

    PARTICLE = "particle"
    SCRATCH = "scratch"
    EDGE_RING = "edge ring"
    CLUSTER = "cluster"
    RANDOM = "random"


@dataclass(frozen=True)
class WaferMapSignature:
    """Spatial statistics of a wafer defect map."""

    linear_fit_r2: float        # how well defects fit a line
    edge_fraction: float        # fraction within the edge exclusion band
    cluster_factor: float       # variance-to-mean ratio of per-die counts

    def __post_init__(self) -> None:
        if not 0 <= self.linear_fit_r2 <= 1:
            raise ValueError("r2 must be in [0, 1]")
        if not 0 <= self.edge_fraction <= 1:
            raise ValueError("edge fraction must be in [0, 1]")
        if self.cluster_factor < 0:
            raise ValueError("cluster factor must be non-negative")


def classify_map(signature: WaferMapSignature) -> DefectClass:
    """Rule-based classification mirroring how process engineers read maps."""
    if signature.linear_fit_r2 > 0.9:
        return DefectClass.SCRATCH
    if signature.edge_fraction > 0.7:
        return DefectClass.EDGE_RING
    if signature.cluster_factor > 2.0:
        return DefectClass.CLUSTER
    return DefectClass.RANDOM


def cluster_factor(per_die_counts: Sequence[int]) -> float:
    """Variance-to-mean ratio; 1 for Poisson (random), >1 for clustering."""
    if not per_die_counts:
        raise ValueError("no counts")
    n = len(per_die_counts)
    mean = sum(per_die_counts) / n
    if mean == 0:
        return 0.0
    variance = sum((c - mean) ** 2 for c in per_die_counts) / n
    return variance / mean


def critical_area_wires(defect_diameter_um: float, wire_width_um: float,
                        wire_space_um: float, layout_area_um2: float) -> float:
    """Critical area for shorts between parallel wires.

    A conducting particle of diameter d shorts adjacent wires when it
    bridges the space s: the critical fraction of the pitch is
    (d - s) / pitch for d > s, zero otherwise.
    """
    if min(defect_diameter_um, wire_width_um, wire_space_um) <= 0:
        raise ValueError("dimensions must be positive")
    if layout_area_um2 <= 0:
        raise ValueError("area must be positive")
    if defect_diameter_um <= wire_space_um:
        return 0.0
    pitch = wire_width_um + wire_space_um
    fraction = min(1.0, (defect_diameter_um - wire_space_um) / pitch)
    return layout_area_um2 * fraction


def failure_probability(defect_density_cm2: float,
                        critical_area_cm2: float) -> float:
    """Poisson probability that at least one killer defect lands."""
    if defect_density_cm2 < 0 or critical_area_cm2 < 0:
        raise ValueError("bad parameters")
    return 1.0 - math.exp(-defect_density_cm2 * critical_area_cm2)
