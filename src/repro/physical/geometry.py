"""Planar geometry primitives for physical design: points, rects, nets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, order=True)
class Point:
    x: float
    y: float

    def manhattan(self, other: "Point") -> float:
        """Manhattan (rectilinear) distance."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def __iter__(self):
        yield self.x
        yield self.y


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, (x, y) is the lower-left corner."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w < 0 or self.h < 0:
            raise ValueError("negative rectangle dimensions")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def center(self) -> Point:
        return Point(self.x + self.w / 2.0, self.y + self.h / 2.0)

    def overlaps(self, other: "Rect") -> bool:
        """Strict interior overlap (shared edges do not count)."""
        return (self.x < other.x2 and other.x < self.x2
                and self.y < other.y2 and other.y < self.y2)

    def spacing_to(self, other: "Rect") -> float:
        """Minimum edge-to-edge distance (0 when touching or overlapping)."""
        dx = max(0.0, max(self.x, other.x) - min(self.x2, other.x2))
        dy = max(0.0, max(self.y, other.y) - min(self.y2, other.y2))
        if self.overlaps(other):
            return 0.0
        if dx > 0 and dy > 0:
            return (dx * dx + dy * dy) ** 0.5
        return max(dx, dy)

    def contains_point(self, point: Point) -> bool:
        return self.x <= point.x <= self.x2 and self.y <= point.y <= self.y2


def bounding_box(points: Iterable[Point]) -> Rect:
    """Smallest axis-aligned rectangle containing the points."""
    points = list(points)
    if not points:
        raise ValueError("bounding box of nothing")
    min_x = min(p.x for p in points)
    min_y = min(p.y for p in points)
    max_x = max(p.x for p in points)
    max_y = max(p.y for p in points)
    return Rect(min_x, min_y, max_x - min_x, max_y - min_y)


def hpwl(points: Iterable[Point]) -> float:
    """Half-perimeter wirelength of a net — the standard placement metric."""
    box = bounding_box(points)
    return box.w + box.h
