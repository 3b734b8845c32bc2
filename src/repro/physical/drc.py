"""Design-rule checking: width / spacing rules over rectangles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.physical.geometry import Rect


@dataclass(frozen=True)
class RuleSet:
    """Minimum design rules for one layer (all in the same length unit)."""

    min_width: float
    min_spacing: float
    min_enclosure: float = 0.0

    def __post_init__(self) -> None:
        if min(self.min_width, self.min_spacing) <= 0 or self.min_enclosure < 0:
            raise ValueError("rules must be positive (enclosure >= 0)")


@dataclass(frozen=True)
class Violation:
    kind: str     # width | spacing | enclosure
    shapes: Tuple[int, ...]
    value: float
    limit: float

    def __str__(self) -> str:
        return (f"{self.kind} violation on shapes {self.shapes}: "
                f"{self.value:g} < {self.limit:g}")


def check_width(shapes: Sequence[Rect], rules: RuleSet) -> List[Violation]:
    """Every shape's smaller dimension must meet min_width."""
    violations = []
    for index, shape in enumerate(shapes):
        width = min(shape.w, shape.h)
        if width < rules.min_width - 1e-12:
            violations.append(
                Violation("width", (index,), width, rules.min_width))
    return violations


def check_spacing(shapes: Sequence[Rect], rules: RuleSet) -> List[Violation]:
    """All pairs must meet min_spacing (overlap counts as 0 spacing)."""
    violations = []
    for i, a in enumerate(shapes):
        for j in range(i + 1, len(shapes)):
            b = shapes[j]
            spacing = a.spacing_to(b)
            if spacing < rules.min_spacing - 1e-12:
                violations.append(
                    Violation("spacing", (i, j), spacing, rules.min_spacing))
    return violations


def check_layer(shapes: Sequence[Rect], rules: RuleSet) -> List[Violation]:
    """Width + spacing checks for one layer."""
    return check_width(shapes, rules) + check_spacing(shapes, rules)
