"""Slicing floorplans: packing Polish expressions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class Block:
    name: str
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w <= 0 or self.h <= 0:
            raise ValueError("block dimensions must be positive")

    @property
    def area(self) -> float:
        return self.w * self.h


def pack(expression: Sequence[str],
         blocks: Dict[str, Block]) -> Tuple[float, float]:
    """Pack a Polish-notation slicing expression; returns (width, height).

    Operators: ``H`` stacks the two operands vertically (heights add,
    widths max), ``V`` abuts them horizontally (widths add, heights max) —
    the standard slicing-tree semantics.
    """
    stack: List[Tuple[float, float]] = []
    for token in expression:
        if token in ("H", "V"):
            if len(stack) < 2:
                raise ValueError("malformed Polish expression")
            w2, h2 = stack.pop()
            w1, h1 = stack.pop()
            if token == "H":
                stack.append((max(w1, w2), h1 + h2))
            else:
                stack.append((w1 + w2, max(h1, h2)))
        else:
            block = blocks.get(token)
            if block is None:
                raise ValueError(f"unknown block {token!r}")
            stack.append((block.w, block.h))
    if len(stack) != 1:
        raise ValueError("malformed Polish expression")
    return stack[0]


def chip_area(expression: Sequence[str], blocks: Dict[str, Block]) -> float:
    """Packed bounding-box area of a slicing expression."""
    width, height = pack(expression, blocks)
    return width * height


def dead_space(expression: Sequence[str], blocks: Dict[str, Block]) -> float:
    """Whitespace = packed area minus total block area."""
    return chip_area(expression, blocks) - sum(
        b.area for b in blocks.values())


def dead_space_percent(expression: Sequence[str],
                       blocks: Dict[str, Block]) -> float:
    """Whitespace as a percentage of the packed area."""
    total = chip_area(expression, blocks)
    if total <= 0:
        raise ValueError("degenerate floorplan")
    return dead_space(expression, blocks) / total * 100.0
