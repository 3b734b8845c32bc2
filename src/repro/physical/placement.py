"""Standard-cell placement: row legalisation and density metrics.

Implements a Tetris-style greedy legaliser (the classic baseline): cells
sorted by x are packed left-to-right into rows, minimising displacement.
Also provides utilisation/density arithmetic used by placement questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.physical.geometry import Point, Rect


@dataclass(frozen=True)
class Cell:
    name: str
    width: float
    target: Point  # desired (global-placement) location, lower-left


@dataclass(frozen=True)
class PlacedCell:
    name: str
    rect: Rect
    displacement: float


def legalize(cells: Sequence[Cell], row_ys: Sequence[float],
             row_width: float, row_height: float) -> List[PlacedCell]:
    """Tetris legalisation: snap cells to rows without overlap.

    Cells are processed in increasing target-x order; each is placed in the
    row (and at the first free x at or right of its target) minimising
    Manhattan displacement.  When no row has frontier space — clustered
    targets can exhaust every frontier while space *left* of the cluster
    is still free — a gap scan over each row's free intervals places the
    cell at the minimal-displacement position instead.  Raises only when
    no row holds any gap wide enough.
    """
    if not row_ys:
        raise ValueError("no rows")
    frontier: Dict[float, float] = {y: 0.0 for y in row_ys}
    # per-row occupied intervals, kept sorted by start, for the gap scan
    occupied: Dict[float, List[Tuple[float, float]]] = {y: [] for y in row_ys}
    placed: List[PlacedCell] = []
    for cell in sorted(cells, key=lambda c: (c.target.x, c.name)):
        if cell.width > row_width:
            raise ValueError(f"cell {cell.name} wider than a row")
        best: Optional[Tuple[float, float, float]] = None  # (disp, y, x)
        for y in row_ys:
            x = max(frontier[y], cell.target.x)
            if x + cell.width > row_width:
                x = row_width - cell.width
                if x < frontier[y]:
                    continue  # row full at/after this point
            disp = abs(x - cell.target.x) + abs(y - cell.target.y)
            if best is None or (disp, y, x) < best:
                best = (disp, y, x)
        if best is None:
            # every frontier is exhausted; scan the holes the greedy
            # packing left behind (free intervals below each frontier)
            for y in row_ys:
                gap_start = 0.0
                for start, end in occupied[y] + [(row_width, row_width)]:
                    if start - gap_start >= cell.width:
                        x = min(max(cell.target.x, gap_start),
                                start - cell.width)
                        disp = (abs(x - cell.target.x)
                                + abs(y - cell.target.y))
                        if best is None or (disp, y, x) < best:
                            best = (disp, y, x)
                    gap_start = max(gap_start, end)
        if best is None:
            raise ValueError(f"cell {cell.name} does not fit in any row")
        disp, y, x = best
        frontier[y] = max(frontier[y], x + cell.width)
        occupied[y].append((x, x + cell.width))
        occupied[y].sort()
        placed.append(PlacedCell(cell.name,
                                 Rect(x, y, cell.width, row_height), disp))
    return placed


def total_displacement(placed: Sequence[PlacedCell]) -> float:
    """Sum of cell displacements after legalisation."""
    return sum(p.displacement for p in placed)


def has_overlaps(placed: Sequence[PlacedCell]) -> bool:
    """True if any two placed cells overlap (legality check)."""
    rects = [p.rect for p in placed]
    for i, a in enumerate(rects):
        for b in rects[i + 1:]:
            if a.overlaps(b):
                return True
    return False


def utilization(cell_areas: Sequence[float], core_area: float) -> float:
    """Core utilisation = placed cell area / available core area."""
    if core_area <= 0:
        raise ValueError("core area must be positive")
    total = sum(cell_areas)
    if total < 0:
        raise ValueError("negative cell area")
    return total / core_area


def rows_required(total_cell_width: float, row_width: float,
                  utilization_cap: float = 1.0) -> int:
    """Rows needed to hold the cells at a utilisation ceiling."""
    if row_width <= 0 or not 0 < utilization_cap <= 1:
        raise ValueError("bad row width or utilisation cap")
    import math
    return max(1, math.ceil(total_cell_width / (row_width * utilization_cap)))
