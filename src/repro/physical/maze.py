"""Lee-algorithm maze routing on a grid with obstacles."""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Set, Tuple

Cell = Tuple[int, int]


class RoutingGrid:
    """A rows x cols routing grid; cells are blocked by obstacles."""

    def __init__(self, rows: int, cols: int,
                 obstacles: Sequence[Cell] = ()):
        if rows < 1 or cols < 1:
            raise ValueError("grid dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.obstacles: Set[Cell] = set(obstacles)
        for r, c in self.obstacles:
            if not self._in_bounds((r, c)):
                raise ValueError(f"obstacle {(r, c)} out of bounds")

    def _in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.rows and 0 <= cell[1] < self.cols

    def neighbors(self, cell: Cell) -> List[Cell]:
        r, c = cell
        result = []
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            candidate = (nr, nc)
            if self._in_bounds(candidate) and candidate not in self.obstacles:
                result.append(candidate)
        return result

    def wave_expand(self, source: Cell) -> dict:
        """BFS wavefront labels from ``source`` (the Lee expansion phase)."""
        if source in self.obstacles or not self._in_bounds(source):
            raise ValueError("source blocked or out of bounds")
        labels = {source: 0}
        queue = deque([source])
        while queue:
            cell = queue.popleft()
            for nxt in self.neighbors(cell):
                if nxt not in labels:
                    labels[nxt] = labels[cell] + 1
                    queue.append(nxt)
        return labels

    def route(self, source: Cell, target: Cell) -> Optional[List[Cell]]:
        """Shortest path by Lee's algorithm; ``None`` if unreachable.

        Backtrace prefers continuing in the current direction, yielding
        routes with few bends (as practical routers do).
        """
        if target in self.obstacles or not self._in_bounds(target):
            raise ValueError("target blocked or out of bounds")
        labels = self.wave_expand(source)
        if target not in labels:
            return None
        path = [target]
        current = target
        direction: Optional[Tuple[int, int]] = None
        while current != source:
            want = labels[current] - 1
            candidates = [n for n in self.neighbors(current)
                          if labels.get(n) == want]
            chosen = None
            if direction is not None:
                straight = (current[0] + direction[0],
                            current[1] + direction[1])
                if straight in candidates:
                    chosen = straight
            if chosen is None:
                chosen = min(candidates)
            direction = (chosen[0] - current[0], chosen[1] - current[1])
            path.append(chosen)
            current = chosen
        path.reverse()
        return path

    def route_length(self, source: Cell, target: Cell) -> Optional[int]:
        """Wirelength (grid edges) of the shortest route."""
        labels = self.wave_expand(source)
        return labels.get(target)


def bends(path: Sequence[Cell]) -> int:
    """Number of direction changes along a path."""
    count = 0
    for a, b, c in zip(path, path[1:], path[2:]):
        d1 = (b[0] - a[0], b[1] - a[1])
        d2 = (c[0] - b[0], c[1] - b[1])
        if d1 != d2:
            count += 1
    return count
