"""A numpy raster canvas with the drawing primitives renderers need.

Images are single-channel ``uint8`` arrays with white (255) background and
dark ink; renderers draw in "ink levels" so layouts can distinguish layers by
grey value.  Coordinates are ``(x, y)`` with the origin at the top-left, as
in conventional raster graphics.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.visual.glyphs import (
    GLYPH_HEIGHT,
    GLYPH_WIDTH,
    glyph_bitmap,
    text_width,
)

WHITE = 255
BLACK = 0

#: Boolean glyph masks memoized per ``(character, scale)``.  Scaling is
#: nearest-neighbour (``np.repeat`` on both axes), which reproduces the
#: per-bit ``fill_rect`` tiling of the original scalar renderer exactly.
_GLYPH_MASKS: dict = {}


def _glyph_mask(character: str, scale: int) -> np.ndarray:
    """The glyph as a read-only boolean mask upscaled by ``scale``."""
    cached = _GLYPH_MASKS.get((character, scale))
    if cached is None:
        mask = np.array(glyph_bitmap(character), dtype=bool)
        if scale != 1:
            mask = np.repeat(np.repeat(mask, scale, axis=0), scale, axis=1)
        mask.setflags(write=False)
        _GLYPH_MASKS[(character, scale)] = cached = mask
    return cached


class Canvas:
    """A mutable grayscale raster with vector-ish drawing primitives."""

    def __init__(self, width: int, height: int, background: int = WHITE):
        if width <= 0 or height <= 0:
            raise ValueError("canvas dimensions must be positive")
        self.width = width
        self.height = height
        self.pixels = np.full((height, width), background, dtype=np.uint8)

    # -- low-level ---------------------------------------------------------

    def set_pixel(self, x: int, y: int, ink: int = BLACK) -> None:
        if 0 <= x < self.width and 0 <= y < self.height:
            self.pixels[y, x] = ink

    def _paint_points(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        ink: int,
        thickness: int = 1,
    ) -> None:
        """Stroke every point ``(xs[i], ys[i])`` in one assignment.

        A stroke of ``thickness <= 1`` is the point itself; a thicker one
        is the square of half-width ``thickness // 2`` centred on it,
        clipped to the canvas as ``set_pixel`` clips.  Because every
        point writes the same ink, the unordered union is byte-identical
        to stroking the points one at a time.
        """
        if xs.size == 0:
            return
        if thickness > 1:
            radius = thickness // 2
            offsets = np.arange(-radius, radius + 1)
            grid_x = xs[:, None, None] + offsets[None, None, :]
            grid_y = ys[:, None, None] + offsets[None, :, None]
            grid_x, grid_y = np.broadcast_arrays(grid_x, grid_y)
            xs, ys = grid_x.ravel(), grid_y.ravel()
        keep = (xs >= 0) & (xs < self.width) & (ys >= 0) & (ys < self.height)
        self.pixels[ys[keep], xs[keep]] = ink

    def _blit_mask(
        self, x: int, y: int, mask: np.ndarray, ink: int
    ) -> None:
        """Paint ``ink`` through a boolean ``mask`` whose top-left corner
        lands at ``(x, y)``, clipping against the canvas bounds the same
        way ``set_pixel``/``fill_rect`` do."""
        height, width = mask.shape
        x0, y0 = max(0, x), max(0, y)
        x1 = min(self.width, x + width)
        y1 = min(self.height, y + height)
        if x0 >= x1 or y0 >= y1:
            return
        window = mask[y0 - y:y1 - y, x0 - x:x1 - x]
        self.pixels[y0:y1, x0:x1][window] = ink

    # -- primitives ----------------------------------------------------------

    def line(
        self,
        x0: int,
        y0: int,
        x1: int,
        y1: int,
        ink: int = BLACK,
        thickness: int = 1,
    ) -> None:
        """Bresenham line from ``(x0, y0)`` to ``(x1, y1)``, each point
        stroked as :meth:`_paint_points` strokes it."""
        if x0 == x1 or y0 == y1:
            # An axis-aligned run and the squares stroked along it cover
            # exactly one rectangle.
            radius = thickness // 2 if thickness > 1 else 0
            left, top = min(x0, x1) - radius, min(y0, y1) - radius
            self.fill_rect(left, top,
                           abs(x1 - x0) + 2 * radius + 1,
                           abs(y1 - y0) + 2 * radius + 1, ink)
            return
        dx = abs(x1 - x0)
        dy = -abs(y1 - y0)
        sx = 1 if x0 < x1 else -1
        sy = 1 if y0 < y1 else -1
        err = dx + dy
        x, y = x0, y0
        columns = [x]
        rows = [y]
        while x != x1 or y != y1:
            err2 = 2 * err
            if err2 >= dy:
                err += dy
                x += sx
            if err2 <= dx:
                err += dx
                y += sy
            columns.append(x)
            rows.append(y)
        self._paint_points(np.asarray(columns), np.asarray(rows),
                           ink, thickness)

    def polyline(
        self,
        points: Sequence[Tuple[int, int]],
        ink: int = BLACK,
        thickness: int = 1,
    ) -> None:
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            self.line(x0, y0, x1, y1, ink, thickness)

    def rect(
        self,
        x: int,
        y: int,
        width: int,
        height: int,
        ink: int = BLACK,
        thickness: int = 1,
    ) -> None:
        """Rectangle outline with top-left corner ``(x, y)``."""
        self.line(x, y, x + width, y, ink, thickness)
        self.line(x + width, y, x + width, y + height, ink, thickness)
        self.line(x + width, y + height, x, y + height, ink, thickness)
        self.line(x, y + height, x, y, ink, thickness)

    def fill_rect(
        self, x: int, y: int, width: int, height: int, ink: int = BLACK
    ) -> None:
        x0 = max(0, x)
        y0 = max(0, y)
        x1 = min(self.width, x + width)
        y1 = min(self.height, y + height)
        if x0 < x1 and y0 < y1:
            self.pixels[y0:y1, x0:x1] = ink

    def hatch_rect(
        self,
        x: int,
        y: int,
        width: int,
        height: int,
        ink: int = BLACK,
        pitch: int = 6,
    ) -> None:
        """Rectangle outline filled with diagonal hatching (layout layers)."""
        self.rect(x, y, width, height, ink)
        # A slope-1 Bresenham line from (x0, y0) to (x0+n, y0+n) is exactly
        # the pixel run (x0+i, y0+i) for i = 0..n, so the diagonals can be
        # generated arithmetically and painted in one masked assignment.
        columns = []
        rows = []
        for offset in range(-height, width, pitch):
            x0 = x + max(0, offset)
            y0 = y + max(0, -offset)
            length = min(width - max(0, offset), height - max(0, -offset))
            if length > 0:
                steps = np.arange(length + 1)
                columns.append(x0 + steps)
                rows.append(y0 + steps)
        if columns:
            self._paint_points(np.concatenate(columns),
                               np.concatenate(rows), ink)

    def circle(
        self, cx: int, cy: int, radius: int, ink: int = BLACK, thickness: int = 1
    ) -> None:
        """Midpoint circle outline."""
        # The integer midpoint recurrence picks the pixels; painting them
        # is deferred to one vectorized masked assignment.
        x, y = radius, 0
        err = 1 - radius
        columns: List[int] = []
        rows: List[int] = []
        while x >= y:
            columns.extend((cx + x, cx - x, cx + x, cx - x,
                            cx + y, cx - y, cx + y, cx - y))
            rows.extend((cy + y, cy + y, cy - y, cy - y,
                         cy + x, cy + x, cy - x, cy - x))
            y += 1
            if err < 0:
                err += 2 * y + 1
            else:
                x -= 1
                err += 2 * (y - x) + 1
        self._paint_points(np.asarray(columns), np.asarray(rows),
                           ink, thickness)

    def fill_circle(self, cx: int, cy: int, radius: int, ink: int = BLACK) -> None:
        for dy in range(-radius, radius + 1):
            span = int(math.isqrt(radius * radius - dy * dy))
            self.fill_rect(cx - span, cy + dy, 2 * span + 1, 1, ink)

    def arrow(
        self,
        x0: int,
        y0: int,
        x1: int,
        y1: int,
        ink: int = BLACK,
        head: int = 5,
        thickness: int = 1,
    ) -> None:
        """A line with an arrowhead at ``(x1, y1)``."""
        self.line(x0, y0, x1, y1, ink, thickness)
        angle = math.atan2(y1 - y0, x1 - x0)
        for side in (-1, 1):
            theta = angle + side * (math.pi - math.pi / 6)
            hx = int(round(x1 + head * math.cos(theta)))
            hy = int(round(y1 + head * math.sin(theta)))
            self.line(x1, y1, hx, hy, ink, thickness)

    def text(
        self,
        x: int,
        y: int,
        message: str,
        ink: int = BLACK,
        scale: int = 1,
    ) -> None:
        """Draw ``message`` with its top-left corner at ``(x, y)``."""
        cursor = x
        for character in message:
            self._blit_mask(cursor, y, _glyph_mask(character, scale), ink)
            cursor += (GLYPH_WIDTH + 1) * scale

    def text_centered(
        self,
        cx: int,
        cy: int,
        message: str,
        ink: int = BLACK,
        scale: int = 1,
    ) -> None:
        """Draw ``message`` centred on ``(cx, cy)``."""
        x = cx - text_width(message, scale) // 2
        y = cy - (GLYPH_HEIGHT * scale) // 2
        self.text(x, y, message, ink, scale)

    # -- statistics ------------------------------------------------------------

    def ink_fraction(self) -> float:
        """Fraction of non-background pixels (used in renderer tests)."""
        return float(np.count_nonzero(self.pixels != WHITE)) / self.pixels.size

    def copy(self) -> "Canvas":
        clone = Canvas(self.width, self.height)
        clone.pixels = self.pixels.copy()
        return clone
