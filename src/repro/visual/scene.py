"""Declarative scene description and the interpreter that rasterises it.

Question generators do not draw pixels; they build *scenes* — lists of
primitive dictionaries — via the builder helpers in the sibling modules
(:mod:`repro.visual.schematic`, :mod:`repro.visual.diagram`, ...).  A scene
is JSON-like and cheap to store inside a
:class:`~repro.core.question.VisualContent`; the raster is produced lazily by
:func:`render_scene` when a model actually looks at the image.

Supported primitive ops::

    {"op": "line", "p0": [x, y], "p1": [x, y], "thickness": 1, "ink": 0}
    {"op": "polyline", "points": [[x, y], ...], "thickness": 1}
    {"op": "rect", "xy": [x, y], "size": [w, h], "thickness": 1}
    {"op": "fill_rect", "xy": [x, y], "size": [w, h], "ink": 0}
    {"op": "hatch_rect", "xy": [x, y], "size": [w, h], "pitch": 6}
    {"op": "circle", "center": [x, y], "radius": r}
    {"op": "fill_circle", "center": [x, y], "radius": r}
    {"op": "arrow", "p0": [x, y], "p1": [x, y], "head": 5}
    {"op": "text", "xy": [x, y], "s": "label", "scale": 1}
    {"op": "text_centered", "xy": [x, y], "s": "label", "scale": 1}

Coordinates are native-resolution pixels (the canvas default is 512x384).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.visual.canvas import BLACK, Canvas

Scene = List[Dict]


def _point(value) -> tuple:
    x, y = value
    return int(round(x)), int(round(y))


def render_scene(scene: Sequence[Dict], width: int, height: int) -> np.ndarray:
    """Rasterise ``scene`` onto a fresh white canvas and return the pixels."""
    canvas = Canvas(width, height)
    draw_scene(canvas, scene)
    return canvas.pixels


def draw_scene(canvas: Canvas, scene: Sequence[Dict]) -> None:
    """Draw every primitive of ``scene`` onto ``canvas`` in order."""
    for element in scene:
        op = element.get("op")
        ink = int(element.get("ink", BLACK))
        if op == "line":
            x0, y0 = _point(element["p0"])
            x1, y1 = _point(element["p1"])
            canvas.line(x0, y0, x1, y1, ink, int(element.get("thickness", 1)))
        elif op == "polyline":
            points = [_point(p) for p in element["points"]]
            canvas.polyline(points, ink, int(element.get("thickness", 1)))
        elif op == "rect":
            x, y = _point(element["xy"])
            w, h = _point(element["size"])
            canvas.rect(x, y, w, h, ink, int(element.get("thickness", 1)))
        elif op == "fill_rect":
            x, y = _point(element["xy"])
            w, h = _point(element["size"])
            canvas.fill_rect(x, y, w, h, ink)
        elif op == "hatch_rect":
            x, y = _point(element["xy"])
            w, h = _point(element["size"])
            canvas.hatch_rect(x, y, w, h, ink, int(element.get("pitch", 6)))
        elif op == "circle":
            cx, cy = _point(element["center"])
            canvas.circle(cx, cy, int(element["radius"]), ink,
                          int(element.get("thickness", 1)))
        elif op == "fill_circle":
            cx, cy = _point(element["center"])
            canvas.fill_circle(cx, cy, int(element["radius"]), ink)
        elif op == "arrow":
            x0, y0 = _point(element["p0"])
            x1, y1 = _point(element["p1"])
            canvas.arrow(x0, y0, x1, y1, ink, int(element.get("head", 5)),
                         int(element.get("thickness", 1)))
        elif op == "text":
            x, y = _point(element["xy"])
            canvas.text(x, y, str(element["s"]), ink, int(element.get("scale", 1)))
        elif op == "text_centered":
            x, y = _point(element["xy"])
            canvas.text_centered(x, y, str(element["s"]), ink,
                                 int(element.get("scale", 1)))
        else:
            raise ValueError(f"unknown scene op: {op!r}")


def translate(scene: Sequence[Dict], dx: float, dy: float) -> Scene:
    """A copy of ``scene`` with every coordinate shifted by ``(dx, dy)``."""
    shifted: Scene = []
    for element in scene:
        clone = dict(element)
        for key in ("p0", "p1", "xy", "center"):
            if key in clone:
                x, y = clone[key]
                clone[key] = [x + dx, y + dy]
        if "points" in clone:
            clone["points"] = [[x + dx, y + dy] for x, y in clone["points"]]
        shifted.append(clone)
    return shifted


def min_stroke_scale(scene: Sequence[Dict]) -> float:
    """Smallest semantically-meaningful feature size in the scene, in pixels.

    Text glyph strokes are the finest features (1 px per glyph pixel at
    ``scale`` 1); line thicknesses come next.  The resolution study uses
    this to estimate at which downsampling factor a figure stops being
    legible.
    """
    finest = float("inf")
    for element in scene:
        op = element.get("op")
        if op in ("text", "text_centered"):
            finest = min(finest, float(element.get("scale", 1)))
        elif op in ("line", "polyline", "rect", "arrow", "circle"):
            finest = min(finest, float(element.get("thickness", 1)))
    if finest == float("inf"):
        finest = 1.0
    return finest
