"""Scene builders for waveforms and x-y curves."""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.visual.scene import Scene


def waveform_scene(
    signals: Sequence[Tuple[str, Sequence[int]]],
    cycle_px: int = 36,
) -> Scene:
    """Digital timing waveforms: one row per signal, values 0/1 per cycle."""
    scene: Scene = []
    ox, oy = 80, 60
    high, low = 0, 24
    for row, (name, values) in enumerate(signals):
        base = oy + row * 56
        scene.append({"op": "text", "xy": [20, base + 8], "s": name})
        points: List[List[int]] = []
        x = ox
        previous = None
        for value in values:
            y = base + (high if value else low)
            if previous is not None and previous != value:
                points.append([x, base + (high if previous else low)])
                points.append([x, y])
            elif not points:
                points.append([x, y])
            x += cycle_px
            points.append([x, y])
            previous = value
        scene.append({"op": "polyline", "points": points, "thickness": 2})
    # cycle ruler
    n_cycles = max((len(v) for _, v in signals), default=0)
    ruler_y = oy + len(signals) * 56
    for cycle in range(n_cycles + 1):
        x = ox + cycle * cycle_px
        scene.append({"op": "line", "p0": [x, ruler_y], "p1": [x, ruler_y + 6]})
        if cycle < n_cycles:
            scene.append({"op": "text", "xy": [x + cycle_px // 2 - 3,
                                               ruler_y + 10],
                          "s": str(cycle)})
    return scene


def curve_scene(
    series: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
    x_label: str = "X",
    y_label: str = "Y",
    log_x: bool = False,
) -> Scene:
    """One or more x-y curves on shared axes, auto-scaled to the canvas."""
    scene: Scene = []
    x0, y0, x1, y1 = 70, 40, 460, 300

    def tx(v: float) -> float:
        return math.log10(v) if log_x and v > 0 else v

    all_x = [tx(x) for _, pts in series for x, _ in pts]
    all_y = [y for _, pts in series for _, y in pts]
    if not all_x:
        raise ValueError("curve_scene needs at least one point")
    min_x, max_x = min(all_x), max(all_x)
    min_y, max_y = min(all_y), max(all_y)
    span_x = (max_x - min_x) or 1.0
    span_y = (max_y - min_y) or 1.0

    def to_px(x: float, y: float) -> List[float]:
        px = x0 + (tx(x) - min_x) / span_x * (x1 - x0)
        py = y1 - (y - min_y) / span_y * (y1 - y0 - 20)
        return [px, py]

    scene.append({"op": "arrow", "p0": [x0, y1], "p1": [x1, y1], "head": 6})
    scene.append({"op": "arrow", "p0": [x0, y1], "p1": [x0, y0], "head": 6})
    scene.append({"op": "text", "xy": [x1 - 30, y1 + 10], "s": x_label})
    scene.append({"op": "text", "xy": [x0 - 50, y0], "s": y_label})
    for index, (name, pts) in enumerate(series):
        points = [to_px(x, y) for x, y in pts]
        scene.append({"op": "polyline", "points": points,
                      "thickness": 1 + index})
        if points:
            scene.append({"op": "text",
                          "xy": [points[-1][0] - 30,
                                 points[-1][1] - 14 - 10 * index],
                          "s": name})
    return scene


def step_response_scene(
    settling_value: float,
    overshoot_percent: float,
    label: str = "VOUT",
) -> Scene:
    """A second-order step response with visible overshoot and ringing."""
    points: List[Tuple[float, float]] = []
    zeta = max(0.05, 1.0 / (1.0 + overshoot_percent / 10.0))
    wn = 2.0
    for i in range(160):
        t = i * 0.1
        wd = wn * math.sqrt(max(1e-9, 1 - zeta * zeta))
        y = settling_value * (
            1 - math.exp(-zeta * wn * t)
            * math.cos(wd * t)
        )
        points.append((t, y))
    scene = curve_scene([(label, points)], x_label="T", y_label="V")
    return scene
