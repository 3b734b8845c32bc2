"""Scene builders for chip-layout style figures.

Layouts are drawn as layered rectangles: each layer gets a distinct grey
level and optionally hatching, echoing how textbook layout figures encode
diffusion / poly / metal.  Also provides cross-section builders used by the
Manufacturing questions (etch stacks, photoresist patterns).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.visual.scene import Scene

#: Grey levels by conventional layer name.
LAYER_INK = {
    "diffusion": 170,
    "poly": 110,
    "metal1": 60,
    "metal2": 30,
    "contact": 0,
    "nwell": 210,
    "resist": 90,
    "oxide": 180,
    "silicon": 220,
}

Rect = Tuple[float, float, float, float]  # x, y, w, h in layout units


def layout_scene(
    layers: Dict[str, Sequence[Rect]],
    scale: float = 30.0,
    origin: Tuple[int, int] = (50, 330),
    labels: Sequence[Tuple[float, float, str]] = (),
    hatch_layers: Sequence[str] = ("poly", "resist"),
) -> Scene:
    """Rectangles per layer, y-up layout coordinates, greyscale by layer."""
    scene: Scene = []
    ox, oy = origin
    hatch = set(hatch_layers)
    for layer, rects in layers.items():
        ink = LAYER_INK.get(layer, 100)
        for x, y, w, h in rects:
            px = ox + x * scale
            py = oy - (y + h) * scale
            pw, ph = w * scale, h * scale
            if layer in hatch:
                scene.append({"op": "hatch_rect", "xy": [px, py],
                              "size": [pw, ph], "ink": ink})
            else:
                scene.append({"op": "fill_rect", "xy": [px, py],
                              "size": [pw, ph], "ink": ink})
                scene.append({"op": "rect", "xy": [px, py],
                              "size": [pw, ph], "ink": 0})
    for x, y, text in labels:
        scene.append({"op": "text", "xy": [ox + x * scale, oy - y * scale],
                      "s": text})
    return scene


def standard_cell_scene(
    cell_widths: Sequence[float],
    row_count: int = 3,
    pin_pitch: float = 0.5,
) -> Scene:
    """Rows of abutted standard cells with power rails and pins."""
    scene: Scene = []
    ox, oy = 40, 60
    row_height = 70
    scale = 26.0
    for row in range(row_count):
        y = oy + row * (row_height + 24)
        # power rails
        scene.append({"op": "fill_rect", "xy": [ox, y], "size": [420, 6],
                      "ink": 60})
        scene.append({"op": "fill_rect", "xy": [ox, y + row_height],
                      "size": [420, 6], "ink": 60})
        scene.append({"op": "text", "xy": [ox + 426, y - 2], "s": "VDD"})
        scene.append({"op": "text", "xy": [ox + 426, y + row_height - 2],
                      "s": "VSS"})
        x = ox
        for index, width in enumerate(cell_widths):
            w = width * scale
            scene.append({"op": "rect", "xy": [x, y + 6],
                          "size": [w, row_height - 6]})
            scene.append({"op": "text_centered",
                          "xy": [x + w / 2, y + row_height / 2],
                          "s": f"C{index}"})
            # pins on a grid
            pin_x = x + pin_pitch * scale
            while pin_x < x + w - 2:
                scene.append({"op": "fill_rect", "xy": [pin_x, y + 18],
                              "size": [4, 4], "ink": 0})
                pin_x += pin_pitch * scale * 2
            x += w
    return scene


def floorplan_scene(
    blocks: Sequence[Tuple[str, float, float, float, float]],
    chip: Tuple[float, float] = (12.0, 10.0),
    scale: float = 30.0,
) -> Scene:
    """Macro blocks inside a chip outline; ``blocks`` are (name, x, y, w, h)."""
    scene: Scene = []
    ox, oy = 60, 340
    cw, ch = chip
    scene.append({"op": "rect", "xy": [ox, oy - ch * scale],
                  "size": [cw * scale, ch * scale], "thickness": 2})
    for name, x, y, w, h in blocks:
        px = ox + x * scale
        py = oy - (y + h) * scale
        scene.append({"op": "rect", "xy": [px, py],
                      "size": [w * scale, h * scale]})
        scene.append({"op": "text_centered",
                      "xy": [px + w * scale / 2, py + h * scale / 2],
                      "s": name})
    return scene


def cross_section_scene(
    stack: Sequence[Tuple[str, float]],
    resist_openings: Sequence[Tuple[float, float]] = (),
    total_width: float = 10.0,
    scale: float = 36.0,
    labels: bool = True,
) -> Scene:
    """A process cross-section: material stack with patterned resist on top.

    ``stack`` lists ``(material, thickness_units)`` from bottom to top;
    ``resist_openings`` are ``(x, width)`` windows etched through the top
    resist layer.  This renders the figure for the paper's BOE over-etch
    example.
    """
    scene: Scene = []
    ox, base_y = 60, 320
    y = base_y
    for material, thickness in stack:
        h = thickness * scale
        y -= h
        ink = LAYER_INK.get(material, 150)
        if material == "resist":
            # draw resist only outside the openings
            segments = _resist_segments(resist_openings, total_width)
            for seg_x, seg_w in segments:
                scene.append({"op": "hatch_rect",
                              "xy": [ox + seg_x * scale, y],
                              "size": [seg_w * scale, h], "ink": ink,
                              "pitch": 5})
        else:
            scene.append({"op": "fill_rect", "xy": [ox, y],
                          "size": [total_width * scale, h], "ink": ink})
            scene.append({"op": "rect", "xy": [ox, y],
                          "size": [total_width * scale, h]})
        if labels:
            scene.append({"op": "text",
                          "xy": [ox + total_width * scale + 8, y + h / 2 - 3],
                          "s": material.upper()})
    return scene


def _resist_segments(
    openings: Sequence[Tuple[float, float]], total_width: float
) -> List[Tuple[float, float]]:
    """Complement of the opening windows within [0, total_width]."""
    segments: List[Tuple[float, float]] = []
    cursor = 0.0
    for x, w in sorted(openings):
        if x > cursor:
            segments.append((cursor, x - cursor))
        cursor = max(cursor, x + w)
    if cursor < total_width:
        segments.append((cursor, total_width - cursor))
    return segments


def mask_pattern_scene(
    features: Sequence[Rect],
    assist_features: Sequence[Rect] = (),
    phase_regions: Sequence[Rect] = (),
    scale: float = 30.0,
) -> Scene:
    """A lithography mask figure: main features, SRAFs and phase regions.

    Used for resolution-enhancement-technique questions (OPC / SRAF / PSM),
    matching the ChipVQA sample in Fig. 3 of the paper.
    """
    scene: Scene = []
    ox, oy = 70, 320
    for x, y, w, h in features:
        scene.append({"op": "fill_rect",
                      "xy": [ox + x * scale, oy - (y + h) * scale],
                      "size": [w * scale, h * scale], "ink": 0})
    for x, y, w, h in assist_features:
        scene.append({"op": "fill_rect",
                      "xy": [ox + x * scale, oy - (y + h) * scale],
                      "size": [w * scale, h * scale], "ink": 120})
    for x, y, w, h in phase_regions:
        scene.append({"op": "hatch_rect",
                      "xy": [ox + x * scale, oy - (y + h) * scale],
                      "size": [w * scale, h * scale], "ink": 80, "pitch": 4})
    return scene
