"""Scene builders for block diagrams, flow charts and graph figures.

Used by the Architecture and Physical Design question generators for
pipeline diagrams, cache hierarchies, NoC topologies, flow charts and
clock/Steiner tree figures.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

from repro.visual.scene import Scene

BlockSpec = Tuple[str, str]  # (block id, label)


def block_diagram_scene(
    blocks: Sequence[BlockSpec],
    edges: Sequence[Tuple[str, str]],
    columns: int = 4,
    highlight: Sequence[Tuple[str, str]] = (),
) -> Scene:
    """Blocks on a grid with arrows between them.

    ``highlight`` edges are drawn thicker — used e.g. for the bolded bypass
    path the paper's Architecture example mentions.
    """
    scene: Scene = []
    positions: Dict[str, Tuple[int, int]] = {}
    bw, bh = 86, 44
    gap_x, gap_y = 30, 50
    for index, (block_id, label) in enumerate(blocks):
        col, row = index % columns, index // columns
        x = 40 + col * (bw + gap_x)
        y = 60 + row * (bh + gap_y)
        positions[block_id] = (x, y)
        scene.append({"op": "rect", "xy": [x, y], "size": [bw, bh]})
        scene.append({"op": "text_centered",
                      "xy": [x + bw // 2, y + bh // 2], "s": label})
    highlighted = {tuple(edge) for edge in highlight}
    for src, dst in edges:
        x0, y0 = positions[src]
        x1, y1 = positions[dst]
        thickness = 3 if (src, dst) in highlighted else 1
        start = [x0 + bw, y0 + bh // 2]
        end = [x1, y1 + bh // 2]
        if x1 <= x0:  # back edge: route below the row
            drop = max(y0, y1) + bh + 16
            scene.append({"op": "polyline", "points": [
                [x0 + bw // 2, y0 + bh], [x0 + bw // 2, drop],
                [x1 + bw // 2, drop], [x1 + bw // 2, y1 + bh]],
                "thickness": thickness})
            scene.append({"op": "arrow", "p0": [x1 + bw // 2, y1 + bh + 6],
                          "p1": [x1 + bw // 2, y1 + bh], "head": 5,
                          "thickness": thickness})
        else:
            scene.append({"op": "arrow", "p0": start, "p1": end, "head": 5,
                          "thickness": thickness})
    return scene


def pipeline_scene(
    stages: Sequence[str],
    bypass: Optional[Tuple[int, int]] = None,
) -> Scene:
    """A linear pipeline with optional bold bypass from stage i to stage j."""
    scene: Scene = []
    bw, bh = 70, 46
    y = 160
    xs = []
    for index, stage in enumerate(stages):
        x = 36 + index * (bw + 22)
        xs.append(x)
        scene.append({"op": "rect", "xy": [x, y], "size": [bw, bh]})
        scene.append({"op": "text_centered",
                      "xy": [x + bw // 2, y + bh // 2], "s": stage})
        if index:
            scene.append({"op": "arrow", "p0": [x - 22, y + bh // 2],
                          "p1": [x, y + bh // 2], "head": 5})
    if bypass is not None:
        src, dst = bypass
        scene.append({"op": "polyline", "points": [
            [xs[src] + bw // 2, y], [xs[src] + bw // 2, y - 54],
            [xs[dst] + bw // 2, y - 54], [xs[dst] + bw // 2, y - 6]],
            "thickness": 3})
        scene.append({"op": "arrow", "p0": [xs[dst] + bw // 2, y - 10],
                      "p1": [xs[dst] + bw // 2, y], "head": 6, "thickness": 3})
        scene.append({"op": "text",
                      "xy": [(xs[src] + xs[dst]) // 2, y - 70],
                      "s": "BYPASS"})
    return scene


def graph_scene(
    nodes: Sequence[str],
    edges: Sequence[Tuple[str, str]],
    layout: str = "circle",
    node_radius: int = 16,
    weights: Optional[Dict[Tuple[str, str], float]] = None,
) -> Scene:
    """A node-link drawing of a graph (NoC topologies, trees)."""
    scene: Scene = []
    positions = _graph_positions(nodes, layout)
    for src, dst in edges:
        x0, y0 = positions[src]
        x1, y1 = positions[dst]
        scene.append({"op": "line", "p0": [x0, y0], "p1": [x1, y1]})
        if weights and (src, dst) in weights:
            mx, my = (x0 + x1) // 2, (y0 + y1) // 2
            scene.append({"op": "text", "xy": [mx + 4, my - 10],
                          "s": str(weights[(src, dst)])})
    for node in nodes:
        x, y = positions[node]
        scene.append({"op": "fill_circle", "center": [x, y],
                      "radius": node_radius, "ink": 255})
        scene.append({"op": "circle", "center": [x, y], "radius": node_radius})
        scene.append({"op": "text_centered", "xy": [x, y], "s": node})
    return scene


def _graph_positions(
    nodes: Sequence[str], layout: str
) -> Dict[str, Tuple[int, int]]:
    positions: Dict[str, Tuple[int, int]] = {}
    n = len(nodes)
    if layout == "circle":
        cx, cy, radius = 256, 190, 130
        for index, node in enumerate(nodes):
            theta = 2 * math.pi * index / max(n, 1) - math.pi / 2
            positions[node] = (
                int(cx + radius * math.cos(theta)),
                int(cy + radius * math.sin(theta)),
            )
    elif layout == "grid":
        side = max(1, int(math.ceil(math.sqrt(n))))
        for index, node in enumerate(nodes):
            col, row = index % side, index // side
            positions[node] = (90 + col * 110, 70 + row * 90)
    elif layout == "line":
        for index, node in enumerate(nodes):
            positions[node] = (60 + index * 90, 190)
    else:
        raise ValueError(f"unknown graph layout: {layout}")
    return positions


def flow_chart_scene(steps: Sequence[str], loop_back: Optional[int] = None) -> Scene:
    """A vertical flow chart; ``loop_back`` draws an edge from last to step i."""
    scene: Scene = []
    bw, bh = 170, 36
    x = 170
    ys = []
    for index, step in enumerate(steps):
        y = 30 + index * (bh + 18)
        ys.append(y)
        scene.append({"op": "rect", "xy": [x, y], "size": [bw, bh]})
        scene.append({"op": "text_centered",
                      "xy": [x + bw // 2, y + bh // 2], "s": step})
        if index:
            scene.append({"op": "arrow", "p0": [x + bw // 2, y - 18],
                          "p1": [x + bw // 2, y], "head": 5})
    if loop_back is not None and ys:
        scene.append({"op": "polyline", "points": [
            [x + bw, ys[-1] + bh // 2], [x + bw + 40, ys[-1] + bh // 2],
            [x + bw + 40, ys[loop_back] + bh // 2],
            [x + bw, ys[loop_back] + bh // 2]]})
        scene.append({"op": "arrow",
                      "p0": [x + bw + 8, ys[loop_back] + bh // 2],
                      "p1": [x + bw, ys[loop_back] + bh // 2], "head": 5})
    return scene


def tree_scene(
    points: Sequence[Tuple[float, float, str]],
    edges: Sequence[Tuple[int, int]],
    scale: float = 34.0,
    origin: Tuple[int, int] = (60, 310),
    annotate_coords: bool = True,
) -> Scene:
    """A routing-tree figure: labelled points on a coordinate plane.

    ``points`` are ``(x, y, label)`` in routing grid units; the y axis points
    up (converted to raster coordinates internally).  Used for Steiner tree
    and clock-tree questions, matching the paper's Physical Design example.
    """
    scene: Scene = []
    ox, oy = origin
    scene.append({"op": "arrow", "p0": [ox - 20, oy], "p1": [ox + 380, oy],
                  "head": 6})
    scene.append({"op": "arrow", "p0": [ox, oy + 20], "p1": [ox, oy - 270],
                  "head": 6})

    def to_px(px: float, py: float) -> Tuple[int, int]:
        return int(ox + px * scale), int(oy - py * scale)

    for a, b in edges:
        xa, ya, _ = points[a]
        xb, yb, _ = points[b]
        pa, pb = to_px(xa, ya), to_px(xb, yb)
        # rectilinear (L-shaped) edge
        scene.append({"op": "polyline", "points": [
            list(pa), [pb[0], pa[1]], list(pb)], "thickness": 2})
    for px, py, label in points:
        x, y = to_px(px, py)
        scene.append({"op": "fill_circle", "center": [x, y], "radius": 4})
        text = label
        if annotate_coords:
            text = f"{label}({int(px)},{int(py)})"
        scene.append({"op": "text", "xy": [x + 7, y - 12], "s": text})
    return scene


def vlm_architecture_scene(encoder_label: str = "VISUAL ENCODER",
                           projector_label: str = "PROJECTION",
                           llm_label: str = "LLM") -> Scene:
    """Fig. 2 of the paper: the representative VLM pipeline.

    Image and text prompt enter; the encoder's embedding is projected into
    the token space and concatenated with text tokens into the LLM.
    """
    scene = block_diagram_scene(
        [("img", "IMAGE"), ("enc", encoder_label), ("proj", projector_label),
         ("txt", "TEXT PROMPT"), ("tok", "TOKENIZER"), ("llm", llm_label),
         ("out", "OUTPUT TEXT")],
        [("img", "enc"), ("enc", "proj"), ("proj", "llm"),
         ("txt", "tok"), ("tok", "llm"), ("llm", "out")],
        columns=3)
    scene.append({"op": "text", "xy": [40, 20],
                  "s": "REPRESENTATIVE VLM ARCHITECTURE (FIG 2)"})
    return scene
