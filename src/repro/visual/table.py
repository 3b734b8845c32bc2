"""Scene builders for tabular figures: truth tables, K-maps, state tables."""

from __future__ import annotations

from typing import Sequence

from repro.visual.scene import Scene


def table_scene(
    rows: Sequence[Sequence[str]],
    col_width: int = 64,
    row_height: int = 26,
    origin: "tuple" = (50, 50),
    header: bool = True,
) -> Scene:
    """A ruled grid of text cells; the first row is the header."""
    if not rows:
        raise ValueError("table needs at least one row")
    ncols = max(len(row) for row in rows)
    nrows = len(rows)
    ox, oy = origin
    scene: Scene = []
    for r in range(nrows + 1):
        y = oy + r * row_height
        scene.append({"op": "line", "p0": [ox, y],
                      "p1": [ox + ncols * col_width, y]})
    for c in range(ncols + 1):
        x = ox + c * col_width
        scene.append({"op": "line", "p0": [x, oy],
                      "p1": [x, oy + nrows * row_height]})
    if header:
        scene.append({"op": "line", "p0": [ox, oy + row_height + 1],
                      "p1": [ox + ncols * col_width, oy + row_height + 1]})
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            scene.append({"op": "text_centered",
                          "xy": [ox + c * col_width + col_width // 2,
                                 oy + r * row_height + row_height // 2],
                          "s": str(cell)})
    return scene


def truth_table_scene(
    inputs: Sequence[str],
    outputs: Sequence[str],
    rows: Sequence[Sequence[int]],
) -> Scene:
    """A truth table with input and output column groups."""
    header = list(inputs) + list(outputs)
    body = [[str(v) for v in row] for row in rows]
    scene = table_scene([header] + body, col_width=44, row_height=22)
    # separator between inputs and outputs
    ox, oy = 50, 50
    x = ox + len(inputs) * 44
    scene.append({"op": "line", "p0": [x + 1, oy],
                  "p1": [x + 1, oy + (len(rows) + 1) * 22], "thickness": 2})
    return scene


def kmap_scene(
    variables: Sequence[str],
    values: Sequence[Sequence[str]],
    title: str = "",
) -> Scene:
    """A Karnaugh map with Gray-coded row/column headers.

    ``values`` is the cell grid (2x2, 2x4 or 4x4); row variables are the
    first half of ``variables``, column variables the second half.
    """
    nrows = len(values)
    ncols = len(values[0]) if values else 0
    gray2 = ["0", "1"]
    gray4 = ["00", "01", "11", "10"]
    row_codes = gray2 if nrows == 2 else gray4
    col_codes = gray2 if ncols == 2 else gray4
    half = len(variables) - (1 if ncols == 2 else 2)
    row_vars = "".join(variables[:half])
    col_vars = "".join(variables[half:])
    header = [f"{row_vars}\\{col_vars}"] + col_codes[:ncols]
    body = [[row_codes[r]] + [str(v) for v in row]
            for r, row in enumerate(values)]
    scene = table_scene([header] + body, col_width=56, row_height=30,
                        origin=(80, 80))
    if title:
        scene.append({"op": "text", "xy": [80, 50], "s": title})
    return scene


def state_table_scene(
    columns: Sequence[str],
    rows: Sequence[Sequence[str]],
    title: str = "STATE TABLE",
) -> Scene:
    """A sequential-logic state/excitation table."""
    scene = table_scene([list(columns)] + [list(r) for r in rows],
                        col_width=72, row_height=24, origin=(50, 70))
    scene.append({"op": "text", "xy": [50, 44], "s": title})
    return scene


def equation_scene(lines: Sequence[str], numbered: bool = False) -> Scene:
    """Equations rendered as stacked text lines."""
    scene: Scene = []
    for index, line in enumerate(lines):
        prefix = f"{index + 1}) " if numbered else ""
        scene.append({"op": "text", "xy": [60, 70 + index * 40],
                      "s": prefix + line, "scale": 2})
    return scene


def cache_table_scene(
    address_bits: int,
    fields: Sequence[Sequence[str]],
) -> Scene:
    """An address-breakdown figure: bit ruler plus tag/index/offset fields.

    ``fields`` are ``(name, hi_bit, lo_bit)`` triples as strings.
    """
    scene: Scene = []
    ox, oy = 50, 110
    width = 400
    scene.append({"op": "rect", "xy": [ox, oy], "size": [width, 40]})
    cursor = ox
    for name, hi, lo in fields:
        bits = int(hi) - int(lo) + 1
        w = width * bits / address_bits
        scene.append({"op": "line", "p0": [cursor + w, oy],
                      "p1": [cursor + w, oy + 40]})
        scene.append({"op": "text_centered",
                      "xy": [cursor + w / 2, oy + 20], "s": name})
        scene.append({"op": "text", "xy": [cursor + 2, oy - 14], "s": str(hi)})
        cursor += w
    scene.append({"op": "text", "xy": [ox + width - 10, oy - 14], "s": "0"})
    scene.append({"op": "text", "xy": [ox, oy + 54],
                  "s": f"{address_bits}-BIT ADDRESS"})
    return scene
