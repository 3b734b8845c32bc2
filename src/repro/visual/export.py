"""Image export: PGM/PPM writers and benchmark contact sheets.

The repository has no imaging dependencies, so figures are exported as
portable graymaps (PGM, one byte per pixel) — viewable by practically any
image tool — plus a contact-sheet builder that tiles many question figures
into one overview raster.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.core.dataset import Dataset
from repro.core.question import Question
from repro.visual import render
from repro.visual.canvas import Canvas


def save_pgm(path: "Path | str", image: np.ndarray) -> Path:
    """Write a grayscale uint8 image as a binary PGM (P5)."""
    if image.ndim != 2:
        raise ValueError("PGM export needs a 2-D grayscale image")
    if image.dtype != np.uint8:
        raise ValueError("image must be uint8")
    path = Path(path)
    with open(path, "wb") as f:
        f.write(f"P5 {image.shape[1]} {image.shape[0]} 255\n".encode())
        f.write(image.tobytes())
    return path


def load_pgm(path: "Path | str") -> np.ndarray:
    """Read back a binary PGM written by :func:`save_pgm`."""
    data = Path(path).read_bytes()
    header, _, rest = data.partition(b"\n")
    fields = header.split()
    if fields[0] != b"P5":
        raise ValueError("not a binary PGM file")
    width, height, maxval = (int(v) for v in fields[1:4])
    if maxval != 255:
        raise ValueError("only 8-bit PGM supported")
    pixels = np.frombuffer(rest, dtype=np.uint8, count=width * height)
    return pixels.reshape(height, width).copy()


def contact_sheet(questions: Sequence[Question], columns: int = 4,
                  thumb_width: int = 192, label: bool = True) -> np.ndarray:
    """Tile question figures into one labelled overview raster."""
    if not questions:
        raise ValueError("no questions")
    if columns < 1:
        raise ValueError("columns must be positive")
    thumbs: List[np.ndarray] = []
    thumb_height = 0
    for question in questions:
        image = render(question.visual)
        step = max(1, image.shape[1] // thumb_width)
        thumb = image[::step, ::step]
        thumbs.append(thumb)
        thumb_height = max(thumb_height, thumb.shape[0])
    label_band = 12 if label else 0
    cell_h = thumb_height + label_band + 4
    cell_w = max(t.shape[1] for t in thumbs) + 4
    rows = math.ceil(len(thumbs) / columns)
    canvas = Canvas(columns * cell_w, rows * cell_h)
    for index, (question, thumb) in enumerate(zip(questions, thumbs)):
        row, col = divmod(index, columns)
        y0 = row * cell_h + label_band
        x0 = col * cell_w + 2
        h, w = thumb.shape
        canvas.pixels[y0:y0 + h, x0:x0 + w] = thumb
        if label:
            canvas.text(x0, row * cell_h + 2, question.qid.upper())
        canvas.rect(col * cell_w, row * cell_h, cell_w - 1, cell_h - 1,
                    ink=200)
    return canvas.pixels


def render_question_card(question: Question,
                         width: int = 560) -> np.ndarray:
    """A Fig.-3-style card: qid, wrapped prompt, figure, options.

    Useful for reviewing authored questions and for contact sheets of the
    benchmark itself.
    """
    figure = render(question.visual)
    prompt_lines = _wrap(question.prompt, width // 6 - 4)
    option_lines: List[str] = []
    if question.is_multiple_choice:
        for letter, choice in zip("ABCD", question.choices):
            option_lines.extend(_wrap(f"{letter}) {choice}",
                                      width // 6 - 4))
    header_h = 16
    text_h = 12 * len(prompt_lines) + 8
    options_h = 12 * len(option_lines) + (8 if option_lines else 0)
    fig_h = figure.shape[0]
    canvas = Canvas(max(width, figure.shape[1] + 8),
                    header_h + text_h + fig_h + options_h + 12)
    canvas.text(4, 4, f"{question.qid.upper()}  "
                      f"[{question.category.short.upper()}]")
    y = header_h
    for line in prompt_lines:
        canvas.text(4, y, line)
        y += 12
    y += 4
    canvas.pixels[y:y + fig_h, 4:4 + figure.shape[1]] = figure
    canvas.rect(3, y - 1, figure.shape[1] + 1, fig_h + 1, ink=180)
    y += fig_h + 6
    for line in option_lines:
        canvas.text(4, y, line)
        y += 12
    return canvas.pixels


def _wrap(text: str, max_chars: int) -> List[str]:
    words = text.split()
    lines: List[str] = []
    current = ""
    for word in words:
        if current and len(current) + 1 + len(word) > max_chars:
            lines.append(current)
            current = word
        else:
            current = f"{current} {word}".strip()
    if current:
        lines.append(current)
    return lines


def export_dataset_figures(dataset: Dataset, out_dir: "Path | str",
                           limit: Optional[int] = None) -> List[Path]:
    """Write every question's primary figure as ``<qid>.pgm``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for index, question in enumerate(dataset):
        if limit is not None and index >= limit:
            break
        written.append(
            save_pgm(out_dir / f"{question.qid}.pgm",
                     render(question.visual)))
    return written
