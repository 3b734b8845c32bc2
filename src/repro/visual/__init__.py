"""Visual substrate: raster rendering of question figures.

The public entry point is :func:`render`, which turns a
:class:`~repro.core.question.VisualContent` into a grayscale numpy image.
Figures are described declaratively as *scenes* (see
:mod:`repro.visual.scene`); questions without a scene render as a labelled
placeholder so every question always has pixels for the encoder.

Renders are memoized **content-addressed**: the cache key is a digest of
everything that determines the pixels (:func:`content_key`), not the
object identity, so equal-content visuals share one raster across dataset
rebuilds and worker threads, and a recycled ``id()`` can never alias two
different figures.  Cached rasters are returned read-only; call
``.copy()`` to mutate one.
"""

from __future__ import annotations

import base64
import hashlib
import json

import numpy as np

from repro.core.perfstats import LruCache
from repro.core.question import VisualContent
from repro.visual.canvas import Canvas
from repro.visual.resolution import (
    downsample,
    edge_energy,
    legibility_score,
    raster_legibility,
    stroke_legibility,
    visual_legibility,
)
from repro.visual.scene import Scene, draw_scene, render_scene

__all__ = [
    "Canvas",
    "Scene",
    "content_key",
    "render",
    "render_scene",
    "draw_scene",
    "downsample",
    "edge_energy",
    "legibility_score",
    "raster_legibility",
    "stroke_legibility",
    "visual_legibility",
]

def _encode_raster(image: np.ndarray) -> dict:
    """Spill codec: a grayscale raster as a JSON-safe payload."""
    return {
        "shape": list(image.shape),
        "dtype": str(image.dtype),
        "data": base64.b64encode(image.tobytes()).decode("ascii"),
    }


def _decode_raster(payload: dict) -> np.ndarray:
    """Spill codec inverse: rebuild a read-only raster from JSON."""
    image = np.frombuffer(
        base64.b64decode(payload["data"]), dtype=payload["dtype"]
    ).reshape(payload["shape"])
    image.setflags(write=False)
    return image


#: Content-keyed raster cache; 142 questions carry 144 distinct visuals,
#: so the standard collection (and its challenge twin, which shares the
#: same visuals and therefore the same keys) fits with room to spare.
#: Spill-capable: rasters round-trip through base64 for the optional
#: cross-process on-disk tier (see ``repro.core.perfstats``).
_RENDER_CACHE = LruCache(capacity=256, name="render",
                         spill_codec=(_encode_raster, _decode_raster))


def _jsonable(value):
    """JSON encoder fallback for numpy scalars/arrays inside scenes."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"unserialisable scene value: {value!r}")


def content_key(visual: VisualContent) -> str:
    """Stable digest of everything that determines a visual's raster
    and legibility: the render spec, dimensions, type, description and
    declared legibility scale.  Equal-content visuals — however and
    whenever constructed — share one key.

    Memoised on the instance, as ``runcache.question_digest`` is: every
    render, legibility and perception lookup asks for the key, so
    serialising the scene and hashing it on each call dominated a
    sweep's per-question CPU.  ``VisualContent`` is a frozen dataclass
    and no code mutates a ``render_spec`` after construction
    (``tests/test_visual.py`` pins both), so the key is stashed on the
    instance the first time; ``dataclasses.replace`` builds a new
    instance and therefore a fresh key.
    """
    cached = visual.__dict__.get("_content_key")
    if cached is None:
        payload = json.dumps(
            (
                visual.visual_type.value,
                visual.description,
                visual.render_spec,
                visual.width,
                visual.height,
                visual.legibility_scale,
            ),
            sort_keys=True,
            default=_jsonable,
            # scene specs are trees of literals; skipping the cycle
            # check makes the one computation per instance ~25% faster
            check_circular=False,
        )
        cached = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        object.__setattr__(visual, "_content_key", cached)
    return cached


def render(visual: VisualContent, use_cache: bool = True) -> np.ndarray:
    """Rasterise ``visual`` at its native resolution.

    ``render_spec`` must be empty or ``("scene", [primitives...])``.
    Cached renders are keyed by :func:`content_key` and marked read-only
    so a shared raster cannot be corrupted in place; pass
    ``use_cache=False`` for a private writable copy.
    """
    if not use_cache:
        return _render_uncached(visual)
    key = content_key(visual)
    image = _RENDER_CACHE.get(key)
    if image is None:
        image = _render_uncached(visual)
        image.setflags(write=False)
        _RENDER_CACHE.put(key, image)
    return image


def _render_uncached(visual: VisualContent) -> np.ndarray:
    if visual.render_spec:
        kind = visual.render_spec[0]
        if kind != "scene":
            raise ValueError(f"unknown render spec kind: {kind!r}")
        return render_scene(visual.render_spec[1], visual.width,
                            visual.height)
    return _placeholder(visual)


def _placeholder(visual: VisualContent) -> np.ndarray:
    """A framed placeholder showing the visual type and description."""
    canvas = Canvas(visual.width, visual.height)
    canvas.rect(4, 4, visual.width - 9, visual.height - 9, thickness=2)
    canvas.text(14, 14, visual.visual_type.value.upper())
    # wrap the description into short lines
    words = visual.description.split()
    line, y = "", 40
    for word in words:
        if len(line) + len(word) + 1 > 38:
            canvas.text(14, y, line)
            y += 12
            line = word
            if y > visual.height - 20:
                break
        else:
            line = f"{line} {word}".strip()
    if line and y <= visual.height - 20:
        canvas.text(14, y, line)
    return canvas.pixels
