"""Image downsampling and legibility measurement for the resolution study.

Section IV-B of the paper downsamples question images 8x and 16x and
measures the pass-rate impact (GPT-4o on the Digital category: 0.49 at
native and 8x, 0.37 at 16x).  We reproduce the mechanism: figures are
rasterised at native resolution, reduced by block averaging, and a
*legibility score* is computed from how much fine-feature contrast survives.
The simulated visual encoder consumes that score.
"""

from __future__ import annotations

import numpy as np

from repro.core.perfstats import JSON_VALUE_CODEC, LruCache
from repro.core.question import VisualContent
from repro.visual.scene import min_stroke_scale

#: Content-keyed memo of raster legibility scores: one entry per
#: (figure content, downsample factor), shared by every encoder and
#: every model in a sweep.  144 visuals x a handful of factors.
_LEGIBILITY_CACHE = LruCache(capacity=4096, name="legibility",
                             spill_codec=JSON_VALUE_CODEC)


def downsample(image: np.ndarray, factor: int) -> np.ndarray:
    """Reduce ``image`` by block-averaging ``factor`` x ``factor`` tiles.

    The image is edge-padded so dimensions need not divide evenly, matching
    what a bilinear resize would do at the borders.
    """
    if factor < 1:
        raise ValueError("downsample factor must be >= 1")
    if factor == 1:
        return image.copy()
    height, width = image.shape[:2]
    pad_h = (-height) % factor
    pad_w = (-width) % factor
    padded = np.pad(image, ((0, pad_h), (0, pad_w)), mode="edge")
    h2, w2 = padded.shape[0] // factor, padded.shape[1] // factor
    blocks = padded.reshape(h2, factor, w2, factor).astype(np.float64)
    return blocks.mean(axis=(1, 3)).round().astype(np.uint8)


def upsample_nearest(image: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbour upsample (what a model 'sees' after a resize)."""
    if factor < 1:
        raise ValueError("upsample factor must be >= 1")
    return np.repeat(np.repeat(image, factor, axis=0), factor, axis=1)


#: Pixels darker than this count as ink in the native raster.
INK_THRESHOLD = 128
#: Reconstructed pixels must stay darker than this to remain visible.
VISIBILITY_THRESHOLD = 230


def _block_sums(image: np.ndarray, factor: int) -> np.ndarray:
    """Integer sums of ``image`` over ``factor`` x ``factor`` blocks.

    Rows are reduced first, so the inner loop runs along whole raster
    rows; int64 accumulators cannot overflow for any raster size.
    """
    height, width = image.shape
    rows = image.reshape(height // factor, factor, width).sum(
        axis=1, dtype=np.int64)
    return rows.reshape(height // factor, width // factor, factor).sum(
        axis=2)


def legibility_score(image: np.ndarray, factor: int) -> float:
    """Fraction of a ``uint8`` raster's ink that stays visible after
    ``factor`` x downsampling, in [0, 1].

    The image is block-averaged down and restored to native size; an ink
    pixel "survives" if its restored block is still visibly darker than
    the background.  Thin strokes wash towards white as the block grows —
    a 1 px line inside a 16 x 16 block averages to near-invisible grey —
    which is exactly the failure mode the paper's 16x experiment hits.
    A blank image scores 1.0 by convention (nothing to lose).

    Computed in integers, with no downsampled image: a block's rounded
    mean (what :func:`downsample` stores) is below
    ``VISIBILITY_THRESHOLD`` exactly when ``2 * sum < 459 * factor**2``,
    because numpy rounds half to even and so keeps a mean of 229.5
    invisible.  The score is the ink counted in visible blocks over all
    ink.  The image is edge-padded to whole blocks as ``downsample``
    pads it, and padded pixels count towards block sums but not as ink.
    A factor below 1 raises ``ValueError``, blank image or not.
    """
    if factor < 1:
        raise ValueError("downsample factor must be >= 1")
    if factor == 1:
        return 1.0
    ink = image < INK_THRESHOLD
    total_ink = int(np.count_nonzero(ink))
    if total_ink == 0:
        return 1.0
    height, width = image.shape
    pad_h = (-height) % factor
    pad_w = (-width) % factor
    if pad_h or pad_w:
        image = np.pad(image, ((0, pad_h), (0, pad_w)), mode="edge")
        ink = np.pad(ink, ((0, pad_h), (0, pad_w)))
    visible = (2 * _block_sums(image, factor)
               < (2 * VISIBILITY_THRESHOLD - 1) * factor * factor)
    visible_ink = int(_block_sums(ink, factor)[visible].sum())
    return visible_ink / total_ink


def stroke_legibility(visual: VisualContent, factor: int) -> float:
    """Analytic legibility from the figure's declared finest feature size.

    ``visual.legibility_scale`` is the smallest semantically-essential
    feature in native pixels (a glyph stroke is ~1 px x its text scale).
    After ``factor`` x downsampling that feature spans
    ``legibility_scale / factor`` pixels; legibility falls off smoothly once
    it drops below one pixel.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    effective = visual.legibility_scale / factor
    if effective >= 1.0:
        return 1.0
    # Smooth roll-off: at half a pixel, half the information is gone.
    return float(max(0.0, effective))


def raster_legibility(visual: VisualContent, factor: int) -> float:
    """Memoized :func:`legibility_score` of a visual's rendered raster.

    Keyed by ``(content_key(visual), factor)``, so twelve models sweeping
    the same 142 figures score each (figure, factor) pair once — the
    score depends only on the pixels and the factor, never on which
    encoder or model asked.
    """
    from repro.visual import content_key, render  # local: avoids a cycle

    key = (content_key(visual), factor)
    score = _LEGIBILITY_CACHE.get(key)
    if score is None:
        score = legibility_score(render(visual), factor)
        _LEGIBILITY_CACHE.put(key, score)
    return score


def visual_legibility(visual: VisualContent, factor: int) -> float:
    """Legibility of a question visual at a downsampling factor.

    Uses the rendered raster when a scene is available (slower, grounded in
    pixels) and the analytic stroke model otherwise; the combined score is
    their product, so *either* vanishing strokes or vanishing image contrast
    degrades perception.
    """
    analytic = stroke_legibility(visual, factor)
    if visual.render_spec:
        return float(raster_legibility(visual, factor) * analytic)
    return analytic


def infer_legibility_scale(scene, text_scale_px: float = 8.0) -> float:
    """Declare a figure's finest feature from its scene description.

    Text glyphs at scale 1 are 5x7 px — call the essential feature the
    glyph body (~8 px per scale unit, tuned so 8x downsampling keeps labels
    readable and 16x does not, matching the paper's observation).
    """
    return float(min_stroke_scale(scene) * text_scale_px)
