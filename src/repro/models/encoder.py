"""Simulated visual encoder: resolution-limited perception of figures.

The encoder mirrors the front end of Fig. 2 in the paper: it ingests the
question's raster(s), tiles them into patches, and produces a *perception
score* in [0, 1] — how much of the figure's task-relevant information
survives the encoder's input resolution and any external downsampling.
Perception is grounded in the actual rendered pixels (edge-energy
retention) multiplied by the analytic stroke-legibility model, so the
Section IV-B resolution study measures a real image-processing pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.perfstats import LruCache
from repro.core.question import Question, VisualContent
from repro.visual.resolution import stroke_legibility, visual_legibility

#: Content-keyed memo of perception scores: one entry per (encoder
#: configuration, figure content, factor, raster mode).  Models sharing
#: an encoder configuration share entries, so a 12-model sweep computes
#: each figure's perception once per distinct encoder, not 12x.
#: Memory only, with no spill codec: a miss is a few float operations
#: over cached inputs (~3 us on a 2-vCPU host), while a disk entry cost
#: ~38 us to read back and ~0.9 ms of CPU to create there.  The
#: expensive work beneath it, the ``legibility`` and ``render`` caches
#: of raster mode, keeps its disk tier.
_PERCEPTION_CACHE = LruCache(capacity=32768, name="perception")

#: Exponent translating mean perception loss into pass-rate loss.
PERCEPTION_TO_RATE_GAMMA = 1.0

#: Fraction of a question that remains answerable with a destroyed image:
#: the prompt text, the answer options and the model's prior knowledge are
#: a non-visual channel.  Calibrated jointly with the legibility metric so
#: that 8x downsampling preserves the Digital pass rate while 16x drops it
#: from 0.49 to 0.37, as the paper measures (see EXPERIMENTS.md, E4).
PRIOR_FLOOR = 0.7


@dataclass(frozen=True)
class VisualEncoder:
    """Patch-based encoder with a square input resolution."""

    name: str = "vit-l"
    input_resolution: int = 336
    patch_size: int = 14
    quality: float = 1.0  # relative encoder strength in [0, 1]

    def __post_init__(self) -> None:
        if self.input_resolution <= 0 or self.patch_size <= 0:
            raise ValueError("resolution and patch size must be positive")
        if not 0.0 < self.quality <= 1.0:
            raise ValueError("quality must be in (0, 1]")

    @property
    def tokens_per_image(self) -> int:
        side = self.input_resolution // self.patch_size
        return side * side

    def intrinsic_factor(self, visual: VisualContent) -> float:
        """Downsampling the encoder itself applies to fit its input size."""
        longest = max(visual.width, visual.height)
        return max(1.0, longest / self.input_resolution)

    def config_key(self) -> Tuple[str, int, int, float]:
        """Everything about the encoder a perception score depends on."""
        return (self.name, self.input_resolution, self.patch_size,
                self.quality)

    def perceive(self, visual: VisualContent,
                 external_factor: int = 1, use_raster: bool = True) -> float:
        """Perception score of one visual at an external downsample factor.

        The external factor (the Section IV-B experiment) composes with the
        encoder's intrinsic resize; the rendered raster contributes via the
        edge-retention legibility metric when available.  Scores are
        memoized content-addressed (see :data:`_PERCEPTION_CACHE`): the
        score is a pure function of the encoder configuration, the
        visual's content and the factor, so cached and uncached paths are
        bit-identical.
        """
        if external_factor < 1:
            raise ValueError("factor must be >= 1")
        from repro.visual import content_key  # local import avoids a cycle

        key = (self.config_key(), content_key(visual),
               external_factor, bool(use_raster))
        score = _PERCEPTION_CACHE.get(key)
        if score is None:
            score = self._perceive_uncached(visual, external_factor,
                                            use_raster)
            _PERCEPTION_CACHE.put(key, score)
        return score

    def _perceive_uncached(self, visual: VisualContent,
                           external_factor: int,
                           use_raster: bool) -> float:
        combined = int(round(
            external_factor * self.intrinsic_factor(visual)))
        combined = max(combined, 1)
        if use_raster and visual.render_spec:
            score = visual_legibility(visual, external_factor)
            # intrinsic resize applies analytically on top
            score *= stroke_legibility(visual, combined) \
                / max(stroke_legibility(visual, external_factor), 1e-9)
        else:
            score = stroke_legibility(visual, combined)
        score = max(0.0, min(1.0, score * self.quality))
        return PRIOR_FLOOR + (1.0 - PRIOR_FLOOR) * score

    def perceive_question(self, question: Question,
                          external_factor: int = 1,
                          use_raster: bool = True) -> float:
        """Mean perception over all of a question's visuals."""
        scores = [
            self.perceive(v, external_factor, use_raster)
            for v in question.all_visuals
        ]
        return sum(scores) / len(scores)


def rate_scaling(mean_perception: float,
                 gamma: float = PERCEPTION_TO_RATE_GAMMA) -> float:
    """Pass-rate multiplier implied by a mean perception score."""
    if not 0.0 <= mean_perception <= 1.0:
        raise ValueError("perception must be in [0, 1]")
    return mean_perception ** gamma
