"""Tests for downsampling and the legibility metric."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.question import VisualContent, VisualType
from repro.visual.canvas import Canvas
from repro.visual.resolution import (
    INK_THRESHOLD,
    VISIBILITY_THRESHOLD,
    downsample,
    legibility_score,
    stroke_legibility,
    upsample_nearest,
    visual_legibility,
)


class TestDownsample:
    def test_identity_at_one(self):
        image = np.arange(16, dtype=np.uint8).reshape(4, 4)
        assert (downsample(image, 1) == image).all()

    def test_shape_halves(self):
        image = np.zeros((8, 8), dtype=np.uint8)
        assert downsample(image, 2).shape == (4, 4)

    def test_uneven_dimensions_padded(self):
        image = np.zeros((7, 9), dtype=np.uint8)
        reduced = downsample(image, 4)
        assert reduced.shape == (2, 3)

    def test_block_average(self):
        image = np.array([[0, 255], [255, 255]], dtype=np.uint8)
        reduced = downsample(image, 2)
        assert reduced[0, 0] == round((0 + 255 * 3) / 4)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            downsample(np.zeros((4, 4), dtype=np.uint8), 0)

    def test_upsample_inverse_shape(self):
        image = np.zeros((4, 4), dtype=np.uint8)
        assert upsample_nearest(image, 3).shape == (12, 12)


class TestLegibilityScore:
    def _figure_with_thin_lines(self):
        canvas = Canvas(256, 256)
        for y in range(20, 240, 24):
            canvas.line(10, y, 246, y)
        canvas.text(20, 4, "LABELS EVERYWHERE")
        return canvas.pixels

    def test_native_is_one(self):
        assert legibility_score(self._figure_with_thin_lines(), 1) == 1.0

    def test_blank_image_is_one(self):
        blank = np.full((64, 64), 255, dtype=np.uint8)
        assert legibility_score(blank, 16) == 1.0

    def test_monotone_nonincreasing_in_factor(self):
        image = self._figure_with_thin_lines()
        scores = [legibility_score(image, f) for f in (1, 2, 4, 8, 16)]
        assert all(a >= b - 1e-9 for a, b in zip(scores, scores[1:]))

    def test_sixteen_x_destroys_thin_strokes(self):
        image = self._figure_with_thin_lines()
        assert legibility_score(image, 16) < 0.7

    def test_eight_x_mostly_survives(self):
        image = self._figure_with_thin_lines()
        assert legibility_score(image, 8) > 0.6

    def test_thick_features_survive_16x(self):
        canvas = Canvas(256, 256)
        canvas.fill_rect(32, 32, 160, 160)
        assert legibility_score(canvas.pixels, 16) > 0.85


def _ref_legibility(image, factor):
    """The previous ``nonzero`` + ``downsample`` form of the kernel: each
    ink pixel looks up its block in the rounded, downsampled image
    (byte-level oracle for the integer block-sum kernel)."""
    if factor == 1:
        return 1.0
    ink_rows, ink_cols = np.nonzero(image < INK_THRESHOLD)
    if ink_rows.size == 0:
        return 1.0
    reduced = downsample(image, factor)
    visible = reduced[ink_rows // factor, ink_cols // factor] \
        < VISIBILITY_THRESHOLD
    return float(visible.mean())


@st.composite
def _ragged_rasters(draw):
    """A factor in 1-20 and a uint8 raster whose sides it does not divide
    (sides of 1-3 for factor 1), in pixel values either side of the ink
    and visibility thresholds."""
    factor = draw(st.integers(1, 20))

    def side():
        rest = draw(st.integers(1, max(1, factor - 1)))
        return draw(st.integers(0, 2)) * factor + rest

    shape = (side(), side())
    values = st.sampled_from([0, 127, 128, 229, 230, 255])
    return draw(arrays(np.uint8, shape, elements=values)), factor


class TestLegibilityKernel:
    @given(_ragged_rasters())
    def test_matches_downsample_reference(self, case):
        image, factor = case
        assert legibility_score(image, factor) == \
            _ref_legibility(image, factor)

    def test_block_mean_of_exactly_229_5_is_invisible(self):
        # One ink pixel in each 4 x 4 block: the left block's mean is
        # 3672 / 16 = 229.5, which rounds half to even up to 230; the
        # right block's, 3671 / 16, rounds down to 229 and stays visible.
        block = np.full((4, 4), 255, dtype=np.uint8)
        block[0, 0] = 0
        block[3, 1:] = 204
        image = np.hstack([block, block])
        image[3, 7] = 203
        assert downsample(image, 4).tolist() == [[230, 229]]
        assert legibility_score(image, 4) == 0.5
        assert _ref_legibility(image, 4) == 0.5

    @pytest.mark.parametrize("factor", [0, -1])
    @pytest.mark.parametrize("value", [255, 0], ids=["blank", "inked"])
    def test_factor_below_one_rejected_with_or_without_ink(self, factor,
                                                           value):
        image = np.full((8, 8), value, dtype=np.uint8)
        with pytest.raises(ValueError, match="factor must be >= 1"):
            legibility_score(image, factor)

    def test_matches_reference_on_a_rendered_figure(self, chipvqa):
        from repro.visual import render

        image = render(chipvqa[0].visual)
        for factor in (2, 3, 7, 8, 16):
            assert legibility_score(image, factor) == \
                _ref_legibility(image, factor)


class TestStrokeLegibility:
    def _visual(self, scale):
        return VisualContent(VisualType.DIAGRAM, "d",
                             legibility_scale=scale)

    def test_above_one_pixel_perfect(self):
        assert stroke_legibility(self._visual(8.0), 8) == 1.0

    def test_below_one_pixel_degrades(self):
        assert stroke_legibility(self._visual(8.0), 16) == pytest.approx(0.5)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            stroke_legibility(self._visual(8.0), 0)

    @given(st.floats(1.0, 64.0), st.integers(1, 32))
    def test_bounded(self, scale, factor):
        value = stroke_legibility(self._visual(scale), factor)
        assert 0.0 <= value <= 1.0


class TestVisualLegibility:
    def test_analytic_only_without_scene(self):
        visual = VisualContent(VisualType.DIAGRAM, "d",
                               legibility_scale=8.0)
        assert visual_legibility(visual, 8) == 1.0
        assert visual_legibility(visual, 16) == pytest.approx(0.5)

    def test_with_scene_uses_raster(self, chipvqa):
        question = chipvqa[0]
        native = visual_legibility(question.visual, 1)
        degraded = visual_legibility(question.visual, 16)
        assert degraded < native


class TestDownsampleProperties:
    @given(st.integers(1, 6), st.integers(8, 40), st.integers(8, 40),
           st.integers(0, 255))
    def test_constant_image_preserved(self, factor, h, w, value):
        image = np.full((h, w), value, dtype=np.uint8)
        reduced = downsample(image, factor)
        assert (reduced == value).all()

    @given(st.integers(2, 8))
    def test_mean_approximately_conserved(self, factor):
        rng = np.random.default_rng(42)
        image = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        reduced = downsample(image, factor)
        assert abs(float(reduced.mean()) - float(image.mean())) < 3.0

    @given(st.integers(1, 16))
    def test_legibility_bounded(self, factor):
        canvas = Canvas(64, 64)
        canvas.line(0, 32, 63, 32)
        score = legibility_score(canvas.pixels, factor)
        assert 0.0 <= score <= 1.0
