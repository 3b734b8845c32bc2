"""Tests for the raster canvas, scene interpreter and figure builders."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.question import VisualContent, VisualType
from repro.visual import content_key, render, render_scene
from repro.visual.canvas import BLACK, WHITE, Canvas
from repro.visual.diagram import (
    block_diagram_scene,
    flow_chart_scene,
    graph_scene,
    pipeline_scene,
    tree_scene,
)
from repro.visual.glyphs import GLYPH_HEIGHT, GLYPH_WIDTH, glyph_bitmap, text_width
from repro.visual.layout import cross_section_scene, layout_scene, mask_pattern_scene
from repro.visual.scene import draw_scene, min_stroke_scale, translate
from repro.visual.schematic import (
    bode_plot_scene,
    common_source_scene,
    differential_pair_scene,
    flash_adc_scene,
    logic_network_scene,
    opamp_stage_scene,
    resistor_network_scene,
)
from repro.visual.table import kmap_scene, table_scene, truth_table_scene
from repro.visual.waveform import curve_scene, waveform_scene


class TestCanvas:
    def test_background_white(self):
        canvas = Canvas(10, 10)
        assert (canvas.pixels == WHITE).all()

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Canvas(0, 10)

    def test_set_pixel_clipped(self):
        canvas = Canvas(5, 5)
        canvas.set_pixel(100, 100)  # silently out of bounds
        assert canvas.ink_fraction() == 0.0

    def test_horizontal_line(self):
        canvas = Canvas(10, 10)
        canvas.line(0, 5, 9, 5)
        assert (canvas.pixels[5, :] == BLACK).all()

    def test_diagonal_line_connected(self):
        canvas = Canvas(20, 20)
        canvas.line(0, 0, 19, 19)
        # Bresenham: exactly one ink pixel per row
        for row in range(20):
            assert (canvas.pixels[row] == BLACK).sum() == 1

    def test_thick_line(self):
        canvas = Canvas(10, 10)
        canvas.line(0, 5, 9, 5, thickness=3)
        assert (canvas.pixels[4:7, 2] == BLACK).all()

    def test_rect_outline_hollow(self):
        canvas = Canvas(20, 20)
        canvas.rect(2, 2, 10, 10)
        assert canvas.pixels[7, 7] == WHITE
        assert canvas.pixels[2, 5] == BLACK

    def test_fill_rect(self):
        canvas = Canvas(10, 10)
        canvas.fill_rect(2, 2, 3, 3, ink=100)
        assert (canvas.pixels[2:5, 2:5] == 100).all()

    def test_circle_symmetry(self):
        canvas = Canvas(21, 21)
        canvas.circle(10, 10, 6)
        assert (canvas.pixels == np.flip(canvas.pixels, axis=0)).all()
        assert (canvas.pixels == np.flip(canvas.pixels, axis=1)).all()

    def test_fill_circle_center_inked(self):
        canvas = Canvas(21, 21)
        canvas.fill_circle(10, 10, 5)
        assert canvas.pixels[10, 10] == BLACK

    def test_text_inks_pixels(self):
        canvas = Canvas(60, 20)
        canvas.text(2, 2, "AB")
        assert canvas.ink_fraction() > 0

    def test_text_scale_doubles_extent(self):
        small = Canvas(80, 40)
        small.text(0, 0, "X", scale=1)
        big = Canvas(80, 40)
        big.text(0, 0, "X", scale=2)
        assert big.ink_fraction() > small.ink_fraction() * 2

    def test_copy_independent(self):
        canvas = Canvas(5, 5)
        clone = canvas.copy()
        canvas.fill_rect(0, 0, 5, 5)
        assert clone.ink_fraction() == 0.0


def _ref_text(canvas, x, y, message, ink=BLACK, scale=1):
    """The seed repo's scalar ``text`` loop, kept as the byte-level oracle
    for the vectorized glyph blit."""
    cursor = x
    for character in message:
        bitmap = glyph_bitmap(character)
        for row, bits in enumerate(bitmap):
            for col, bit in enumerate(bits):
                if bit:
                    if scale == 1:
                        canvas.set_pixel(cursor + col, y + row, ink)
                    else:
                        canvas.fill_rect(cursor + col * scale,
                                         y + row * scale, scale, scale, ink)
        cursor += (GLYPH_WIDTH + 1) * scale


def _ref_stroke(canvas, x, y, ink, thickness):
    """The original scalar stroke of one point: the pixel itself, or the
    clipped square of half-width ``thickness // 2`` around it."""
    if thickness <= 1:
        canvas.set_pixel(x, y, ink)
        return
    radius = thickness // 2
    x0 = max(0, x - radius)
    x1 = min(canvas.width, x + radius + 1)
    y0 = max(0, y - radius)
    y1 = min(canvas.height, y + radius + 1)
    if x0 < x1 and y0 < y1:
        canvas.pixels[y0:y1, x0:x1] = ink


def _ref_line(canvas, x0, y0, x1, y1, ink=BLACK, thickness=1):
    """The original scalar Bresenham loop (byte-level oracle)."""
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        _ref_stroke(canvas, x, y, ink, thickness)
        if x == x1 and y == y1:
            break
        err2 = 2 * err
        if err2 >= dy:
            err += dy
            x += sx
        if err2 <= dx:
            err += dx
            y += sy


def _ref_circle(canvas, cx, cy, radius, ink=BLACK, thickness=1):
    """The seed repo's scalar midpoint-circle loop (byte-level oracle)."""
    x, y = radius, 0
    err = 1 - radius
    while x >= y:
        for px, py in (
            (cx + x, cy + y), (cx - x, cy + y),
            (cx + x, cy - y), (cx - x, cy - y),
            (cx + y, cy + x), (cx - y, cy + x),
            (cx + y, cy - x), (cx - y, cy - x),
        ):
            _ref_stroke(canvas, px, py, ink, thickness)
        y += 1
        if err < 0:
            err += 2 * y + 1
        else:
            x -= 1
            err += 2 * (y - x) + 1


def _ref_hatch_rect(canvas, x, y, width, height, ink=BLACK, pitch=6):
    """The seed repo's scalar ``hatch_rect`` loop (byte-level oracle)."""
    corners = [(x, y), (x + width, y), (x + width, y + height),
               (x, y + height), (x, y)]
    for (ax, ay), (bx, by) in zip(corners, corners[1:]):
        _ref_line(canvas, ax, ay, bx, by, ink)
    for offset in range(-height, width, pitch):
        x0 = x + max(0, offset)
        y0 = y + max(0, -offset)
        length = min(width - max(0, offset), height - max(0, -offset))
        if length > 0:
            _ref_line(canvas, x0, y0, x0 + length, y0 + length, ink)


class TestVectorizedKernels:
    """The numpy-kernel rewrites of ``line``/``text``/``circle``/
    ``hatch_rect`` must stay byte-identical to the original per-pixel
    loops — renders feed content-addressed caches and golden run
    digests, so a single drifted pixel would silently invalidate every
    pinned artifact."""

    @given(x0=st.integers(-15, 75), y0=st.integers(-15, 60),
           x1=st.integers(-15, 75), y1=st.integers(-15, 60),
           thickness=st.integers(0, 5), ink=st.integers(0, 254))
    def test_line_matches_scalar_reference(self, x0, y0, x1, y1,
                                           thickness, ink):
        fast, slow = Canvas(60, 45), Canvas(60, 45)
        fast.line(x0, y0, x1, y1, ink, thickness)
        _ref_line(slow, x0, y0, x1, y1, ink, thickness)
        assert (fast.pixels == slow.pixels).all()

    @given(fixed=st.integers(-8, 68), start=st.integers(-15, 75),
           stop=st.integers(-15, 75), vertical=st.booleans(),
           thickness=st.integers(0, 5), ink=st.integers(0, 254))
    def test_axis_aligned_line_matches_scalar_reference(
            self, fixed, start, stop, vertical, thickness, ink):
        # Random endpoints rarely share an x or a y, and the axis-aligned
        # runs are the ones drawn as a single rectangle.
        if vertical:
            ends = (fixed, start, fixed, stop)
        else:
            ends = (start, fixed, stop, fixed)
        fast, slow = Canvas(60, 45), Canvas(60, 45)
        fast.line(*ends, ink, thickness)
        _ref_line(slow, *ends, ink, thickness)
        assert (fast.pixels == slow.pixels).all()

    @given(x=st.integers(-20, 70), y=st.integers(-15, 40),
           scale=st.integers(1, 3), ink=st.integers(0, 254),
           message=st.text(
               alphabet="ABXZ09 .-+Ωµ%?abz€", min_size=0, max_size=6))
    def test_text_matches_scalar_reference(self, x, y, scale, ink, message):
        fast, slow = Canvas(64, 48), Canvas(64, 48)
        fast.text(x, y, message, ink, scale)
        _ref_text(slow, x, y, message, ink, scale)
        assert (fast.pixels == slow.pixels).all()

    @given(cx=st.integers(-10, 70), cy=st.integers(-10, 55),
           radius=st.integers(0, 40), thickness=st.integers(1, 5),
           ink=st.integers(0, 254))
    def test_circle_matches_scalar_reference(self, cx, cy, radius,
                                             thickness, ink):
        fast, slow = Canvas(60, 45), Canvas(60, 45)
        fast.circle(cx, cy, radius, ink, thickness)
        _ref_circle(slow, cx, cy, radius, ink, thickness)
        assert (fast.pixels == slow.pixels).all()

    @given(x=st.integers(-10, 55), y=st.integers(-10, 40),
           width=st.integers(0, 50), height=st.integers(0, 40),
           pitch=st.integers(1, 9), ink=st.integers(0, 254))
    def test_hatch_rect_matches_scalar_reference(self, x, y, width,
                                                 height, pitch, ink):
        fast, slow = Canvas(56, 42), Canvas(56, 42)
        fast.hatch_rect(x, y, width, height, ink, pitch)
        _ref_hatch_rect(slow, x, y, width, height, ink, pitch)
        assert (fast.pixels == slow.pixels).all()

    def test_text_clips_like_set_pixel(self):
        canvas = Canvas(8, 8)
        canvas.text(-3, -2, "WW", scale=2)  # mostly off-canvas
        slow = Canvas(8, 8)
        _ref_text(slow, -3, -2, "WW", scale=2)
        assert (canvas.pixels == slow.pixels).all()

    def test_seed_raster_digest_pinned(self):
        """Every rendered visual in the standard collection, chained into
        one digest captured from the pre-vectorization seed renderer."""
        import hashlib

        from repro.core.benchmark import build_chipvqa

        digest = hashlib.sha256()
        count = 0
        for question in sorted(build_chipvqa().questions,
                               key=lambda q: q.qid):
            for visual in question.all_visuals:
                if visual.render_spec:
                    digest.update(content_key(visual).encode("utf-8"))
                    digest.update(render(visual, use_cache=False).tobytes())
                    count += 1
        assert count == 144
        assert digest.hexdigest() == (
            "9088b2c7f3c233f06fe6eb2afbc589701bd4227cf75914cd4a0468a2e3514230"
        )


class TestGlyphs:
    def test_dimensions(self):
        for ch in "A9+ ":
            bitmap = glyph_bitmap(ch)
            assert len(bitmap) == GLYPH_HEIGHT
            assert all(len(row) == GLYPH_WIDTH for row in bitmap)

    def test_lowercase_maps_to_upper(self):
        assert glyph_bitmap("a") == glyph_bitmap("A")

    def test_unknown_renders_box(self):
        bitmap = glyph_bitmap("€")
        assert bitmap[0] == [1, 1, 1, 1, 1]

    def test_text_width(self):
        assert text_width("AB") == 2 * GLYPH_WIDTH + 1
        assert text_width("") == 0


class TestSceneInterpreter:
    def test_all_ops_draw(self):
        scene = [
            {"op": "line", "p0": [0, 0], "p1": [10, 10]},
            {"op": "polyline", "points": [[0, 10], [10, 10], [10, 0]]},
            {"op": "rect", "xy": [20, 20], "size": [10, 10]},
            {"op": "fill_rect", "xy": [40, 20], "size": [5, 5]},
            {"op": "hatch_rect", "xy": [50, 20], "size": [10, 10]},
            {"op": "circle", "center": [70, 30], "radius": 5},
            {"op": "fill_circle", "center": [85, 30], "radius": 3},
            {"op": "arrow", "p0": [0, 40], "p1": [20, 40]},
            {"op": "text", "xy": [0, 50], "s": "HI"},
            {"op": "text_centered", "xy": [50, 55], "s": "MID"},
        ]
        image = render_scene(scene, 100, 70)
        assert (image < 255).sum() > 50

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError, match="unknown scene op"):
            render_scene([{"op": "sparkle"}], 10, 10)

    def test_translate(self):
        scene = [{"op": "fill_rect", "xy": [0, 0], "size": [2, 2]}]
        moved = translate(scene, 5, 7)
        assert moved[0]["xy"] == [5, 7]
        assert scene[0]["xy"] == [0, 0]  # original untouched

    def test_min_stroke_scale(self):
        scene = [{"op": "text", "xy": [0, 0], "s": "A", "scale": 3},
                 {"op": "line", "p0": [0, 0], "p1": [1, 1], "thickness": 2}]
        assert min_stroke_scale(scene) == 2.0


BUILDERS = [
    lambda: resistor_network_scene([("R1", "1K"), ("R2", "2K")]),
    lambda: opamp_stage_scene("inverting", "RIN", "RF"),
    lambda: opamp_stage_scene("noninverting", "RG", "RF"),
    lambda: common_source_scene("GM", "RD"),
    lambda: common_source_scene("GM", "RD", with_degeneration=True),
    lambda: differential_pair_scene(),
    lambda: logic_network_scene([("AND", "G1", ["A", "B"])], "F"),
    lambda: flash_adc_scene(3),
    lambda: bode_plot_scene([2.0], [0.0, -20.0]),
    lambda: block_diagram_scene([("a", "A"), ("b", "B")], [("a", "b")]),
    lambda: pipeline_scene(["IF", "ID", "EX"], bypass=(2, 1)),
    lambda: graph_scene(["x", "y"], [("x", "y")]),
    lambda: graph_scene(["x", "y", "z", "w"], [], layout="grid"),
    lambda: flow_chart_scene(["S1", "S2"], loop_back=0),
    lambda: tree_scene([(1, 1, "P0"), (3, 2, "P1")], [(0, 1)]),
    lambda: layout_scene({"metal1": [(0, 0, 2, 2)]}),
    lambda: cross_section_scene([("silicon", 1.0), ("resist", 0.5)],
                                resist_openings=[(3, 2)]),
    lambda: mask_pattern_scene([(1, 1, 1, 4)],
                               assist_features=[(0.2, 1, 0.2, 4)]),
    lambda: table_scene([["A", "B"], ["1", "2"]]),
    lambda: truth_table_scene(["A"], ["F"], [(0, 1), (1, 0)]),
    lambda: kmap_scene(["A", "B", "C"], [["0", "1", "1", "0"],
                                         ["1", "0", "0", "1"]]),
    lambda: waveform_scene([("CLK", [0, 1, 0, 1])]),
    lambda: curve_scene([("G", [(1.0, 0.0), (10.0, -20.0)])], log_x=True),
]


@pytest.mark.parametrize("builder", BUILDERS,
                         ids=[f"builder{i}" for i in range(len(BUILDERS))])
def test_every_builder_renders_nonempty(builder):
    scene = builder()
    image = render_scene(scene, 512, 384)
    assert image.shape == (384, 512)
    ink = (image < 255).mean()
    assert 0.0005 < ink < 0.6


class TestRenderDispatch:
    def test_scene_spec(self):
        visual = VisualContent(
            VisualType.TABLE, "t",
            render_spec=("scene", [{"op": "fill_rect", "xy": [0, 0],
                                    "size": [10, 10]}]))
        image = render(visual, use_cache=False)
        assert image[5, 5] == 0

    def test_placeholder_without_scene(self):
        visual = VisualContent(VisualType.FIGURE, "a mystery photograph")
        image = render(visual, use_cache=False)
        assert (image < 255).sum() > 0

    def test_unknown_spec_kind(self):
        visual = VisualContent(VisualType.FIGURE, "x",
                               render_spec=("svg", []))
        with pytest.raises(ValueError):
            render(visual, use_cache=False)

    def test_cache_returns_same_array(self):
        visual = VisualContent(
            VisualType.TABLE, "t",
            render_spec=("scene", [{"op": "fill_rect", "xy": [0, 0],
                                    "size": [4, 4]}]))
        assert render(visual) is render(visual)


def _fill_visual(x, size=8):
    """A visual whose raster is uniquely determined by ``x``."""
    return VisualContent(
        VisualType.TABLE, f"fill at {x}",
        render_spec=("scene", [{"op": "fill_rect", "xy": [x, 0],
                                "size": [size, size]}]))


class TestRenderCacheContentKeying:
    def test_content_key_stable_across_instances(self):
        a = _fill_visual(2)
        b = _fill_visual(2)
        assert a is not b
        assert content_key(a) == content_key(b)

    def test_content_key_differs_on_any_pixel_relevant_field(self):
        base = _fill_visual(2)
        assert content_key(base) != content_key(_fill_visual(3))
        taller = VisualContent(base.visual_type, base.description,
                               base.render_spec, base.width,
                               base.height + 1)
        assert content_key(base) != content_key(taller)

    def test_equal_content_shares_one_cached_raster(self):
        assert render(_fill_visual(4)) is render(_fill_visual(4))

    def test_recycled_object_id_never_aliases(self):
        """Regression: the old ``id(visual)``-keyed cache could serve a
        *different* figure's raster after garbage collection reused the
        id.  Content keying makes aliasing impossible no matter how ids
        are recycled."""
        import gc

        stale_ids = set()
        for x in range(0, 64, 8):
            doomed = _fill_visual(x)
            render(doomed)
            stale_ids.add(id(doomed))
            del doomed
        gc.collect()
        recycled = 0
        for x in range(64, 256, 8):
            fresh = _fill_visual(x, size=4)
            recycled += id(fresh) in stale_ids
            image = render(fresh)
            # the raster must reflect *this* visual's content
            assert image[0, x] == 0
            assert image[0, (x + 32) % fresh.width] == WHITE
        # CPython recycles small-object ids aggressively; if this ever
        # stops holding the test still checks content correctness above.
        assert recycled >= 0

    def test_cached_raster_is_readonly(self):
        image = render(_fill_visual(5))
        with pytest.raises(ValueError):
            image[0, 0] = 7

    def test_use_cache_false_returns_private_writable_copy(self):
        visual = _fill_visual(6)
        image = render(visual, use_cache=False)
        image[0, 0] = 7  # a private raster: mutation must not poison
        assert render(visual)[0, 0] == WHITE

    def test_render_thread_hammer(self):
        """8 threads rendering a shared working set agree bit-for-bit."""
        import threading

        visuals = [_fill_visual(x) for x in range(0, 80, 8)]
        expected = [render(v, use_cache=False) for v in visuals]
        errors = []

        def worker():
            try:
                for _ in range(20):
                    for v, ref in zip(visuals, expected):
                        assert (render(v) == ref).all()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestContentKeyMemo:
    """``content_key`` is stashed on each ``VisualContent`` the first
    time it is asked for, so the key must never outlive the content."""

    def test_key_is_computed_once_per_instance(self, monkeypatch):
        import repro.visual

        visual = _fill_visual(12)
        first = content_key(visual)
        monkeypatch.setattr(repro.visual, "hashlib", None)  # no rehash
        assert content_key(visual) == first

    def test_specs_survive_a_full_run_and_memo_matches_fresh_key(self):
        """No code mutates a ``render_spec`` after its visual is built,
        so a memoised key always equals the key of a fresh instance."""
        import copy
        import dataclasses

        from repro.agent.system import run_table3
        from repro.core.benchmark import (build_chipvqa,
                                          build_chipvqa_challenge)
        from repro.core.databuild import build_scaled
        from repro.core.harness import EvaluationHarness, run_table2
        from repro.models import build_model

        scaled = build_scaled(284, seed=1)
        collections = (build_chipvqa(), build_chipvqa_challenge(),
                       list(scaled)[142:])
        visuals = {id(visual): visual
                   for collection in collections for question in collection
                   for visual in (question.visual, *question.extra_visuals)}
        specs = {key: copy.deepcopy(visual.render_spec)
                 for key, visual in visuals.items()}
        run_table2(["gpt-4o", "llava-7b"])
        EvaluationHarness().resolution_study(build_model("gpt-4o"),
                                             factors=(1, 8, 16))
        run_table3()
        for key, visual in visuals.items():
            assert visual.render_spec == specs[key]
            assert content_key(visual) == content_key(
                dataclasses.replace(visual))
            assert content_key(dataclasses.replace(
                visual, width=visual.width + 1)) != content_key(visual)
