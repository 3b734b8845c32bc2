"""Tests and property tests for the planar-geometry primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.physical.geometry import Point, Rect, bounding_box, hpwl


class TestPoint:
    def test_manhattan(self):
        assert Point(0, 0).manhattan(Point(3, 4)) == 7

    def test_unpack(self):
        x, y = Point(2, 5)
        assert (x, y) == (2, 5)


class TestRect:
    def test_properties(self):
        rect = Rect(1, 2, 3, 4)
        assert rect.x2 == 4 and rect.y2 == 6
        assert rect.area == 12
        assert rect.center == Point(2.5, 4.0)

    def test_negative_dims_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, -1, 1)

    def test_overlap_strict_interior(self):
        a = Rect(0, 0, 2, 2)
        assert a.overlaps(Rect(1, 1, 2, 2))
        assert not a.overlaps(Rect(2, 0, 2, 2))  # shared edge

    def test_spacing(self):
        a = Rect(0, 0, 1, 1)
        assert a.spacing_to(Rect(3, 0, 1, 1)) == 2.0
        assert a.spacing_to(Rect(0.5, 0.5, 1, 1)) == 0.0

    def test_contains_point(self):
        assert Rect(0, 0, 2, 2).contains_point(Point(1, 1))
        assert not Rect(0, 0, 2, 2).contains_point(Point(3, 1))


class TestHpwl:
    def test_single_point(self):
        assert hpwl([Point(5, 5)]) == 0

    def test_rectangle_half_perimeter(self):
        assert hpwl([Point(0, 0), Point(3, 4)]) == 7

    def test_interior_points_free(self):
        base = hpwl([Point(0, 0), Point(4, 4)])
        assert hpwl([Point(0, 0), Point(2, 2), Point(4, 4)]) == base

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_box([])


points_strategy = st.lists(
    st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
    min_size=1, max_size=12).map(lambda c: [Point(x, y) for x, y in c])


@given(points_strategy)
def test_hpwl_nonnegative(points):
    assert hpwl(points) >= 0


@given(points_strategy, st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
def test_hpwl_monotone_under_extension(points, extra):
    """Adding a pin can never shrink the bounding box."""
    grown = points + [Point(*extra)]
    assert hpwl(grown) >= hpwl(points) - 1e-9


@given(points_strategy, st.floats(-20, 20), st.floats(-20, 20))
def test_hpwl_translation_invariant(points, dx, dy):
    moved = [Point(p.x + dx, p.y + dy) for p in points]
    assert hpwl(moved) == pytest.approx(hpwl(points), abs=1e-6)


@given(st.floats(0, 10), st.floats(0, 10), st.floats(0.1, 10),
       st.floats(0.1, 10))
def test_rect_spacing_symmetric(x, y, w, h):
    a = Rect(0, 0, 5, 5)
    b = Rect(x, y, w, h)
    assert a.spacing_to(b) == pytest.approx(b.spacing_to(a))
