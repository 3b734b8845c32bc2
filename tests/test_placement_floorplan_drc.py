"""Tests for placement legalisation, slicing floorplans and DRC."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.physical import drc, floorplan, placement
from repro.physical.floorplan import Block
from repro.physical.geometry import Point, Rect
from repro.physical.placement import Cell


class TestLegalize:
    def test_non_overlapping_result(self):
        cells = [Cell("a", 2.0, Point(1.0, 0.0)),
                 Cell("b", 2.0, Point(1.5, 0.0)),
                 Cell("c", 2.0, Point(2.0, 0.0))]
        placed = placement.legalize(cells, [0.0], 10.0, 1.0)
        assert not placement.has_overlaps(placed)

    def test_displacement_computed(self):
        cells = [Cell("a", 2.0, Point(0.0, 0.0)),
                 Cell("b", 2.0, Point(0.0, 0.0))]
        placed = placement.legalize(cells, [0.0], 10.0, 1.0)
        assert placement.total_displacement(placed) == pytest.approx(2.0)

    def test_spills_to_other_row(self):
        cells = [Cell("a", 8.0, Point(0.0, 0.0)),
                 Cell("b", 8.0, Point(0.0, 0.0))]
        placed = placement.legalize(cells, [0.0, 1.0], 10.0, 1.0)
        rows_used = {p.rect.y for p in placed}
        assert len(rows_used) == 2

    def test_cell_too_wide_raises(self):
        with pytest.raises(ValueError, match="wider"):
            placement.legalize([Cell("a", 20.0, Point(0, 0))],
                               [0.0], 10.0, 1.0)

    def test_overflow_raises(self):
        cells = [Cell(f"c{i}", 6.0, Point(0.0, 0.0)) for i in range(3)]
        with pytest.raises(ValueError, match="fit"):
            placement.legalize(cells, [0.0], 10.0, 1.0)

    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.floats(0.5, 3.0), st.floats(0.0, 15.0)),
                    min_size=1, max_size=12))
    def test_legal_placement_properties(self, specs):
        cells = [Cell(f"c{i}", w, Point(x, 0.0))
                 for i, (w, x) in enumerate(specs)]
        total_width = sum(c.width for c in cells)
        rows = [float(i) for i in range(int(total_width / 20.0) + 2)]
        placed = placement.legalize(cells, rows, 20.0, 1.0)
        assert len(placed) == len(cells)
        assert not placement.has_overlaps(placed)
        for p in placed:
            assert 0.0 <= p.rect.x
            assert p.rect.x2 <= 20.0 + 1e-9


class TestUtilisation:
    def test_utilization(self):
        assert placement.utilization([40.0, 60.0], 200.0) == 0.5

    def test_rows_required(self):
        assert placement.rows_required(300.0, 50.0, 0.8) == 8


class TestFloorplan:
    _BLOCKS = {"A": Block("A", 4.0, 3.0), "B": Block("B", 4.0, 2.0),
               "C": Block("C", 2.0, 4.0)}

    def test_pack_h(self):
        assert floorplan.pack(["A", "B", "H"], self._BLOCKS) == (4.0, 5.0)

    def test_pack_v(self):
        assert floorplan.pack(["A", "B", "V"], self._BLOCKS) == (8.0, 3.0)

    def test_nested_expression(self):
        assert floorplan.pack(["A", "B", "H", "C", "V"], self._BLOCKS) == \
            (6.0, 5.0)

    def test_area_and_dead_space(self):
        expr = ["A", "B", "H", "C", "V"]
        assert floorplan.chip_area(expr, self._BLOCKS) == 30.0
        assert floorplan.dead_space(expr, self._BLOCKS) == pytest.approx(2.0)
        assert floorplan.dead_space_percent(expr, self._BLOCKS) == \
            pytest.approx(100.0 * 2.0 / 30.0)

    def test_malformed_expression_rejected(self):
        with pytest.raises(ValueError):
            floorplan.pack(["A", "H"], self._BLOCKS)
        with pytest.raises(ValueError):
            floorplan.pack(["A", "B"], self._BLOCKS)

    def test_unknown_block_rejected(self):
        with pytest.raises(ValueError):
            floorplan.pack(["Z", "A", "H"], self._BLOCKS)

    def test_dead_space_nonnegative_property(self):
        expr = ["A", "C", "V", "B", "H"]
        assert floorplan.dead_space(expr, self._BLOCKS) >= -1e-9


class TestDrc:
    _RULES = drc.RuleSet(min_width=1.0, min_spacing=1.0, min_enclosure=0.2)

    def test_width_violation(self):
        violations = drc.check_width([Rect(0, 0, 0.8, 5)], self._RULES)
        assert len(violations) == 1
        assert violations[0].kind == "width"
        assert violations[0].value == pytest.approx(0.8)

    def test_spacing_violation(self):
        shapes = [Rect(0, 0, 2, 5), Rect(2.5, 0, 2, 5)]
        violations = drc.check_spacing(shapes, self._RULES)
        assert len(violations) == 1
        assert violations[0].shapes == (0, 1)

    def test_overlap_counts_as_zero_spacing(self):
        shapes = [Rect(0, 0, 2, 5), Rect(1, 0, 2, 5)]
        violations = drc.check_spacing(shapes, self._RULES)
        assert violations[0].value == 0.0

    def test_clean_layout_passes(self):
        shapes = [Rect(0, 0, 2, 5), Rect(3.5, 0, 2, 5)]
        assert drc.check_layer(shapes, self._RULES) == []

    def test_violation_str(self):
        violation = drc.check_width([Rect(0, 0, 0.5, 5)], self._RULES)[0]
        assert "width" in str(violation)

    def test_diagonal_spacing_uses_euclidean(self):
        shapes = [Rect(0, 0, 1, 1), Rect(1.5, 1.5, 1, 1)]
        spacing = shapes[0].spacing_to(shapes[1])
        assert spacing == pytest.approx((0.5 ** 2 + 0.5 ** 2) ** 0.5)
