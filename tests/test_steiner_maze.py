"""Tests for routing: Steiner/spanning trees and the Lee maze router."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.physical.geometry import Point, hpwl
from repro.physical.maze import RoutingGrid, bends
from repro.physical.steiner import (
    chain_topology,
    compare_topologies,
    is_spanning_tree,
    rmst,
    rmst_cost,
    star_topology,
    tree_cost,
)


class TestSpanningTrees:
    def test_two_points(self):
        points = [Point(0, 0), Point(3, 4)]
        edges = rmst(points)
        assert edges == [(0, 1)]
        assert tree_cost(points, edges) == 7

    def test_rmst_is_minimal_on_square(self):
        points = [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)]
        assert rmst_cost(points) == 3

    def test_is_spanning_tree(self):
        assert is_spanning_tree(3, [(0, 1), (1, 2)])
        assert not is_spanning_tree(3, [(0, 1)])
        assert not is_spanning_tree(3, [(0, 1), (0, 1)])

    def test_star_and_chain_builders(self):
        points = [Point(0, 0), Point(1, 0), Point(2, 0)]
        assert is_spanning_tree(3, star_topology(points))
        assert is_spanning_tree(3, chain_topology(points))

    def test_compare_topologies(self):
        points = [Point(1, 1), Point(5, 1), Point(5, 5), Point(9, 5)]
        cost_a, cost_b, winner = compare_topologies(
            points, star_topology(points, root=1), chain_topology(points))
        assert winner == "B"
        assert cost_b < cost_a

    def test_compare_rejects_non_trees(self):
        points = [Point(0, 0), Point(1, 0), Point(2, 0)]
        with pytest.raises(ValueError):
            compare_topologies(points, [(0, 1)], chain_topology(points))

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                    min_size=2, max_size=8, unique=True))
    def test_rmst_beats_chain_and_respects_hpwl(self, coords):
        points = [Point(x, y) for x, y in coords]
        mst_cost = rmst_cost(points)
        assert mst_cost <= tree_cost(points, chain_topology(points)) + 1e-9
        assert mst_cost >= hpwl(points) - 1e-9


class TestMazeRouter:
    def test_straight_route(self):
        grid = RoutingGrid(5, 5)
        path = grid.route((0, 0), (0, 4))
        assert len(path) == 5
        assert bends(path) == 0

    def test_blocked_route_detours(self):
        grid = RoutingGrid(7, 9, obstacles=[(3, c) for c in range(2, 7)])
        length = grid.route_length((1, 4), (5, 4))
        assert length == 10  # 4 direct + 6 detour around the blockage

    def test_unreachable_returns_none(self):
        grid = RoutingGrid(3, 3, obstacles=[(0, 1), (1, 1), (2, 1)])
        assert grid.route((0, 0), (0, 2)) is None

    def test_source_on_obstacle_raises(self):
        grid = RoutingGrid(3, 3, obstacles=[(1, 1)])
        with pytest.raises(ValueError):
            grid.route((1, 1), (0, 0))

    def test_obstacle_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            RoutingGrid(3, 3, obstacles=[(5, 5)])

    def test_path_cells_adjacent_and_clear(self):
        grid = RoutingGrid(6, 6, obstacles=[(2, 2), (2, 3), (3, 2)])
        path = grid.route((0, 0), (5, 5))
        for a, b in zip(path, path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            assert b not in grid.obstacles

    @settings(max_examples=30)
    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
           st.integers(0, 5))
    def test_unobstructed_length_is_manhattan(self, r0, c0, r1, c1):
        grid = RoutingGrid(6, 6)
        assert grid.route_length((r0, c0), (r1, c1)) == \
            abs(r0 - r1) + abs(c0 - c1)

    def test_bends_counts_direction_changes(self):
        assert bends([(0, 0), (0, 1), (1, 1), (1, 2)]) == 2
        assert bends([(0, 0), (0, 1)]) == 0
