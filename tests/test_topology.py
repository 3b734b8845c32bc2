"""Tests for NoC topology construction and metrics."""

import pytest

from repro.arch import topology as topo


class TestConstruction:
    def test_ring(self):
        graph = topo.ring(8)
        assert graph.number_of_nodes() == 8
        assert all(d == 2 for _, d in graph.degree())

    def test_mesh(self):
        graph = topo.mesh2d(3, 4)
        assert graph.number_of_nodes() == 12
        assert topo.link_count(graph) == 3 * 3 + 2 * 4

    def test_torus_regular_degree_four(self):
        graph = topo.torus2d(4, 4)
        assert all(d == 4 for _, d in graph.degree())

    def test_hypercube(self):
        graph = topo.hypercube(4)
        assert graph.number_of_nodes() == 16
        assert all(d == 4 for _, d in graph.degree())

    def test_crossbar_complete(self):
        graph = topo.crossbar(5)
        assert topo.link_count(graph) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            topo.ring(2)
        with pytest.raises(ValueError):
            topo.hypercube(0)


class TestMetrics:
    def test_mesh_diameter_closed_form(self):
        for rows, cols in ((2, 2), (3, 3), (4, 4), (3, 5)):
            graph = topo.mesh2d(rows, cols)
            assert topo.diameter(graph) == topo.mesh_diameter(rows, cols)

    def test_torus_diameter_closed_form(self):
        for side in (3, 4, 5):
            graph = topo.torus2d(side, side)
            assert topo.diameter(graph) == topo.torus_diameter(side, side)

    def test_hypercube_diameter(self):
        for dim in (2, 3, 4):
            assert topo.diameter(topo.hypercube(dim)) == dim

    def test_crossbar_diameter_one(self):
        assert topo.diameter(topo.crossbar(6)) == 1

    def test_average_hops_less_than_diameter(self):
        graph = topo.mesh2d(4, 4)
        assert topo.average_hops(graph) < topo.diameter(graph)


class TestBisection:
    def test_ring_bisection_two(self):
        assert topo.bisection_width(topo.ring(8)) == 2

    def test_hypercube_bisection(self):
        assert topo.bisection_width(topo.hypercube(3)) == 4
        assert topo.bisection_width(topo.hypercube(4)) == 8

    def test_mesh_bisection(self):
        assert topo.bisection_width(topo.mesh2d(4, 4)) == 4

    def test_crossbar_bisection(self):
        assert topo.bisection_width(topo.crossbar(4)) == 4

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            topo.bisection_width(topo.ring(5))

    def test_large_known_topologies(self):
        assert topo.bisection_width(topo.ring(64)) == 2
        assert topo.bisection_width(topo.hypercube(5)) == 16
        assert topo.bisection_width(topo.crossbar(20)) == 100


class TestComparison:
    def test_compare_topologies_at_16(self):
        table = topo.compare_topologies(16)
        assert set(table) >= {"ring", "crossbar", "mesh", "hypercube"}
        assert table["crossbar"]["diameter"] == 1.0
        assert table["hypercube"]["diameter"] == 4.0
        assert table["ring"]["diameter"] == 8.0
