"""Rectilinear routing trees: spanning trees and topology costs.

Implements the routing-cost machinery behind the paper's Physical Design
example ("calculate the routing costs for the 2 diagrams and determine
which routing topology has lower cost"): rectilinear minimum spanning trees
(Prim) and explicit-topology cost evaluation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.physical.geometry import Point


Edge = Tuple[int, int]


def tree_cost(points: Sequence[Point], edges: Sequence[Edge]) -> float:
    """Total Manhattan length of an explicit tree topology."""
    return sum(points[a].manhattan(points[b]) for a, b in edges)


def is_spanning_tree(n_points: int, edges: Sequence[Edge]) -> bool:
    """Connected + acyclic over ``n_points`` vertices."""
    if len(edges) != n_points - 1:
        return False
    parent = list(range(n_points))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def rmst(points: Sequence[Point]) -> List[Edge]:
    """Rectilinear minimum spanning tree via Prim's algorithm."""
    n = len(points)
    if n == 0:
        raise ValueError("no points")
    if n == 1:
        return []
    in_tree = {0}
    edges: List[Edge] = []
    best: Dict[int, Tuple[float, int]] = {
        i: (points[0].manhattan(points[i]), 0) for i in range(1, n)
    }
    while len(in_tree) < n:
        nxt = min(best, key=lambda i: (best[i][0], i))
        dist, src = best.pop(nxt)
        in_tree.add(nxt)
        edges.append((src, nxt))
        for i in list(best):
            d = points[nxt].manhattan(points[i])
            if d < best[i][0]:
                best[i] = (d, nxt)
    return edges


def rmst_cost(points: Sequence[Point]) -> float:
    """Total wirelength of the rectilinear MST."""
    return tree_cost(points, rmst(points))


def compare_topologies(points: Sequence[Point],
                       topo_a: Sequence[Edge],
                       topo_b: Sequence[Edge]) -> Tuple[float, float, str]:
    """Costs of two explicit topologies and which is cheaper ('A'/'B'/'tie')."""
    for name, topo in (("A", topo_a), ("B", topo_b)):
        if not is_spanning_tree(len(points), list(topo)):
            raise ValueError(f"topology {name} is not a spanning tree")
    cost_a = tree_cost(points, topo_a)
    cost_b = tree_cost(points, topo_b)
    if abs(cost_a - cost_b) < 1e-12:
        winner = "tie"
    else:
        winner = "A" if cost_a < cost_b else "B"
    return cost_a, cost_b, winner


def star_topology(points: Sequence[Point], root: int = 0) -> List[Edge]:
    """All sinks connected directly to ``root``."""
    return [(root, i) for i in range(len(points)) if i != root]


def chain_topology(points: Sequence[Point]) -> List[Edge]:
    """Points connected in index order."""
    return [(i, i + 1) for i in range(len(points) - 1)]
