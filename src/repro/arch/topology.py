"""Network-on-chip topologies: construction and the metrics questions use.

Builds ring, 2D mesh, 2D torus, hypercube and crossbar graphs and
computes diameter, average hop count, bisection width and link/router
counts.  The graphs are small (the exams use at most 16 routers), so a
:class:`Graph` keeps one neighbour bitmask per node: breadth-first
search and the exhaustive bisection search are ``&``/``|`` and
popcounts over those masks, with no graph library.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Hashable, Iterable, List, Tuple

import numpy as np

#: A router label: an int, or a tuple of grid coordinates or bits.
Node = Hashable


def _popcounts(values: np.ndarray, width: int) -> np.ndarray:
    """Set bits of each element (all non-negative, below ``2**width``)."""
    counts = np.zeros_like(values)
    for bit in range(width):
        counts += (values >> bit) & 1
    return counts


class Graph:
    """An undirected graph with a neighbour bitmask per node.

    Nodes, and each node's neighbours, keep insertion order, so
    :meth:`nodes`, :meth:`edges` and :meth:`degree` list labels in the
    order the constructors below add them: networkx's order for the same
    generators, which the rendered NoC figures (and so the dataset
    digests) depend on.  Node ``i`` in insertion order is bit ``i`` of
    every mask in :attr:`masks`.
    """

    def __init__(self, nodes: Iterable[Node],
                 edges: Iterable[Tuple[Node, Node]] = ()) -> None:
        self._nodes: List[Node] = list(nodes)
        index = {node: i for i, node in enumerate(self._nodes)}
        self._neighbours: List[List[int]] = [[] for _ in self._nodes]
        #: bit ``j`` of ``masks[i]`` is set when nodes ``i`` and ``j``
        #: share a link
        self.masks: List[int] = [0] * len(self._nodes)
        for u, v in edges:
            i, j = index[u], index[v]
            if self.masks[i] >> j & 1:
                continue
            self._neighbours[i].append(j)
            self._neighbours[j].append(i)
            self.masks[i] |= 1 << j
            self.masks[j] |= 1 << i

    def nodes(self) -> List[Node]:
        """Node labels in insertion order."""
        return list(self._nodes)

    def edges(self) -> List[Tuple[Node, Node]]:
        """Each link once, as networkx lists it: by its earlier node, in
        that node's neighbour order."""
        return [(self._nodes[i], self._nodes[j])
                for i, row in enumerate(self._neighbours)
                for j in row if j > i]

    def degree(self) -> List[Tuple[Node, int]]:
        """``(node, link count)`` pairs in node order."""
        return [(node, len(row))
                for node, row in zip(self._nodes, self._neighbours)]

    def number_of_nodes(self) -> int:
        """Router count."""
        return len(self._nodes)

    def number_of_edges(self) -> int:
        """Link count."""
        return sum(len(row) for row in self._neighbours) // 2


def ring(n: int) -> Graph:
    """A bidirectional ring of ``n`` routers."""
    if n < 3:
        raise ValueError("ring needs >= 3 nodes")
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def _grid(rows: int, cols: int, wrap: bool) -> Graph:
    """``(row, col)`` routers; vertical links, then horizontal ones, then
    (``wrap``) the column and row wraparounds."""
    edges = [((r, c), (r - 1, c)) for r in range(1, rows)
             for c in range(cols)]
    edges += [((r, c), (r, c - 1)) for r in range(rows)
              for c in range(1, cols)]
    if wrap:
        edges += [((0, c), (rows - 1, c)) for c in range(cols)]
        edges += [((r, 0), (r, cols - 1)) for r in range(rows)]
    return Graph(itertools.product(range(rows), range(cols)), edges)


def mesh2d(rows: int, cols: int) -> Graph:
    """A rows x cols 2-D mesh."""
    if rows < 1 or cols < 1:
        raise ValueError("mesh dimensions must be positive")
    return _grid(rows, cols, wrap=False)


def torus2d(rows: int, cols: int) -> Graph:
    """A rows x cols 2-D torus (mesh with wraparound links)."""
    if rows < 3 or cols < 3:
        raise ValueError("torus dimensions must be >= 3")
    return _grid(rows, cols, wrap=True)


def hypercube(dimension: int) -> Graph:
    """A ``dimension``-dimensional binary hypercube.

    Routers are bit tuples (plain ``0`` and ``1`` in one dimension);
    each links to its later neighbours in the order of the bit it flips,
    first tuple position first.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    labels: List[Node] = (
        list(itertools.product((0, 1), repeat=dimension)) if dimension > 1
        else [0, 1])
    bits = [1 << (dimension - 1 - k) for k in range(dimension)]
    return Graph(labels, [(labels[i], labels[i | bit])
                          for i in range(len(labels)) for bit in bits
                          if not i & bit])


def crossbar(n: int) -> Graph:
    """Fully connected (every pair one hop)."""
    if n < 2:
        raise ValueError("crossbar needs >= 2 nodes")
    return Graph(range(n), itertools.combinations(range(n), 2))


def _hops_from(graph: Graph, source: int) -> Tuple[int, int]:
    """Breadth-first search over the masks from node index ``source``:
    its eccentricity and the sum of its hop counts to every node."""
    masks = graph.masks
    seen = frontier = 1 << source
    depth = total = 0
    while True:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        if not frontier:
            break
        seen |= frontier
        depth += 1
        # bin().count(): int.bit_count() needs Python 3.10
        total += depth * bin(frontier).count("1")
    if seen != (1 << graph.number_of_nodes()) - 1:
        raise ValueError("graph is not connected")
    return depth, total


def diameter(graph: Graph) -> int:
    """Longest shortest-path hop count."""
    return max(_hops_from(graph, i)[0]
               for i in range(graph.number_of_nodes()))


def average_hops(graph: Graph) -> float:
    """Mean shortest-path length over all router pairs."""
    n = graph.number_of_nodes()
    if n == 1:
        return 0.0
    return sum(_hops_from(graph, i)[1] for i in range(n)) / (n * (n - 1))


def link_count(graph: Graph) -> int:
    """Number of bidirectional links."""
    return graph.number_of_edges()


def bisection_width(graph: Graph) -> int:
    """Minimum links cut when splitting nodes into two equal halves.

    Exact (exhaustive) for small graphs; exams only use small instances.
    Node 0's side is fixed, which halves the search.  A half's cut is
    the sum, over its members, of the popcount of their neighbours
    outside it; every candidate half is scored at once, as an array of
    masks.
    """
    n = graph.number_of_nodes()
    if n % 2:
        raise ValueError("bisection needs an even node count")
    if n > 16:
        return _bisection_known(graph)
    masks = np.array(graph.masks, dtype=np.int64)
    # node 0 plus every choice of n/2 - 1 of the nodes 1..n-1
    others = np.arange(1 << (n - 1), dtype=np.int64)
    halves = (others[_popcounts(others, n - 1) == n // 2 - 1] << 1) | 1
    outside = ~halves
    cuts = np.zeros_like(halves)
    for i in range(n):
        inside = (halves >> i) & 1
        cuts += inside * _popcounts(masks[i] & outside, n)
    return int(cuts.min())


def _bisection_known(graph: Graph) -> int:
    """Closed forms for the standard topologies at larger sizes."""
    n = graph.number_of_nodes()
    degrees = {d for _, d in graph.degree()}
    edges = graph.number_of_edges()
    if edges == n * (n - 1) // 2:  # crossbar
        return (n // 2) ** 2
    if degrees == {2}:  # ring
        return 2
    # hypercube: n = 2^d, regular of degree d
    d = n.bit_length() - 1
    if 2 ** d == n and degrees == {d}:
        return n // 2
    raise ValueError("unknown large topology; use <= 16 nodes")


def mesh_diameter(rows: int, cols: int) -> int:
    """Closed form: (rows - 1) + (cols - 1)."""
    return (rows - 1) + (cols - 1)


def torus_diameter(rows: int, cols: int) -> int:
    """Closed form: floor(rows/2) + floor(cols/2)."""
    return rows // 2 + cols // 2


def compare_topologies(n: int) -> Dict[str, Dict[str, float]]:
    """Metric table for the standard topologies at ``n`` nodes (n = k^2 =
    2^d for mesh/hypercube comparability)."""
    side = int(round(math.sqrt(n)))
    dim = n.bit_length() - 1
    table: Dict[str, Dict[str, float]] = {}
    entries = [("ring", ring(n)), ("crossbar", crossbar(n))]
    if side * side == n:
        entries.append(("mesh", mesh2d(side, side)))
        if side >= 3:
            entries.append(("torus", torus2d(side, side)))
    if 2 ** dim == n:
        entries.append(("hypercube", hypercube(dim)))
    for name, graph in entries:
        table[name] = {
            "diameter": float(diameter(graph)),
            "links": float(link_count(graph)),
            "avg_hops": round(average_hops(graph), 3),
        }
    return table
