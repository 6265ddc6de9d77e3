"""Undirected graphs, pebble configurations, and named graph families.

Vertices are dense 0-indexed integers.  Graphs are simple (no loops, no
parallel edges) and immutable once built.  All-pairs hop distances are
computed eagerly at construction, because every downstream computation
(stacking weights, solver pruning) reads them repeatedly: `Graph.distances`
is a read-only (n, n) int64 array whose entry [u, v] is the hop distance
between u and v, or UNREACHABLE (-1) when no path joins them.
"""

from __future__ import annotations

import heapq
import operator
from itertools import combinations

import numpy as np

UNREACHABLE = -1


class Graph:
    """Immutable simple graph: vertex_count, sorted edge tuple, adjacency, distances."""

    def __init__(self, vertex_count: int, edges):
        try:
            vertex_count = operator.index(vertex_count)
            pairs = [(operator.index(u), operator.index(v)) for u, v in edges]
        except TypeError as exc:
            raise ValueError(
                f"a graph needs an integer vertex count and integer edge pairs: {exc}") from exc
        if vertex_count < 0:
            raise ValueError(f"vertex count must be non-negative, got {vertex_count}")
        self.vertex_count = vertex_count
        canonical = set()
        for u, v in pairs:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(
                    f"edge ({u},{v}) has an endpoint outside 0..{vertex_count - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            canonical.add((u, v) if u < v else (v, u))
        self.edges = tuple(sorted(canonical))
        nbrs = [[] for _ in range(vertex_count)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.adjacency = tuple(tuple(sorted(a)) for a in nbrs)
        self.distances = _bfs_all_pairs(vertex_count, self.adjacency)
        self.distances.flags.writeable = False

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_connected(self) -> bool:
        return self.vertex_count <= 1 or UNREACHABLE not in self.distances[0].tolist()

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by smallest member.

        Each component is read off the distance row of its smallest vertex.
        """
        seen = set()
        comps = []
        for s in range(self.vertex_count):
            if s not in seen:
                row = self.distances[s].tolist()
                comp = [v for v, d in enumerate(row) if d != UNREACHABLE]
                seen.update(comp)
                comps.append(comp)
        return comps

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def _bfs_all_pairs(n: int, adjacency) -> np.ndarray:
    """(n, n) int64 hop distances: one level-by-level BFS per source over lists."""
    rows = []
    for s in range(n):
        row = [UNREACHABLE] * n
        row[s] = 0
        frontier = [s]
        depth = 0
        while frontier:
            depth += 1
            reached = []
            for u in frontier:
                for w in adjacency[u]:
                    if row[w] == UNREACHABLE:
                        row[w] = depth
                        reached.append(w)
            frontier = reached
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(n, n)


def build_graph(vertex_count: int, edge_list) -> Graph:
    """Validate and deduplicate an edge list into a Graph.

    Rejects self-loops and out-of-range endpoints; duplicate edges and
    reversed duplicates collapse to a single undirected edge.
    """
    return Graph(vertex_count, edge_list)


class Configuration:
    """Per-vertex pebble counts with the total cached."""

    __slots__ = ("pebbles", "total")

    def __init__(self, pebbles):
        try:
            counts = tuple(map(operator.index, pebbles))
        except TypeError as exc:
            raise ValueError(f"pebble counts must be integers: {exc}") from exc
        for i, p in enumerate(counts):
            if p < 0:
                raise ValueError(f"negative pebble count {p} at vertex {i}")
        self.pebbles = counts
        self.total = sum(counts)

    def __len__(self):
        return len(self.pebbles)

    def __getitem__(self, i):
        return self.pebbles[i]

    def __iter__(self):
        return iter(self.pebbles)

    def __eq__(self, other):
        return isinstance(other, Configuration) and self.pebbles == other.pebbles

    def __hash__(self):
        return hash(self.pebbles)

    def __repr__(self):
        return f"Configuration{self.pebbles}"


def check_pairing(g: Graph, c: Configuration) -> None:
    """Raise unless the configuration length matches the graph."""
    if len(c) != g.vertex_count:
        raise ValueError(
            f"configuration has {len(c)} entries for a graph on {g.vertex_count} vertices")


# ---------------------------------------------------------------------------
# named families


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("K_n requires n >= 1")
    return Graph(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("P_n requires n >= 1")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("C_n requires n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def cube_graph(d: int) -> Graph:
    """Binary d-cube: vertices are bit strings, edges join Hamming distance 1."""
    if d < 0:
        raise ValueError("Q^d requires d >= 0")
    n = 1 << d
    edges = []
    for v in range(n):
        for bit in range(d):
            w = v ^ (1 << bit)
            if v < w:
                edges.append((v, w))
    return Graph(n, edges)


def complete_multipartite(parts) -> Graph:
    """K_{r1,...,rm} with parts listed in descending order."""
    try:
        parts = [operator.index(r) for r in parts]
    except TypeError as exc:
        raise ValueError(f"multipartite parts must be integers: {exc}") from exc
    if not parts or any(r < 1 for r in parts):
        raise ValueError("multipartite parts must be positive")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"parts must be sorted descending, got {parts}")
    starts = [0]
    for r in parts:
        starts.append(starts[-1] + r)
    edges = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for u in range(starts[i], starts[i + 1]):
                for v in range(starts[j], starts[j + 1]):
                    edges.append((u, v))
    return Graph(starts[-1], edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n vertices via a Prufer sequence."""
    if n < 1:
        raise ValueError("random_tree requires n >= 1")
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    from .sampling import SeededStream  # here, because sampling imports graphs
    rng = SeededStream(seed, 0).generator()
    prufer = rng.integers(0, n, size=n - 2).tolist()
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return build_graph(n, edges)


def gnp_random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p)."""
    if n < 0:
        raise ValueError("gnp requires n >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    from .sampling import SeededStream  # here, because sampling imports graphs
    rng = SeededStream(seed, 0).generator()
    pairs = list(combinations(range(n), 2))
    keep = rng.random(len(pairs)) < p
    return Graph(n, (e for e, k in zip(pairs, keep) if k))


# family name -> (builder, its parameters in call order)
FAMILIES = {
    "kn": (complete_graph, ("n",)),
    "pn": (path_graph, ("n",)),
    "cn": (cycle_graph, ("n",)),
    "qd": (cube_graph, ("d",)),
    "kmulti": (complete_multipartite, ("parts",)),
    "tree": (random_tree, ("n", "seed")),
    "gnp": (gnp_random_graph, ("n", "p", "seed")),
}
FAMILY_NAMES = tuple(FAMILIES)


def generate_family(family: str, **params) -> Graph:
    """Build a named family from the keyword parameters FAMILIES lists for it."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILY_NAMES}")
    build, names = FAMILIES[family]
    missing = [name for name in names if name not in params]
    if missing:
        raise ValueError(f"family {family} requires parameter(s) {', '.join(missing)}")
    return build(*(params[name] for name in names))


# ---------------------------------------------------------------------------
# JSON dict forms (the CLI file formats)


def graph_to_dict(g: Graph) -> dict:
    return {"n": g.vertex_count, "edges": [[u, v] for u, v in g.edges]}


def graph_from_dict(d: dict) -> Graph:
    try:
        n, edges = d["n"], d["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"graph JSON needs integer 'n' and list 'edges': {exc}") from exc
    return build_graph(n, edges)


def configuration_to_dict(c: Configuration) -> dict:
    return {"pebbles": list(c.pebbles)}


def configuration_from_dict(d: dict) -> Configuration:
    try:
        pebbles = d["pebbles"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"configuration JSON needs a 'pebbles' list: {exc}") from exc
    return Configuration(pebbles)
