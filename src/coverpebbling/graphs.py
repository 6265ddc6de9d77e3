"""Undirected graphs, pebble configurations, and named graph families.

Vertices are dense 0-indexed integers.  Graphs are simple (no loops, no
parallel edges) and immutable once built.  All-pairs hop distances are
computed eagerly at construction, because every downstream computation
(stacking weights, solver pruning) reads them repeatedly: `Graph.distances`
is a read-only (n, n) int64 array whose entry [u, v] is the hop distance
between u and v, or UNREACHABLE (-1) when no path joins them.

Two kernels give the same matrix: a bit-parallel BFS over all sources at
once for graphs of at least 32 vertices and short eccentricities, and one
list BFS per source otherwise (see `_bfs_all_pairs`).  A graph of at least
32 vertices first sheds its pendant trees: leaves are stripped until none
is left, the kernel runs on the remaining core, and each stripped vertex
comes back as its parent's row plus one.  That is exact, because a leaf
lies on no shortest path between other vertices, so long paths and
pendant drains cost one row operation per vertex, not one BFS level per
hop.  The components, and with them connectivity, come from one BFS per
component at construction (see `_components`), not from the matrix.
"""

from __future__ import annotations

import heapq
import numbers
import operator
from itertools import chain, combinations

import numpy as np

UNREACHABLE = -1


def integer_argument(name: str, value, least: int | None = None) -> int:
    """`value` as a Python int; a ValueError naming the argument when it is not
    an integer (1.0 included) or lies below `least`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {type(value).__name__}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


class Graph:
    """Immutable simple graph: vertex_count, sorted edge tuple, adjacency, distances.

    Self-loops and out-of-range endpoints are rejected; duplicate edges and
    reversed duplicates collapse to one.  Adjacency rows come out sorted.
    """

    def __init__(self, vertex_count: int, edges):
        self.vertex_count = vertex_count = integer_argument("vertex_count", vertex_count, 0)
        try:
            pairs = [(operator.index(u), operator.index(v)) for u, v in edges]
        except TypeError as exc:
            raise ValueError(f"graph edges must be integer pairs: {exc}") from exc
        canonical = set()
        for u, v in pairs:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(
                    f"edge ({u},{v}) has an endpoint outside 0..{vertex_count - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            canonical.add((u, v) if u < v else (v, u))
        self._edge_set = canonical
        self.edges = tuple(sorted(canonical))
        nbrs = [[] for _ in range(vertex_count)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.adjacency = tuple(map(tuple, nbrs))
        self._components, depth = _components(vertex_count, self.adjacency)
        self.distances = _bfs_all_pairs(vertex_count, self.adjacency, depth)
        self.distances.flags.writeable = False

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u, v) -> bool:
        """Whether u and v are joined by an edge; any other pair, junk included, is not."""
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:  # 1.0 equals 1 but is not a vertex
            return False
        s = self._edge_set
        return (u, v) in s or (v, u) in s

    def degree(self, v: int) -> int:
        v = integer_argument("vertex", v)
        if not 0 <= v < self.vertex_count:
            raise ValueError(f"vertex {v} is not in 0..{self.vertex_count - 1}")
        return len(self.adjacency[v])

    def is_connected(self) -> bool:
        return len(self._components) <= 1

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by smallest member."""
        return [list(comp) for comp in self._components]

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


# When `_bfs_all_pairs` picks the bit-parallel kernel; both bounds are crossovers
# measured against the list BFS on paths, cycles, trees, G(n, p) and K_n.
BITSET_MIN_VERTICES = 32
BITSET_MAX_ECCENTRICITY = 256
# Most words `_bitset_bfs` gathers at once (16 MB); a vertex block whose
# closed neighbourhoods hold more is split, so dense graphs stay in memory.
_GATHER_WORDS = 1 << 21


def _bfs_all_pairs(n: int, adjacency, depth: int) -> np.ndarray:
    """(n, n) int64 hop distances, UNREACHABLE (-1) across components.

    Two kernels give the same matrix at different costs.  `_list_bfs` runs
    one BFS per source over Python lists, O(n (n + m)).  `_bitset_bfs` runs
    one BFS level for every source at once, O(diam (n + m) n / 64) word
    operations plus a fixed cost of a few numpy calls per level, so it loses
    on small graphs and on long diameters.  It runs only when n is at least
    BITSET_MIN_VERTICES and `depth`, the largest eccentricity of a
    component's smallest vertex (from `_components`), is at most
    BITSET_MAX_ECCENTRICITY, which bounds the diameter by twice that.  Below
    32 vertices the list BFS is faster on paths, cycles and trees; on paths
    the kernel stays faster up to a diameter of about 800.

    A graph of at least BITSET_MIN_VERTICES vertices is first peeled: leaves
    are stripped until none is left (`_peel`), a tree component keeping one
    vertex, and the rule above picks the kernel for the core by the core's
    own size and depth.  The peeled vertices then come back in reverse
    order, each as `row(parent) + 1` written into its row and column.  This
    is exact: a vertex that is a leaf when it comes back lies on no shortest
    path between the vertices already placed, and every path out of it runs
    through its parent.  So a path costs one row operation per vertex and
    no BFS level at all.  Smaller graphs are not peeled: they keep the list
    BFS on the whole graph.
    """
    if n >= BITSET_MIN_VERTICES:
        peeled, parent = _peel(n, adjacency)
        if peeled:
            return _readd(n, adjacency, peeled, parent)
    return _core_distances(n, adjacency, depth)


def _core_distances(n: int, adjacency, depth: int) -> np.ndarray:
    """The kernel that `_bfs_all_pairs`' rule picks for a graph of n vertices and this depth."""
    if n >= BITSET_MIN_VERTICES and depth <= BITSET_MAX_ECCENTRICITY:
        return _bitset_bfs(n, adjacency)
    return _list_bfs(n, adjacency)


def _peel(n: int, adjacency) -> tuple[list[int], list[int]]:
    """Strip degree-1 vertices until none is left.

    Returns the stripped vertices in the order they went and each one's
    neighbour at that moment (its parent; UNREACHABLE for a kept vertex).
    Of a K_2 component, one end is kept.
    """
    degree = list(map(len, adjacency))
    parent = [UNREACHABLE] * n
    peeled = []
    leaves = [v for v in range(n) if degree[v] == 1]
    while leaves:
        v = leaves.pop()
        if degree[v] != 1:  # its last neighbour went first: v is all that is left
            continue
        degree[v] = 0
        w = next(w for w in adjacency[v] if degree[w])
        parent[v] = w
        peeled.append(v)
        degree[w] -= 1
        if degree[w] == 1:
            leaves.append(w)
    return peeled, parent


def _readd(n: int, adjacency, peeled: list[int], parent: list[int]) -> np.ndarray:
    """Distances of a peeled graph: its core's kernel, then the peeled vertices in reverse."""
    core = [v for v in range(n) if parent[v] == UNREACHABLE]
    label = {v: i for i, v in enumerate(core)}
    core_adjacency = tuple(tuple(label[w] for w in adjacency[v] if w in label) for v in core)
    components, depth = _components(len(core), core_adjacency)
    # a core pair is written by the kernel and any other pair by the row and
    # column of whichever of its ends comes back last, so the junk that a
    # row copies from its parent towards vertices not yet back is overwritten
    dist = np.empty((n, n), dtype=np.int64)
    dist[np.ix_(core, core)] = _core_distances(len(core), core_adjacency, depth)
    for v in reversed(peeled):
        row = dist[v]
        np.add(dist[parent[v]], 1, out=row)
        if len(components) > 1:  # a pair across components must stay UNREACHABLE, not 0
            row[row == 0] = UNREACHABLE
        row[v] = 0
        dist[:, v] = row
    return dist


def _components(n: int, adjacency) -> tuple[list[tuple[int, ...]], int]:
    """Components as sorted tuples ordered by smallest member, and the largest depth
    that a BFS from the smallest vertex of each component reaches."""
    row = [UNREACHABLE] * n
    # each BFS marks its component in `row`, so the next unmarked s starts the next one
    found = [_bfs(adjacency, s, row) for s in range(n) if row[s] == UNREACHABLE]
    return [tuple(sorted(comp)) for comp, _ in found], max((d for _, d in found), default=0)


def _bfs(adjacency, s: int, row: list) -> tuple[list[int], int]:
    """BFS from s over the vertices whose `row` entry is UNREACHABLE.

    Writes each reached vertex's depth into `row` and returns the vertices
    reached, in order of depth with s first, and the last depth.
    """
    row[s] = 0
    reached = [s]
    for u in reached:  # grows as the BFS reaches new vertices, level by level
        depth = row[u] + 1
        for w in adjacency[u]:
            if row[w] == UNREACHABLE:
                row[w] = depth
                reached.append(w)
    return reached, row[reached[-1]]


def _bitset_bfs(n: int, adjacency) -> np.ndarray:
    """All sources' BFS levels at once, as word-wide ORs over bitsets.

    Row v of `reach` holds the sources within the current depth of v.  One
    level ORs each closed neighbourhood's rows together; the bits that are
    new at depth k are ORed into the binary digits ("planes") of k, and each
    plane is unpacked once at the end.  This is the bit-parallel BFS of
    Akiba, Iwata and Yoshida (SIGMOD 2013) run for every source.

    A level gathers the neighbourhoods' rows a block of consecutive
    vertices at a time, each block holding at most _GATHER_WORDS words
    unless a single closed neighbourhood holds more.
    """
    words = -(-n // 64)
    # closed neighbourhoods in CSR form, so reduceat meets no empty segment
    ends = np.cumsum(np.fromiter(map(len, adjacency), dtype=np.intp, count=n) + 1)
    cols = np.fromiter(chain.from_iterable((v, *a) for v, a in enumerate(adjacency)),
                       dtype=np.intp, count=int(ends[-1]))
    starts = np.concatenate(([0], ends[:-1]))
    rows_cap = max(1, _GATHER_WORDS // words)
    blocks = []  # (first vertex, end vertex, its columns, its segment starts)
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + rows_cap, side="right")))
        blocks.append((lo, hi, cols[starts[lo]:ends[hi - 1]], starts[lo:hi] - starts[lo]))
        lo = hi
    reach = np.zeros((n, words), dtype="<u8")
    v = np.arange(n)
    reach[v, v // 64] = np.uint64(1) << (v % 64).astype(np.uint64)
    gathered = np.empty((max(len(b[2]) for b in blocks), words), dtype="<u8")
    grown, new = np.empty_like(reach), np.empty_like(reach)
    planes = []
    depth = 0
    while True:
        for lo, hi, block_cols, block_starts in blocks:
            part = gathered[:len(block_cols)]
            np.take(reach, block_cols, axis=0, out=part)
            np.bitwise_or.reduceat(part, block_starts, axis=0, out=grown[lo:hi])
        np.bitwise_xor(grown, reach, out=new)
        if not new.any():
            break
        depth += 1
        reach, grown = grown, reach
        if depth.bit_length() > len(planes):
            planes.append(np.zeros_like(reach))
        for bit, plane in enumerate(planes):
            if depth >> bit & 1:
                plane |= new
    # the dispatch rule keeps depth <= 512, so the digits add up in uint16
    total = np.zeros((n, n), dtype=np.uint16)
    for bit, plane in enumerate(planes):
        digits = np.unpackbits(plane.view(np.uint8), axis=1, count=n, bitorder="little")
        total |= np.left_shift(digits, bit, dtype=np.uint16)
    dist = total.astype(np.int64)
    filled = np.full(words, ~np.uint64(0), dtype="<u8")
    filled[-1] >>= np.uint64(-n % 64)
    if (reach != filled).any():  # an unfilled row: some pair lies in different components
        reached = np.unpackbits(reach.view(np.uint8), axis=1, count=n, bitorder="little")
        dist[reached == 0] = UNREACHABLE
    return dist


def _list_bfs(n: int, adjacency) -> np.ndarray:
    """(n, n) int64 hop distances: one `_bfs` per source over lists."""
    rows = [[UNREACHABLE] * n for _ in range(n)]
    for s, row in enumerate(rows):
        _bfs(adjacency, s, row)
    return np.array(rows, dtype=np.int64).reshape(n, n)


build_graph = Graph  # an alias; the package itself calls Graph


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
    n = integer_argument("n", n, 1)
    return Graph(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    n = integer_argument("n", n, 1)
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    n = integer_argument("n", n, 3)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def cube_graph(d: int) -> Graph:
    """Binary d-cube: vertices are bit strings, edges join Hamming distance 1."""
    d = integer_argument("d", d, 0)
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
    n, seed = integer_argument("n", n, 1), integer_argument("seed", seed)
    if n == 1:
        return Graph(1, [])
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
    return Graph(n, edges)


def gnp_random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p)."""
    n, seed = integer_argument("n", n, 0), integer_argument("seed", seed)
    if not isinstance(p, numbers.Real):
        raise ValueError(f"p must be a real number, not {type(p).__name__}")
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
    return Graph(n, edges)


def configuration_to_dict(c: Configuration) -> dict:
    return {"pebbles": list(c.pebbles)}


def configuration_from_dict(d: dict) -> Configuration:
    try:
        pebbles = d["pebbles"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"configuration JSON needs a 'pebbles' list: {exc}") from exc
    return Configuration(pebbles)
