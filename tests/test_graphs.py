import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import coverpebbling as cp
from coverpebbling import graphs
from coverpebbling.graphs import UNREACHABLE
from coverpebbling.sampling import SeededStream

from conftest import coverable_instance


def test_build_triangle():
    g = cp.Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert all(g.degree(v) == 2 for v in range(3))


def test_build_dedups_reversed_pairs():
    g = cp.Graph(2, [(0, 1), (1, 0)])
    assert g.edges == ((0, 1),)


def test_has_edge_answers_any_pair():
    g = cp.path_graph(3)
    assert g.has_edge(0, 1) and g.has_edge(1, 0) and g.has_edge(2, 1)
    # non-edges, loops, vertices outside 0..n-1 and non-integers are never edges
    for u, v in [(0, 2), (2, 0), (1, 1), (-1, 0), (2, -1), (3, 2), (1, 5), ("a", 1), (1, "a"),
                 (1.0, 0), (0, 1.0), ("1", 0), (0, "1"), (None, 1), (1, None)]:
        assert not g.has_edge(u, v)
    assert not cp.complete_graph(1).has_edge(0, 0)
    assert not cp.complete_graph(2).has_edge(1.0, 0)
    assert g.has_edge(np.int64(1), np.intp(0)) and g.has_edge(np.uint8(1), 2)


def test_build_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError, match="outside"):
        cp.Graph(3, [(0, 3)])


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        cp.Graph(3, [(1, 1)])


def test_build_idempotent_under_permutation_and_duplication():
    assert cp.build_graph is cp.Graph
    rng = random.Random(1)
    base = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    expected = cp.Graph(4, base)
    for _ in range(25):
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in base]
        edges += [rng.choice(base) for _ in range(rng.randint(0, 3))]
        rng.shuffle(edges)
        g = cp.Graph(4, edges)
        assert (g.edges, g.adjacency) == (expected.edges, expected.adjacency)
    # adjacency rows are filled from the sorted edge tuple, so each comes out sorted
    for _ in range(200):
        n = rng.randint(0, 40)
        base = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in base]
        edges += [e[::-1] for e in rng.sample(base, len(base) // 3)]
        rng.shuffle(edges)
        g = cp.Graph(n, edges)
        assert g.edges == tuple(base)
        assert all(a < b for row in g.adjacency for a, b in zip(row, row[1:]))
        assert [set(row) for row in g.adjacency] == [
            {w for e in base if v in e for w in e if w != v} for v in range(n)]


def test_path_and_complete_distances():
    assert cp.path_graph(4).distances[0, 3] == 3
    d = cp.complete_graph(5).distances
    off_diagonal = d[~np.eye(5, dtype=bool)]
    assert (off_diagonal == 1).all()


def test_isolated_vertices_are_unreachable():
    g = cp.Graph(2, [])
    assert g.distances[0, 1] == UNREACHABLE
    assert not g.is_connected()
    with pytest.raises(ValueError, match="vertices 0 and 1"):
        cp.cover_pebbling_number(g)
    assert g.components() == [[0], [1]]
    assert cp.Graph(6, [(4, 1), (2, 5)]).components() == [[0], [1, 4], [2, 5], [3]]


def test_distances_axioms_random():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.5]
        d = cp.Graph(n, edges).distances
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    if d[u, v] >= 0 and d[v, w] >= 0:
                        assert d[u, w] >= 0
                        assert d[u, w] <= d[u, v] + d[v, w]


def _assert_bfs_distances(g):
    """d(u,u) = 0, d(u,v) = 1 + min over neighbours w of d(w,v), and -1 exactly when
    no neighbour reaches v: this determines hop distances uniquely."""
    n, d = g.vertex_count, g.distances
    far = np.where(d == UNREACHABLE, n, d)  # longer than any path
    for u in range(n):
        nearest = far[list(g.adjacency[u])].min(axis=0) if g.adjacency[u] else np.full(n, n)
        expected = np.where(nearest == n, UNREACHABLE, nearest + 1)
        expected[u] = 0
        assert (d[u] == expected).all(), u


def _relabelled(n, edges, first):
    """The graph with vertex `first` renamed 0, so that the component BFS starts there."""
    perm = list(range(n))
    perm[0], perm[first] = first, 0
    return cp.Graph(n, [(perm[u], perm[v]) for u, v in edges])


@pytest.mark.parametrize("n", [31, 32, 63, 64, 65, 128, 129, 257])
def test_path_and_cycle_distances_closed_form(n):
    i, j = np.indices((n, n))
    path = cp.path_graph(n)
    assert (path.distances == abs(i - j)).all()
    cycle = cp.cycle_graph(n)
    assert (cycle.distances == np.minimum(abs(i - j), n - abs(i - j))).all()
    _assert_bfs_distances(path)
    _assert_bfs_distances(cycle)


@pytest.mark.parametrize("d", range(1, 10))
def test_cube_distances_are_hamming_distances(d):
    n = 1 << d
    xor = np.bitwise_xor.outer(np.arange(n), np.arange(n))
    popcount = sum((xor >> b) & 1 for b in range(d))
    assert (cp.cube_graph(d).distances == popcount).all()


def test_distances_are_int64_square_and_read_only():
    for g in (cp.path_graph(5), cp.cube_graph(7), cp.Graph(40, [(0, 1)])):
        n = g.vertex_count
        assert g.distances.dtype == np.int64 and g.distances.shape == (n, n)
        assert not g.distances.flags.writeable
        with pytest.raises(ValueError):
            g.distances[0, 0] = 1
        raw = graphs._bitset_bfs(n, g.adjacency)
        assert raw.dtype == np.int64 and raw.shape == (n, n)


def _kernels_used(monkeypatch, g):
    """The kernels _bfs_all_pairs runs for g, by name, with the vertex count of each run."""
    used = []
    for name in ("_bitset_bfs", "_list_bfs"):
        def spy(n, adjacency, fn=getattr(graphs, name), name=name):
            used.append((name, n))
            return fn(n, adjacency)
        monkeypatch.setattr(graphs, name, spy)
    depth = graphs._components(g.vertex_count, g.adjacency)[1]
    result = graphs._bfs_all_pairs(g.vertex_count, g.adjacency, depth)
    monkeypatch.undo()
    assert (result == g.distances).all()
    return used


def _triangle_ended_path(length):
    """A path of `length` edges whose two end edges each close a triangle, so no vertex
    is a leaf, with its middle vertex renamed 0: depth length // 2, diameter length."""
    edges = [(v, v + 1) for v in range(length)]
    edges += [(0, length + 1), (1, length + 1), (length, length + 2), (length - 1, length + 2)]
    return _relabelled(length + 3, edges, length // 2)


def test_kernel_choice_at_both_rule_boundaries(monkeypatch):
    # the rule reads the peeled core, so its bounds are pinned on graphs without leaves
    ecc = graphs.BITSET_MAX_ECCENTRICITY
    floor = graphs.BITSET_MIN_VERTICES
    cycle = lambda n, shift=0: [(v + shift, (v + 1) % n + shift) for v in range(n)]
    cases = [
        (cp.complete_graph(floor - 1), "_list_bfs"),
        (cp.complete_graph(floor), "_bitset_bfs"),
        (cp.cycle_graph(2 * ecc + 1), "_bitset_bfs"),  # every vertex has eccentricity ecc
        (cp.cycle_graph(2 * ecc + 2), "_list_bfs"),
        # its component BFS starts in the middle: distances up to 2 * ecc, so every plane is used
        (_triangle_ended_path(2 * ecc), "_bitset_bfs"),
        (_triangle_ended_path(2 * ecc + 2), "_list_bfs"),
        (cp.Graph(2 * ecc + 2, cycle(2 * ecc + 1, 1)), "_bitset_bfs"),  # beside a lone vertex
        (cp.Graph(2 * ecc + 3, cycle(2 * ecc + 2, 1)), "_list_bfs"),
        (cp.Graph(4 * 32, [(u + 32 * k, v + 32 * k)
                           for k in range(4) for u, v in cp.cube_graph(5).edges]),
         "_bitset_bfs"),
    ]
    for g, kernel in cases:
        assert _kernels_used(monkeypatch, g) == [(kernel, g.vertex_count)], g
        assert (graphs._bitset_bfs(g.vertex_count, g.adjacency) == g.distances).all()
        assert (graphs._list_bfs(g.vertex_count, g.adjacency) == g.distances).all()
        _assert_bfs_distances(g)
    assert _triangle_ended_path(2 * ecc).distances.max() == 2 * ecc


def test_kernel_runs_on_the_peeled_core(monkeypatch):
    ecc = graphs.BITSET_MAX_ECCENTRICITY
    path = lambda n, shift=0: [(v + shift, v + 1 + shift) for v in range(n - 1)]
    # a path peels to one vertex, so no BFS runs over more than that
    for g in (cp.path_graph(ecc + 2), cp.path_graph(3000),
              _relabelled(2 * ecc + 2, path(2 * ecc + 2), ecc)):
        assert [n for _, n in _kernels_used(monkeypatch, g)] == [1]
    # a cube with a pendant path longer than the rule's depth runs the bitset BFS on the cube
    q6 = cp.cube_graph(6).edges
    tail = [(5, 64)] + path(ecc + 50, 64)
    g = cp.Graph(64 + ecc + 50, q6 + tuple(tail))
    assert _kernels_used(monkeypatch, g) == [("_bitset_bfs", 64)]
    assert (g.distances == graphs._list_bfs(g.vertex_count, g.adjacency)).all()
    # below the vertex floor nothing is peeled: the list BFS runs on the whole graph
    small = cp.path_graph(graphs.BITSET_MIN_VERTICES - 1)
    assert _kernels_used(monkeypatch, small) == [("_list_bfs", small.vertex_count)]
    # a forest of trees keeps one vertex each: 40 trees make an edgeless 40-vertex core
    forest = cp.Graph(40 * 3, [(3 * k + i, 3 * k + 2) for k in range(40) for i in range(2)])
    assert _kernels_used(monkeypatch, forest) == [("_bitset_bfs", 40)]
    assert (forest.distances == graphs._list_bfs(120, forest.adjacency)).all()


def test_disconnected_distances():
    ecc = graphs.BITSET_MAX_ECCENTRICITY
    lone_and_path = cp.Graph(301, [(v, v + 1) for v in range(1, 300)])
    cubes = cp.Graph(3 * 64, [(u + 64 * k, v + 64 * k)
                              for k in range(3) for u, v in cp.cube_graph(6).edges])
    for g in (lone_and_path, cubes):
        assert not g.is_connected()
        _assert_bfs_distances(g)
    assert lone_and_path.components() == [[0], list(range(1, 301))]
    assert (lone_and_path.distances[0, 1:] == UNREACHABLE).all()
    assert lone_and_path.distances[1, 300] == 299 > ecc
    assert len(cubes.components()) == 3
    assert (cubes.distances[:64, 64:] == UNREACHABLE).all()
    returned = cubes.components()
    returned[0].append(64)
    returned.pop()
    assert cubes.components() == [list(range(64 * k, 64 * k + 64)) for k in range(3)]
    assert not cubes.is_connected()


def test_both_kernels_agree_on_random_graphs():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(20, 140)
        p = rng.uniform(0.5, 6.0) / n  # many disconnected, some long and thin
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = cp.Graph(n, edges)
        bitset = graphs._bitset_bfs(n, g.adjacency)
        assert (bitset == graphs._list_bfs(n, g.adjacency)).all()
        assert (bitset == g.distances).all()
        # each component read off the distance row of its smallest vertex
        from_rows, seen = [], set()
        for s in range(n):
            if s not in seen:
                from_rows.append([v for v in range(n) if bitset[s, v] != UNREACHABLE])
                seen.update(from_rows[-1])
        assert g.components() == from_rows
        assert g.is_connected() == (len(from_rows) == 1)


@pytest.mark.parametrize("cap", [1, 5, 64])
def test_bitset_kernel_gathers_in_blocks(monkeypatch, cap):
    # a cap of a few words splits every level into many blocks, some of them
    # a single closed neighbourhood larger than the cap
    monkeypatch.setattr(graphs, "_GATHER_WORDS", cap)
    rng = random.Random(29)
    dense = [cp.complete_graph(70), cp.complete_multipartite([40, 30, 3]), cp.cube_graph(6)]
    sparse = [cp.gnp_random_graph(n, rng.uniform(0.5, 6.0) / n, rng.getrandbits(63))
              for n in (40, 90, 150) for _ in range(5)]
    for g in dense + sparse:
        n = g.vertex_count
        assert (graphs._bitset_bfs(n, g.adjacency) == graphs._list_bfs(n, g.adjacency)).all()


def test_bitset_kernel_memory_stays_near_its_result():
    # a single gather of K_1000's closed neighbourhoods would take 128 MB
    n = 1000
    adjacency = [tuple(w for w in range(n) if w != v) for v in range(n)]
    tracemalloc.start()
    try:
        dist = graphs._bitset_bfs(n, adjacency)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    assert (dist == 1 - np.eye(n, dtype=np.int64)).all()


def _with_pendants(rng, n, edges, count):
    """Edges of the graph with `count` random trees and paths hung off random vertices."""
    edges = list(edges)
    for _ in range(count):
        root, size = rng.randrange(n), rng.randint(1, 40)
        if rng.random() < 0.5:  # a path
            edges += [(root if k == 0 else n + k - 1, n + k) for k in range(size)]
        else:  # a random recursive tree
            edges += [(root if k == 0 else n + rng.randrange(k), n + k) for k in range(size)]
        n += size
    return n, edges


def _shuffled(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return cp.Graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_peeled_distances_match_the_list_bfs():
    rng = random.Random(27)
    graphs_seen = []
    cores = [cp.cycle_graph(k) for k in (32, 77, 200)]
    cores += [cp.gnp_random_graph(k, rng.uniform(1.5, 5.0) / k, rng.getrandbits(63))
              for k in (32, 60, 120, 200) for _ in range(2)]
    cores += [cp.cube_graph(5), cp.cube_graph(6)]
    for core in cores:
        for count in (1, 3, 12):
            n, edges = _with_pendants(rng, core.vertex_count, core.edges, count)
            graphs_seen.append(_shuffled(rng, n, edges))
    for _ in range(8):  # forests of K_1, K_2, bare trees and cored components
        n, edges = 0, []
        for _ in range(rng.randint(3, 12)):
            kind = rng.randrange(4)
            if kind == 0:
                n += 1
            elif kind == 1:
                edges.append((n, n + 1))
                n += 2
            elif kind == 2:
                size = rng.randint(2, 40)
                edges += [(n + rng.randrange(k), n + k) for k in range(1, size)]
                n += size
            else:
                k = rng.randint(3, 30)
                end, extra = _with_pendants(rng, k, cp.cycle_graph(k).edges, rng.randint(0, 4))
                edges += [(u + n, v + n) for u, v in extra]
                n += end
        graphs_seen.append(_shuffled(rng, n, edges))
    graphs_seen += [cp.build_reduction(coverable_instance(rng, span)).graph
                    for span in range(1, 65)]
    assert sum(g.vertex_count >= graphs.BITSET_MIN_VERTICES for g in graphs_seen) > 100
    for g in graphs_seen:
        assert (g.distances == graphs._list_bfs(g.vertex_count, g.adjacency)).all(), g
    # a drain of span - 1 interior vertices and its terminal come off the gadget
    span64 = graphs_seen[-1]
    assert len(graphs._peel(span64.vertex_count, span64.adjacency)[0]) >= 64
    # a relabelled path: |i - j| between the positions along it
    n = 1000
    order = list(range(n))
    rng.shuffle(order)
    g = cp.Graph(n, zip(order, order[1:]))
    at = np.argsort(order)
    assert (g.distances == abs(at[:, None] - at[None, :])).all()
    assert cp.cover_pebbling_number(g).cover_number == 2**n - 1


def test_peeled_path_memory_stays_near_its_result():
    # one list BFS per source would hold 4 M Python ints; the peel writes rows into the result
    n = 2000
    order = list(range(n))
    random.Random(2000).shuffle(order)
    nbrs = [[] for _ in range(n)]
    for u, v in zip(order, order[1:]):
        nbrs[u].append(v)
        nbrs[v].append(u)
    adjacency = tuple(map(tuple, nbrs))
    depth = graphs._components(n, adjacency)[1]
    tracemalloc.start()
    try:
        dist = graphs._bfs_all_pairs(n, adjacency, depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * dist.nbytes
    at = np.argsort(order)
    assert (dist == abs(at[:, None] - at[None, :])).all()


def test_family_counts():
    q3 = cp.cube_graph(3)
    assert (q3.vertex_count, q3.edge_count) == (8, 12)
    k21 = cp.complete_multipartite([2, 1])
    assert (k21.vertex_count, k21.edge_count) == (3, 2)
    assert sorted(k21.degree(v) for v in range(3)) == [1, 1, 2]  # a copy of P_3
    c5 = cp.cycle_graph(5)
    assert (c5.vertex_count, c5.edge_count) == (5, 5)


@pytest.mark.parametrize("d", range(7))
def test_cube_edge_count_closed_form(d):
    expected = d * 2 ** (d - 1) if d else 0
    assert cp.cube_graph(d).edge_count == expected


@pytest.mark.parametrize("parts", [(3, 2, 2), (4, 1), (2, 2, 2, 2), (5, 3), (1, 1)])
def test_multipartite_edge_count_closed_form(parts):
    g = cp.complete_multipartite(parts)
    expected = sum(parts[i] * parts[j] for i in range(len(parts)) for j in range(i + 1, len(parts)))
    assert g.vertex_count == sum(parts)
    assert g.edge_count == expected


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        cp.cycle_graph(2)
    with pytest.raises(ValueError):
        cp.cube_graph(-1)
    with pytest.raises(ValueError):
        cp.complete_multipartite([1, 2])  # not descending
    with pytest.raises(ValueError, match="integers"):
        cp.complete_multipartite([2.5, 1])
    with pytest.raises(ValueError, match="integers"):
        cp.generate_family("kmulti", parts=[2.9, 1.2])
    with pytest.raises(ValueError):
        cp.complete_graph(0)
    with pytest.raises(ValueError):
        cp.generate_family("nosuch", n=3)
    with pytest.raises(ValueError, match="family qd requires parameter.* d"):
        cp.generate_family("qd")
    with pytest.raises(ValueError, match="family gnp requires parameter.* p, seed"):
        cp.generate_family("gnp", n=4)


def test_generate_family_dispatch():
    assert cp.generate_family("kn", n=4).edge_count == 6
    assert cp.generate_family("pn", n=4).edge_count == 3
    assert cp.generate_family("cn", n=4).edge_count == 4
    assert cp.generate_family("qd", d=2).edge_count == 4
    assert cp.generate_family("kmulti", parts=[2, 2]).edge_count == 4
    assert cp.generate_family("tree", n=6, seed=3).edge_count == 5
    assert cp.generate_family("gnp", n=6, p=1.0, seed=3).edge_count == 15


def test_random_tree_properties():
    for n in (1, 2, 3, 8, 20):
        g = cp.random_tree(n, seed=11)
        assert g.vertex_count == n
        assert g.edge_count == n - 1 if n > 1 else g.edge_count == 0
        assert g.is_connected()
    assert cp.random_tree(9, seed=5).edges == cp.random_tree(9, seed=5).edges
    assert cp.random_tree(9, seed=5).edges != cp.random_tree(9, seed=6).edges
    assert cp.random_tree(9, seed=-1).edges != cp.random_tree(9, seed=0).edges


def test_gnp_extremes_and_determinism():
    assert cp.gnp_random_graph(7, 0.0, seed=1).edge_count == 0
    assert cp.gnp_random_graph(7, 1.0, seed=1).edge_count == 21
    a = cp.gnp_random_graph(12, 0.4, seed=9).edges
    assert a == cp.gnp_random_graph(12, 0.4, seed=9).edges
    with pytest.raises(ValueError):
        cp.gnp_random_graph(5, 1.5, seed=1)


def test_graph_json_round_trip():
    g = cp.cube_graph(3)
    d = cp.graph_to_dict(g)
    assert set(d) == {"n", "edges"}
    back = cp.graph_from_dict(d)
    assert back.vertex_count == g.vertex_count and back.edges == g.edges
    with pytest.raises(ValueError):
        cp.graph_from_dict({"edges": []})


def test_configuration_basics_and_json():
    c = cp.Configuration([2, 0, 4])
    assert c.total == 6
    assert len(c) == 3 and c[2] == 4
    assert cp.configuration_from_dict(cp.configuration_to_dict(c)) == c
    with pytest.raises(ValueError):
        cp.Configuration([1, -1])
    with pytest.raises(ValueError):
        cp.configuration_from_dict({})


def test_check_pairing_mismatch():
    with pytest.raises(ValueError, match="entries"):
        cp.solve(cp.path_graph(3), cp.Configuration([1, 1]))


def test_import_does_not_load_scipy():
    # scipy's import time would dominate start-up of every command, and
    # numpy.random's (about 12 ms) belongs only to commands that draw; numpy
    # 1.x imports numpy.random itself, so only what the package adds counts
    src = str(Path(cp.__file__).resolve().parents[1])
    probe = ("import sys, numpy; before = set(sys.modules); import coverpebbling; "
             "print([m for m in ('scipy', 'numpy.random') "
             "if m in sys.modules and m not in before])")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# edges drawn from each seed's stream; a change here changes every generated graph
_PINNED_EDGES = {
    0: (((0, 4), (0, 5), (0, 6), (1, 3), (1, 7), (1, 8), (2, 3), (2, 5)),
        ((0, 1), (0, 2), (0, 3), (0, 6), (1, 3), (1, 4), (1, 6), (2, 3), (2, 6), (2, 7),
         (3, 6), (3, 7), (5, 6))),
    -1: (((0, 4), (1, 2), (2, 6), (3, 4), (3, 7), (4, 8), (5, 6), (6, 8)),
         ((0, 1), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 5),
          (2, 6), (2, 7), (3, 4), (3, 7), (4, 5), (5, 7), (6, 7))),
    2**63: (((0, 8), (1, 8), (2, 6), (3, 4), (3, 6), (4, 5), (6, 7), (7, 8)),
            ((0, 5), (0, 7), (1, 2), (1, 3), (1, 7), (2, 5), (2, 7), (3, 5), (3, 7), (5, 6))),
}


@pytest.mark.parametrize("seed", list(_PINNED_EDGES), ids=["0", "-1", "2^63"])
def test_random_graph_edges_are_pinned(seed):
    tree, gnp = _PINNED_EDGES[seed]
    assert cp.random_tree(9, seed).edges == tree
    assert cp.gnp_random_graph(8, 0.4, seed).edges == gnp


def test_random_graphs_key_their_stream_like_the_samplers(monkeypatch):
    keyed = []
    generator = SeededStream.generator

    def spy(stream):
        keyed.append((stream.seed, stream.stream_index))
        return generator(stream)

    monkeypatch.setattr(SeededStream, "generator", spy)
    cp.random_tree(9, 5)
    cp.gnp_random_graph(8, 0.4, -3)
    assert keyed == [(5, 0), (-3, 0)]
