import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coverpebbling as cp
from coverpebbling.graphs import UNREACHABLE
from coverpebbling.sampling import SeededStream


def test_build_triangle():
    g = cp.build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert all(g.degree(v) == 2 for v in range(3))


def test_build_dedups_reversed_pairs():
    g = cp.build_graph(2, [(0, 1), (1, 0)])
    assert g.edges == ((0, 1),)


def test_build_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError, match="outside"):
        cp.build_graph(3, [(0, 3)])


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        cp.build_graph(3, [(1, 1)])


def test_build_idempotent_under_permutation_and_duplication():
    rng = random.Random(1)
    base = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    expected = cp.build_graph(4, base).edges
    for _ in range(25):
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in base]
        edges += [rng.choice(base) for _ in range(rng.randint(0, 3))]
        rng.shuffle(edges)
        assert cp.build_graph(4, edges).edges == expected


def test_path_and_complete_distances():
    assert cp.path_graph(4).distances[0, 3] == 3
    d = cp.complete_graph(5).distances
    off_diagonal = d[~np.eye(5, dtype=bool)]
    assert (off_diagonal == 1).all()


def test_isolated_vertices_are_unreachable():
    g = cp.build_graph(2, [])
    assert g.distances[0, 1] == UNREACHABLE
    assert not g.is_connected()
    with pytest.raises(ValueError, match="vertices 0 and 1"):
        cp.cover_pebbling_number(g)
    assert g.components() == [[0], [1]]
    assert cp.build_graph(6, [(4, 1), (2, 5)]).components() == [[0], [1, 4], [2, 5], [3]]


def test_distances_axioms_random():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.5]
        d = cp.build_graph(n, edges).distances
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    if d[u, v] >= 0 and d[v, w] >= 0:
                        assert d[u, w] >= 0
                        assert d[u, w] <= d[u, v] + d[v, w]


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
    # scipy's import time would dominate start-up of every command
    src = str(Path(cp.__file__).resolve().parents[1])
    probe = "import sys, coverpebbling; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


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
