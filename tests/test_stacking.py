import random

import numpy as np
import pytest

import coverpebbling as cp
from conftest import descending_part_vectors, random_connected_graph


def test_stacking_weight_hand_values():
    p3 = cp.path_graph(3)
    assert cp.stacking_weight(p3, 1) == 1 + 2 + 2
    assert cp.stacking_weight(p3, 0) == 1 + 2 + 4
    assert cp.stacking_weight(cp.complete_graph(1), 0) == 1
    assert cp.stacking_weight(cp.path_graph(4), np.int64(3)) == 15


@pytest.mark.parametrize("v", [-1, 4, None, 1.0, "1"])
def test_stacking_weight_rejects_a_non_vertex(v):
    with pytest.raises(ValueError):
        cp.stacking_weight(cp.path_graph(4), v)


@pytest.mark.parametrize("n", range(1, 13))
def test_lambda_complete(n):
    assert cp.cover_pebbling_number(cp.complete_graph(n)).cover_number == 2 * n - 1


@pytest.mark.parametrize("n", [*range(1, 17), 63, 64, 65, 200])
def test_lambda_path(n):
    assert cp.cover_pebbling_number(cp.path_graph(n)).cover_number == 2**n - 1


@pytest.mark.parametrize("d", range(9))
def test_lambda_cube(d):
    assert cp.cover_pebbling_number(cp.cube_graph(d)).cover_number == 3**d


def test_lambda_multipartite_closed_form():
    checked = 0
    for parts in descending_part_vectors(10):
        if len(parts) == 1 and parts[0] > 1:
            continue  # a single part of size > 1 has no edges at all
        g = cp.complete_multipartite(parts)
        expected = 4 * parts[0] + 2 * sum(parts[1:]) - 3
        assert cp.cover_pebbling_number(g).cover_number == expected, parts
        checked += 1
    assert checked > 100


def test_lambda_lower_bound_random():
    rng = random.Random(3)
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=7)
        n = g.vertex_count
        assert cp.cover_pebbling_number(g).cover_number >= 2 * n - 1


def test_result_consistency_and_tie_break():
    r = cp.cover_pebbling_number(cp.path_graph(4))
    assert r.cover_number == max(r.per_vertex_weights)
    assert r.per_vertex_weights == (15, 9, 9, 15)
    assert r.argmax_vertex == 0  # both endpoints attain the max
    assert cp.cover_pebbling_number(cp.cycle_graph(5)).argmax_vertex == 0


def test_lambda_invariant_under_relabeling():
    rng = random.Random(17)
    for _ in range(25):
        g = random_connected_graph(rng, max_vertices=7)
        n = g.vertex_count
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = cp.build_graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        assert (cp.cover_pebbling_number(relabeled).cover_number
                == cp.cover_pebbling_number(g).cover_number)


def test_disconnected_rejected_with_pair():
    g = cp.build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="no path between"):
        cp.cover_pebbling_number(g)
    with pytest.raises(ValueError):
        cp.stacking_weight(g, 0)
    with pytest.raises(ValueError):
        cp.cover_pebbling_number(cp.build_graph(0, []))


@pytest.mark.parametrize(
    "make",
    [
        lambda: cp.path_graph(4),
        lambda: cp.path_graph(5),
        lambda: cp.cycle_graph(5),
        lambda: cp.cycle_graph(6),
        lambda: cp.complete_graph(4),
        lambda: cp.complete_multipartite([4, 1]),
        lambda: cp.complete_multipartite([2, 2, 1]),
        lambda: cp.cube_graph(2),
    ],
)
def test_stacked_pile_is_the_worst_case(make):
    # a pile of exactly lambda pebbles on the argmax vertex solves; one
    # fewer does not
    g = make()
    r = cp.cover_pebbling_number(g)
    stack = [0] * g.vertex_count

    stack[r.argmax_vertex] = r.cover_number
    solved = cp.solve(g, cp.Configuration(stack))
    assert solved.solvable
    assert cp.verify_certificate(g, cp.Configuration(stack), solved.certificate)
    seq = cp.execute_certificate(g, cp.Configuration(stack), solved.certificate)
    assert min(cp.apply_moves(g, cp.Configuration(stack), seq).pebbles) >= 1

    stack[r.argmax_vertex] = r.cover_number - 1
    assert not cp.solve(g, cp.Configuration(stack)).solvable
