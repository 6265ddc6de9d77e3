import random
from collections import Counter

import numpy as np
import pytest

import coverpebbling as cp
from coverpebbling.stacking import power_sums
from conftest import compositions, descending_part_vectors, random_connected_graph


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


@pytest.mark.parametrize("n", [*range(1, 17), 56, 57, 63, 64, 65, 110, 111, 127, 128, 200,
                               255, 256, 599, 600])
def test_lambda_path(n):
    assert cp.cover_pebbling_number(cp.path_graph(n)).cover_number == 2**n - 1


@pytest.mark.parametrize("d", range(11))
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


def _kernel_cases():
    """Graphs on both sides of every branch and run boundary of power_sums."""
    yield cp.complete_graph(1)
    # one run holds bits = 62 - n.bit_length() distances: 56 for n < 64, so
    # P_56 (diameter 55) is one run and P_57 is two
    yield cp.path_graph(56)
    yield cp.path_graph(57)
    # paths whose width (diameter + 1) is exactly k runs, or k runs and one
    for n in range(57, 600):
        if n % (62 - n.bit_length()) in (0, 1):
            yield cp.path_graph(n)
    for n in (63, 64, 127, 128, 255, 256):  # steps of n.bit_length()
        yield cp.path_graph(n)
        yield cp.cycle_graph(n)
        yield cp.random_tree(n, n)
    for n in (3, 4, 5, 112, 113, 114, 115):
        yield cp.cycle_graph(n)
    # brooms: from vertex 0, about half of the 127 vertices sit at one distance,
    # swept across the top of the first run (bits = 55), the largest sums a
    # run can hold
    for d in range(48, 66):
        yield cp.Graph(127, [(v, v + 1) for v in range(d)]
                       + [(d, leaf) for leaf in range(d + 1, 127)])
    for seed in range(20):
        yield cp.random_tree(2 + 23 * seed, seed)
    rng = random.Random(5)
    for _ in range(40):
        yield random_connected_graph(rng, max_vertices=90)


def test_weights_match_the_per_vertex_sum():
    checked = 0
    for g in _kernel_cases():
        weights = cp.cover_pebbling_number(g).per_vertex_weights
        assert weights == tuple(cp.stacking_weight(g, v) for v in range(g.vertex_count))
        assert all(type(w) is int for w in weights)
        checked += 1
    assert checked > 100


def test_power_sums_of_potentials_match_the_per_row_sum():
    # the solver's screen sums the potentials 2^(diam - d(v, e)) with the same
    # kernel; there most terms sit near the top exponent, not near 0
    checked = 0
    for g in _kernel_cases():
        dist = g.distances
        diam = int(dist.max())
        sums = power_sums(diam - dist)
        assert sums == [sum(k << diam - d for d, k in Counter(row).items())
                        for row in dist.tolist()]
        assert all(type(s) is int for s in sums)
        checked += 1
    assert checked > 100


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
        relabeled = cp.Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        assert (cp.cover_pebbling_number(relabeled).cover_number
                == cp.cover_pebbling_number(g).cover_number)


def test_disconnected_rejected_with_pair():
    g = cp.Graph(4, [(0, 1), (2, 3)])
    message = "^graph is disconnected: no path between vertices 0 and 2$"
    with pytest.raises(ValueError, match=message):
        cp.cover_pebbling_number(g)
    with pytest.raises(ValueError, match=message):
        cp.stacking_weights(g)
    with pytest.raises(ValueError, match=message):
        cp.stacking_weight(g, 0)
    with pytest.raises(ValueError):
        cp.cover_pebbling_number(cp.Graph(0, []))


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


def _connected_labelled_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        g = cp.Graph(n, [e for k, e in enumerate(pairs) if mask >> k & 1])
        if g.is_connected():
            yield g


def test_cover_number_equals_lambda_from_the_definition_on_small_graphs():
    # gamma(G) = lambda(G) on every connected labelled graph of 1-4 vertices:
    # every configuration of lambda pebbles is solvable, with a certificate,
    # and the pile of lambda - 1 on the argmax vertex is not
    graphs = 0
    configurations = 0
    for n in range(1, 5):
        found = list(_connected_labelled_graphs(n))
        assert len(found) == (1, 1, 4, 38)[n - 1]
        for g in found:
            r = cp.cover_pebbling_number(g)
            for pebbles in compositions(r.cover_number, n):
                c = cp.Configuration(pebbles)
                solved = cp.solve(g, c)
                assert solved.status == cp.SOLVABLE, (g.edges, pebbles)
                assert cp.verify_certificate(g, c, solved.certificate), (g.edges, pebbles)
                configurations += 1
            stack = [0] * n
            stack[r.argmax_vertex] = r.cover_number - 1
            c = cp.Configuration(stack)
            assert cp.solve(g, c).status == cp.UNSOLVABLE, (g.edges, stack)
            assert not cp.solve_bruteforce(g, c), (g.edges, stack)
            graphs += 1
    assert graphs == 44 and configurations > 10_000
