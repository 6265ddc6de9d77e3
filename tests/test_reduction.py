import random
import re

import pytest

import coverpebbling as cp
from conftest import (
    FIGURE_SETS,
    NO_COVER_SETS,
    coverable_instance,
    thinned_gadget_configuration,
)


# each instance breaks one rule, except the last, which breaks two
@pytest.mark.parametrize("size, sets, violations", [
    (6, [[0, 1, 2, 3]], "ground set size 6 is not a positive multiple of 4"),
    (4, [[0, 1, 2]], "set #0 (0, 1, 2) does not have exactly 4 distinct elements"),
    (4, [[0, 0, 1, 2]], "set #0 (0, 0, 1, 2) does not have exactly 4 distinct elements"),
    (8, [[0, 1, 2, 9], [0, 1, 2, 3]], "set #0 element 9 outside the ground set"),
    (8, [[0, 1, 2, 3]], "need at least 2 sets, got 1"),
    (8, [[0, 1, 2]], "set #0 (0, 1, 2) does not have exactly 4 distinct elements; "
                     "need at least 2 sets, got 1"),
], ids=["size", "short-set", "repeated-element", "outside", "too-few-sets", "two-violations"])
def test_invalid_instances_are_refused_when_made(size, sets, violations):
    with pytest.raises(ValueError, match=f"^{re.escape('invalid instance: ' + violations)}$"):
        cp.X4CInstance(size, sets)


def test_build_reduction_figure_instance():
    built = cp.build_reduction(cp.X4CInstance(8, FIGURE_SETS))
    g, config, labels = built.graph, built.config, built.labels
    assert g.vertex_count == 19
    assert g.edge_count == 22
    assert config.total == 35
    v = next(i for i, name in labels.items() if name == "v")
    w = next(i for i, name in labels.items() if name == "w")
    assert config[v] == 2
    assert config[w] == 0
    assert (v, w) in g.edges or (w, v) in g.edges
    for i, name in labels.items():
        if name.startswith("B'") or name.startswith("B''"):
            assert config[i] == 1
        elif name.startswith("B"):
            assert config[i] == 9
        elif name.startswith("T"):
            assert config[i] == 0


def test_build_reduction_longer_drain():
    x = cp.X4CInstance(8, FIGURE_SETS + [[0, 1, 6, 7]])  # n=2, m=4
    built = cp.build_reduction(x)
    labels = built.labels
    v = next(i for i, name in labels.items() if name == "v")
    u1 = next(i for i, name in labels.items() if name == "u1")
    assert built.config[v] == 2**2 - 2 + 1 == 3
    assert built.config[u1] == 1
    assert built.graph.vertex_count == 3 * 2 + 4 * 4 + 1
    assert built.graph.edge_count == 8 * 4 - 2


def test_build_reduction_rejects_m_equal_n():
    square = cp.X4CInstance(8, [[0, 1, 2, 3], [4, 5, 6, 7]])
    with pytest.raises(ValueError, match="m > n"):
        cp.build_reduction(square)
    with pytest.raises(ValueError, match="m > n"):
        cp.cover_witness_certificate(square, [0, 1])
    with pytest.raises(ValueError, match="invalid"):
        cp.build_reduction(cp.X4CInstance(6, [[0, 1, 2, 3]]))


def _random_instance(rng):
    n = rng.randint(1, 3)
    m = rng.randint(n + 1, n + 3)
    universe = list(range(4 * n))
    sets = [tuple(sorted(rng.sample(universe, 4))) for _ in range(m)]
    return cp.X4CInstance(4 * n, sets)


def test_structural_counts_random_instances():
    rng = random.Random(8)
    for _ in range(25):
        x = _random_instance(rng)
        built = cp.build_reduction(x)
        n, m = x.n, x.m
        assert built.graph.vertex_count == 4 * n + 3 * m + (m - n + 1) == 3 * n + 4 * m + 1
        assert built.graph.edge_count == 8 * m - n
        assert built.config.total == 9 * m + 2 * m + (2 ** (m - n) - (m - n) + 1) + (m - n - 1)
        label_to_vertex = {name: i for i, name in built.labels.items()}
        for j in range(4 * n):
            expected_degree = sum(1 for s in x.sets if j in s)
            assert built.graph.degree(label_to_vertex[f"T{j}"]) == expected_degree
        for i in range(m):
            assert built.graph.degree(label_to_vertex[f"B{i}"]) == 5


def test_exact_cover_bruteforce():
    assert cp.exact_cover_bruteforce(cp.X4CInstance(8, FIGURE_SETS)) == [0, 2]
    assert cp.exact_cover_bruteforce(cp.X4CInstance(8, NO_COVER_SETS)) is None
    single = cp.X4CInstance(4, [[0, 1, 2, 3]])
    assert cp.exact_cover_bruteforce(single) == [0]


def test_witness_certificate_verifies_and_replays():
    # the span-16 collector halves 2^16 - 15 pebbles down the drain path:
    # 8 cover moves, 7 per relayed subset and 2^16 - 1 drain moves
    span16 = coverable_instance(random.Random(16), 16)
    for x in (cp.X4CInstance(8, FIGURE_SETS), cp.X4CInstance(8, FIGURE_SETS + [[0, 1, 6, 7]]),
              span16):
        built = cp.build_reduction(x)
        cover = cp.exact_cover_bruteforce(x)
        cert = cp.cover_witness_certificate(x, cover)
        assert cp.verify_certificate(built.graph, built.config, cert)
        seq = cp.execute_certificate(built.graph, built.config, cert)
        final = cp.apply_moves(built.graph, built.config, seq)
        assert min(final.pebbles) >= 1
    assert len(seq) == cert.total_moves == 8 + 7 * 16 + 2**16 - 1


def test_witness_too_large_to_list_is_rejected():
    # the span-64 collector holds 2^64 - 63 pebbles: the witness verifies,
    # but its move sequence is longer than any list
    x = coverable_instance(random.Random(64), 64)
    built = cp.build_reduction(x)
    cert = cp.cover_witness_certificate(x, cp.exact_cover_bruteforce(x))
    assert cp.verify_certificate(built.graph, built.config, cert)
    with pytest.raises(ValueError, match="too many to list"):
        cp.execute_certificate(built.graph, built.config, cert)


def test_equivalence_check_positive():
    report = cp.reduction_equivalence_check(cp.X4CInstance(8, FIGURE_SETS))
    assert report.cover_exists
    assert report.cover_witness == [0, 2]
    assert report.pebbling_status == cp.SOLVABLE
    assert report.agree is True


def test_equivalence_check_reports_budget_exhaustion():
    # a tiny node budget cannot decide the no-cover instance; that must be
    # reported as undecided, never as disagreement
    report = cp.reduction_equivalence_check(cp.X4CInstance(8, NO_COVER_SETS), budget=50)
    assert not report.cover_exists
    assert report.pebbling_status == cp.UNDECIDED
    assert report.agree is None


def test_search_order_invariants():
    # a refutation visits every reachable, unpruned state once, so its node
    # count does not depend on the order children are tried in
    built = cp.build_reduction(cp.X4CInstance(8, NO_COVER_SETS))
    r = cp.solve(built.graph, thinned_gadget_configuration(built))
    assert (r.status, r.nodes_expanded) == (cp.UNSOLVABLE, 85)
    # trying moves into empty vertices first, from the sources that can cover
    # the most of them, finds the figure cover in 21 nodes; tried in
    # generation order it takes 80,680
    built = cp.build_reduction(cp.X4CInstance(8, FIGURE_SETS))
    r = cp.solve(built.graph, built.config, budget=1000)
    assert r.status == cp.SOLVABLE
    assert cp.verify_certificate(built.graph, built.config, r.certificate)


def test_instance_json_round_trip():
    x = cp.X4CInstance(8, FIGURE_SETS)
    d = cp.instance_to_dict(x)
    assert d["ground_set_size"] == 8
    assert cp.instance_from_dict(d) == x
    with pytest.raises(ValueError):
        cp.instance_from_dict({"sets": []})
