import random

import pytest

import coverpebbling as cp

FIGURE_SETS = [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7]]
NO_COVER_SETS = [[0, 1, 2, 3], [3, 4, 5, 6], [0, 5, 6, 7]]


def test_validate_instance():
    assert cp.validate_instance(cp.X4CInstance(8, FIGURE_SETS)) == []
    assert any("multiple of 4" in e for e in cp.validate_instance(cp.X4CInstance(6, [])))
    bad = cp.X4CInstance(8, [[0, 1, 2]])
    assert any("4 distinct" in e for e in cp.validate_instance(bad))
    dup = cp.X4CInstance(8, [[0, 0, 1, 2]])
    assert any("4 distinct" in e for e in cp.validate_instance(dup))
    out = cp.X4CInstance(8, [[0, 1, 2, 9], [0, 1, 2, 3]])
    assert any("outside" in e for e in cp.validate_instance(out))
    few = cp.X4CInstance(8, [[0, 1, 2, 3]])
    assert any("at least" in e for e in cp.validate_instance(few))


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
    for sets in (FIGURE_SETS, FIGURE_SETS + [[0, 1, 6, 7]]):
        x = cp.X4CInstance(8, sets)
        built = cp.build_reduction(x)
        cover = cp.exact_cover_bruteforce(x)
        cert = cp.cover_witness_certificate(x, cover)
        assert cp.verify_certificate(built.graph, built.config, cert)
        seq = cp.execute_certificate(built.graph, built.config, cert)
        final = cp.apply_moves(built.graph, built.config, seq)
        assert min(final.pebbles) >= 1


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
    thinned = [6 if name[0] == "B" and name[1:].isdigit() else built.config[v]
               for v, name in sorted(built.labels.items())]
    r = cp.solve(built.graph, cp.Configuration(thinned))
    assert (r.status, r.nodes_expanded) == (cp.UNSOLVABLE, 8803)
    # trying the children that cover the most empty vertices first finds the
    # figure cover fast; tried in generation order it takes about 2 million nodes
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
