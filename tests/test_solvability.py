import random
import sys

import pytest

import coverpebbling as cp
from coverpebbling.solvability import (
    FP_ALL_COVERED,
    FP_COMPLETE_GRAPH,
    FP_SEARCH,
    FP_STACKING,
    FP_TRIVIAL_DEFICIT,
)
from conftest import compositions, random_configuration, random_connected_graph


def test_odd_stack_summary_examples():
    s = cp.odd_stack_summary(cp.Configuration([1, 1, 1]))
    assert (s.odd_count, s.even_count, s.total) == (3, 0, 3)
    s = cp.odd_stack_summary(cp.Configuration([2, 0, 4]))
    assert (s.odd_count, s.even_count, s.total) == (0, 3, 6)
    s = cp.odd_stack_summary(cp.Configuration([3, 0, 0]))
    assert (s.odd_count, s.even_count, s.total) == (1, 2, 3)
    assert s.histogram == {3: 1, 0: 2}


def test_odd_stack_summary_invariants_random():
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(1, 8)
        c = random_configuration(rng, n, max_total=20)
        s = cp.odd_stack_summary(c)
        assert s.odd_count + s.even_count == n
        assert sum(s.histogram.values()) == n
        assert sum(i * y for i, y in s.histogram.items()) == c.total
        assert s.odd_count % 2 == c.total % 2


def test_complete_graph_solvable_against_bruteforce_examples():
    k3 = cp.complete_graph(3)
    for pebbles, expected in [((5, 0, 0), True), ((1, 1, 1), True),
                              ((2, 2, 0), False), ((3, 0, 0), False)]:
        c = cp.Configuration(pebbles)
        assert cp.complete_graph_solvable(3, c) is expected
        assert cp.solve_bruteforce(k3, c) is expected


def test_complete_graph_criterion_matches_bruteforce_exhaustively_small():
    for n in (2, 3):
        g = cp.complete_graph(n)
        for t in range(0, 9):
            for pebbles in compositions(t, n):
                c = cp.Configuration(pebbles)
                assert cp.complete_graph_solvable(n, c) == cp.solve_bruteforce(g, c)


def test_bruteforce_hand_cases():
    k2 = cp.complete_graph(2)
    assert not cp.solve_bruteforce(k2, cp.Configuration([2, 0]))
    assert cp.solve_bruteforce(k2, cp.Configuration([3, 0]))
    k1 = cp.complete_graph(1)
    assert cp.solve_bruteforce(k1, cp.Configuration([1]))
    assert not cp.solve_bruteforce(k1, cp.Configuration([0]))


def test_verify_certificate_cases():
    k2 = cp.complete_graph(2)
    assert cp.verify_certificate(k2, cp.Configuration([3, 0]),
                                 cp.MoveCertificate({(0, 1): 1}))
    g = cp.cycle_graph(4)
    assert cp.verify_certificate(g, cp.Configuration([1, 1, 1, 1]), cp.MoveCertificate({}))
    p3 = cp.path_graph(3)
    assert not cp.verify_certificate(p3, cp.Configuration([7, 0, 0]),
                                     cp.MoveCertificate({(0, 2): 1}))  # not an edge
    # insufficient final count
    assert not cp.verify_certificate(k2, cp.Configuration([2, 0]),
                                     cp.MoveCertificate({(0, 1): 1}))
    # out-of-range move
    assert not cp.verify_certificate(k2, cp.Configuration([3, 0]),
                                     cp.MoveCertificate({(0, 5): 1}))
    with pytest.raises(ValueError):
        cp.verify_certificate(k2, cp.Configuration([3]), cp.MoveCertificate({}))


def test_execute_certificate_replays():
    p3 = cp.path_graph(3)
    c = cp.Configuration([7, 0, 0])
    cert = cp.MoveCertificate({(0, 1): 3, (1, 2): 1})
    seq = cp.execute_certificate(p3, c, cert)
    assert len(seq) == 4
    assert seq.count((0, 1)) == 3 and seq.count((1, 2)) == 1
    final = cp.apply_moves(p3, c, seq)
    assert final.pebbles == (1, 1, 1)
    assert final.total == c.total - cert.total_moves

    assert cp.execute_certificate(p3, cp.Configuration([1, 1, 1]), cp.MoveCertificate({})) == []

    k2 = cp.complete_graph(2)
    seq = cp.execute_certificate(k2, cp.Configuration([3, 0]), cp.MoveCertificate({(0, 1): 1}))
    assert seq == [(0, 1)]
    assert cp.apply_moves(k2, cp.Configuration([3, 0]), seq).pebbles == (1, 1)


def test_execute_certificate_stalls_on_bad_certificate():
    p3 = cp.path_graph(3)
    bad = cp.MoveCertificate({(1, 2): 1})  # source never holds two pebbles
    assert not cp.verify_certificate(p3, cp.Configuration([1, 1, 0]), bad)
    with pytest.raises(ValueError, match="stalled"):
        cp.execute_certificate(p3, cp.Configuration([1, 1, 0]), bad)


def test_apply_moves_cases():
    k2 = cp.complete_graph(2)
    assert cp.apply_moves(k2, cp.Configuration([4, 0]), [(0, 1), (0, 1)]).pebbles == (0, 2)
    c = cp.Configuration([2, 1])
    assert cp.apply_moves(k2, c, []) == c
    with pytest.raises(ValueError, match="move #0"):
        cp.apply_moves(k2, cp.Configuration([1, 0]), [(0, 1)])
    with pytest.raises(ValueError, match="edge"):
        cp.apply_moves(cp.path_graph(3), cp.Configuration([4, 0, 0]), [(0, 2)])
    with pytest.raises(ValueError, match="move #1"):
        cp.apply_moves(k2, cp.Configuration([3, 0]), [(0, 1), (0, 1)])


def test_solve_examples_and_fast_paths():
    k3 = cp.complete_graph(3)
    r = cp.solve(k3, cp.Configuration([5, 0, 0]))
    assert r.solvable and r.fast_path == FP_COMPLETE_GRAPH
    assert cp.verify_certificate(k3, cp.Configuration([5, 0, 0]), r.certificate)

    r = cp.solve(k3, cp.Configuration([3, 0, 0]))
    assert not r.solvable and r.fast_path == FP_COMPLETE_GRAPH

    p3 = cp.path_graph(3)
    r = cp.solve(p3, cp.Configuration([6, 0, 0]))
    assert not r.solvable and r.fast_path == FP_SEARCH

    r = cp.solve(p3, cp.Configuration([7, 0, 0]))
    assert r.solvable and r.fast_path == FP_STACKING
    assert r.certificate == cp.MoveCertificate({(0, 1): 3, (1, 2): 1})

    r = cp.solve(p3, cp.Configuration([1, 1, 1]))
    assert r.solvable and r.fast_path == FP_ALL_COVERED and r.certificate.moves == {}

    r = cp.solve(p3, cp.Configuration([2, 0, 0]))
    assert not r.solvable and r.fast_path == FP_TRIVIAL_DEFICIT

    # weighted-mass reject: enough pebbles in total but the far end is out of reach
    p4 = cp.path_graph(4)
    r = cp.solve(p4, cp.Configuration([6, 0, 0, 0]))
    assert not r.solvable and r.fast_path == FP_TRIVIAL_DEFICIT

    with pytest.raises(ValueError):
        cp.solve(cp.build_graph(0, []), cp.Configuration([]))


def test_solve_matches_bruteforce_random():
    rng = random.Random(99)
    for _ in range(150):
        g = random_connected_graph(rng, max_vertices=5)
        c = random_configuration(rng, g.vertex_count, max_total=10)
        result = cp.solve(g, c)
        assert result.solvable == cp.solve_bruteforce(g, c)
        if result.solvable:
            assert cp.verify_certificate(g, c, result.certificate)
            seq = cp.execute_certificate(g, c, result.certificate)
            assert min(cp.apply_moves(g, c, seq).pebbles) >= 1


def test_weight_monotonicity_of_single_moves():
    # the weighted pebble mass seen from any target never increases
    rng = random.Random(4)
    trials = 0
    while trials < 150:
        g = random_connected_graph(rng, max_vertices=6)
        n = g.vertex_count
        c = random_configuration(rng, n, max_total=12)
        sources = [v for v in range(n) if c[v] >= 2 and g.adjacency[v]]
        if not sources:
            continue
        a = rng.choice(sources)
        b = rng.choice(g.adjacency[a])
        after = list(c.pebbles)
        after[a] -= 2
        after[b] += 1
        d = g.distances.tolist()
        diam = int(g.distances.max())
        for v in range(n):
            before_w = sum(c[u] << (diam - d[u][v]) for u in range(n))
            after_w = sum(after[u] << (diam - d[u][v]) for u in range(n))
            assert after_w <= before_w
        trials += 1


def test_monotone_in_pebbles():
    rng = random.Random(12)
    found = 0
    while found < 60:
        g = random_connected_graph(rng, max_vertices=5)
        c = random_configuration(rng, g.vertex_count, max_total=10)
        if not cp.solve(g, c).solvable:
            continue
        extra = list(c.pebbles)
        for _ in range(rng.randint(1, 4)):
            extra[rng.randrange(len(extra))] += 1
        assert cp.solve(g, cp.Configuration(extra)).solvable
        found += 1


def test_partial_executions_leave_solvable_residual():
    rng = random.Random(2024)
    done = 0
    while done < 40:
        g = random_connected_graph(rng, max_vertices=5)
        c = random_configuration(rng, g.vertex_count, max_total=10)
        result = cp.solve(g, c)
        if not (not result.undecided and result.solvable and result.certificate.moves):
            continue
        seq = cp.execute_certificate(g, c, result.certificate)
        current = list(c.pebbles)
        taken = []
        for move in seq:
            if rng.random() < 0.5 and current[move[0]] >= 2:
                taken.append(move)
                current[move[0]] -= 2
                current[move[1]] += 1
        residual = cp.apply_moves(g, c, taken)
        assert cp.Configuration(current) == residual
        assert cp.solve(g, residual).solvable
        done += 1


def test_disconnected_decided_per_component():
    g = cp.build_graph(4, [(0, 1), (2, 3)])
    assert cp.solve(g, cp.Configuration([3, 0, 1, 1])).solvable
    assert not cp.solve(g, cp.Configuration([3, 0, 2, 0])).solvable
    assert not cp.solve(g, cp.Configuration([3, 0, 0, 0])).solvable
    c = cp.Configuration([3, 0, 3, 0])
    r = cp.solve(g, c)
    assert r.solvable
    assert r.certificate.moves == {(0, 1): 1, (2, 3): 1}
    assert cp.verify_certificate(g, c, r.certificate)


def test_budget_exhaustion_is_reported_not_guessed():
    g = cp.path_graph(4)
    c = cp.Configuration([15, 0, 0, 0])
    r = cp.solve(g, c, budget=1)
    assert r.undecided and r.status == cp.UNDECIDED
    assert r.certificate is None
    # the root counts as a node, so a zero budget stops before it
    r = cp.solve(g, c, budget=0)
    assert r.undecided and r.nodes_expanded == 1
    with pytest.raises(ValueError, match="budget"):
        r.solvable  # no boolean answer available


@pytest.mark.parametrize("g, lam", [
    (cp.path_graph(64), 2**64 - 1),  # object potentials: diameter above 60
    (cp.path_graph(200), 2**200 - 1),
    (cp.path_graph(40), 2**40 - 1),  # object potentials: the pebble total shifted by 39
    (cp.cube_graph(3), 27),  # int64 potentials
], ids=["P64", "P200", "P40", "Q3"])
def test_stacking_tag_at_the_cover_number_boundary(monkeypatch, g, lam):
    def refuse(*args):
        raise AssertionError("solve() recomputed a stacking weight")

    monkeypatch.setattr("coverpebbling.stacking.stacking_weight", refuse)
    n = g.vertex_count
    for t, tag in ((lam, FP_STACKING), (lam - 1, FP_SEARCH)):
        r = cp.solve(g, cp.Configuration([t] + [0] * (n - 1)), budget=0)
        assert (r.status, r.nodes_expanded, r.fast_path) == (cp.UNDECIDED, 1, tag)


def test_solve_leaves_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"solve() changed the recursion limit to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    before = sys.getrecursionlimit()
    n = max(1000, before)
    g = cp.path_graph(n)
    c = cp.Configuration([1] * (n - 2) + [3, 0])
    r = cp.solve(g, c)
    assert r.solvable and r.fast_path == FP_SEARCH

    # a chain of 299 nested firings, each passing one pebble down the path
    g = cp.path_graph(300)
    c = cp.Configuration([3] + [2] * 298 + [0])
    r = cp.solve(g, c)
    assert r.solvable and r.nodes_expanded == 300
    assert r.certificate.moves == {(i, i + 1): 1 for i in range(299)}
    assert cp.verify_certificate(g, c, r.certificate)
    assert sys.getrecursionlimit() == before


def test_certificate_validation_and_json():
    with pytest.raises(ValueError):
        cp.MoveCertificate({(0, 1): -1})
    with pytest.raises(ValueError):
        cp.MoveCertificate({(2, 2): 1})
    cert = cp.MoveCertificate({(0, 1): 2, (1, 0): 0})
    assert cert.moves == {(0, 1): 2}
    assert cert.total_moves == 2
    d = cp.certificate_to_dict(cert)
    assert d == {"moves": [[0, 1, 2]]}
    assert cp.certificate_from_dict(d) == cert
    with pytest.raises(ValueError):
        cp.certificate_from_dict({"moves": [[1, 2]]})


def test_certificate_total_moves_bound():
    # one pebble is lost per move and n must remain at the end
    rng = random.Random(31)
    for _ in range(80):
        g = random_connected_graph(rng, max_vertices=5)
        c = random_configuration(rng, g.vertex_count, max_total=10)
        r = cp.solve(g, c)
        if r.solvable and r.certificate is not None:
            assert r.certificate.total_moves <= c.total - g.vertex_count
