import hashlib
import random
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import coverpebbling as cp
from coverpebbling.solvability import (
    FP_ALL_COVERED,
    FP_COMPLETE_GRAPH,
    FP_SEARCH,
    FP_STACKING,
    FP_TRIVIAL_DEFICIT,
    _screen,
)
from conftest import (
    FIGURE_SETS,
    NO_COVER_SETS,
    compositions,
    coverable_instance,
    random_configuration,
    random_connected_graph,
    thinned_gadget_configuration,
)


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


def test_complete_graph_certificates_are_pinned():
    # spare moves are taken in vertex order, one per empty vertex
    for g, pebbles, moves in [(cp.complete_graph(4), [5, 2, 0, 0], {(0, 2): 1, (0, 3): 1}),
                              (cp.complete_graph(3), [2**70, 0, 0], {(0, 1): 1, (0, 2): 1})]:
        r = cp.solve(g, cp.Configuration(pebbles))
        assert (r.status, r.fast_path) == (cp.SOLVABLE, FP_COMPLETE_GRAPH)
        assert r.certificate.moves == moves


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


def test_execute_certificate_rejects_moves_off_the_graph():
    p3 = cp.path_graph(3)
    c = cp.Configuration([0, 0, 4])
    # a negative index that would wrap, one past the end, and a non-adjacent pair
    for move in [(-1, 1), (5, 0), (2, 0)]:
        with pytest.raises(ValueError, match=rf"move \({move[0]},{move[1]}\) is not along an edge"):
            cp.execute_certificate(p3, c, cp.MoveCertificate({move: 1}))


class _EdgesNotListed:
    def __iter__(self):
        raise AssertionError("a certificate check listed the graph's edges")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_certificate_checks_never_list_the_edges():
    rng = random.Random(10)
    for _ in range(200):
        g = random_connected_graph(rng, max_vertices=6)
        h = cp.Graph(g.vertex_count, g.edges)
        h.edges = _EdgesNotListed()
        n = g.vertex_count
        c = random_configuration(rng, n, max_total=12)
        moves = {}
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randint(-1, n), rng.randint(-1, n)
            if i != j:
                moves[(i, j)] = rng.randint(1, 3)
        certs = [cp.MoveCertificate(moves)]
        result = cp.solve(g, c, budget=20_000)
        if result.certificate is not None:
            certs.append(result.certificate)
        seqs = [[(rng.randint(-1, n), rng.randint(-1, n)) for _ in range(rng.randint(0, 5))]]
        for m in certs:
            assert cp.verify_certificate(h, c, m) == cp.verify_certificate(g, c, m)
            seq = _outcome(cp.execute_certificate, g, c, m)
            assert _outcome(cp.execute_certificate, h, c, m) == seq
            if isinstance(seq, list):
                seqs.append(seq)
        for seq in seqs:
            assert _outcome(cp.apply_moves, h, c, seq) == _outcome(cp.apply_moves, g, c, seq)


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
    # a float equal to a vertex is no vertex, so the move is on no edge
    with pytest.raises(ValueError, match=r"move #0 \(1\.0->0\) is not along an edge"):
        cp.apply_moves(k2, cp.Configuration([2, 0]), [(1.0, 0)])
    with pytest.raises(ValueError, match=r"move #0 .*not along an edge"):
        cp.apply_moves(k2, cp.Configuration([2, 0]), [("a", 1)])
    moved = cp.apply_moves(k2, cp.Configuration([2, 0]), [(np.int64(0), np.int32(1))])
    assert moved.pebbles == (0, 1)
    for junk in (5, None, (0,), (0, 1, 2)):
        with pytest.raises(ValueError, match=r"move #1 .*not a \(source, target\) pair"):
            cp.apply_moves(k2, cp.Configuration([4, 0]), [(0, 1), junk])


def _pass_by_pass_execute(g, c, m):
    """Reference pass schedule, one move at a time: each pass walks the remaining
    moves in sorted order and fires each while it lasts and its source holds two
    pebbles; a pass that fires nothing is a stall."""
    remaining = dict(sorted(m.moves.items()))
    current = list(c.pebbles)
    sequence = []
    while remaining:
        fired = len(sequence)
        for i, j in list(remaining):
            while remaining[i, j] and current[i] >= 2:
                current[i] -= 2
                current[j] += 1
                sequence.append((i, j))
                remaining[i, j] -= 1
            if not remaining[i, j]:
                del remaining[i, j]
        if len(sequence) == fired:
            raise ValueError(
                "certificate stalled with moves remaining; it does not satisfy "
                "the covering inequalities")
    return sequence


def _move_by_move_apply(g, c, seq):
    """Reference replay: every move checked on its own."""
    edges = set(g.edges)
    current = list(c.pebbles)
    for idx, (i, j) in enumerate(seq):
        if (min(i, j), max(i, j)) not in edges:
            raise ValueError(f"move #{idx} ({i}->{j}) is not along an edge")
        if current[i] < 2:
            raise ValueError(
                f"move #{idx} ({i}->{j}) is illegal: source holds {current[i]} pebble(s)")
        current[i] -= 2
        current[j] += 1
    return cp.Configuration(current)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def _arcs(g):
    return list(g.edges) + [(b, a) for a, b in g.edges]


def _random_certificate(rng, g):
    arcs = _arcs(g)
    chosen = rng.sample(arcs, rng.randint(0, len(arcs)))
    return cp.MoveCertificate({arc: rng.randint(1, 6) for arc in chosen})


def _random_sequence(rng, g):
    """Runs of random moves, off-edge ones included, with no regard to legality."""
    arcs = _arcs(g)
    n = g.vertex_count
    seq = []
    for _ in range(rng.randint(0, 10)):
        move = rng.choice(arcs) if arcs and rng.random() < 0.9 else (
            rng.randrange(n), rng.randrange(n))
        seq += [move] * rng.choice([1, 1, 2, 3, 5])
    return seq


def _legal_sequence(rng, g, c):
    """Runs of random legal moves, each as long as its source allows or shorter."""
    current = list(c.pebbles)
    seq = []
    for _ in range(rng.randint(1, 8)):
        ready = [(a, b) for a, b in _arcs(g) if current[a] >= 2]
        if not ready:
            break
        a, b = rng.choice(ready)
        run = rng.randint(1, current[a] // 2)
        seq += [(a, b)] * run
        current[a] -= 2 * run
        current[b] += run
    return seq


def test_execute_certificate_follows_the_pass_schedule():
    # the first pass finds vertex 0 empty and fires all three (2, 0); the
    # second fires (0, 1)
    g = cp.Graph(3, [(0, 1), (0, 2)])
    c = cp.Configuration([0, 0, 8])
    cert = cp.MoveCertificate({(2, 0): 3, (0, 1): 1})
    expected = [(2, 0), (2, 0), (2, 0), (0, 1)]
    assert _pass_by_pass_execute(g, c, cert) == expected
    assert cp.execute_certificate(g, c, cert) == expected

    rng = random.Random(16)
    for span in range(1, 13):
        x = coverable_instance(rng, span)
        built = cp.build_reduction(x)
        cert = cp.cover_witness_certificate(x, cp.exact_cover_bruteforce(x))
        seq = cp.execute_certificate(built.graph, built.config, cert)
        assert seq == _pass_by_pass_execute(built.graph, built.config, cert)

    solved = stalled = 0
    while solved < 60 or stalled < 200:
        g = random_connected_graph(rng, max_vertices=6)
        c = random_configuration(rng, g.vertex_count, max_total=14)
        result = cp.solve(g, c)
        if result.solvable:
            solved += 1
            assert (cp.execute_certificate(g, c, result.certificate)
                    == _pass_by_pass_execute(g, c, result.certificate))
        cert = _random_certificate(rng, g)
        expected = _outcome(_pass_by_pass_execute, g, c, cert)
        stalled += isinstance(expected, str)
        assert _outcome(cp.execute_certificate, g, c, cert) == expected


def _final_counts(c, m):
    """C(k) + in(k) - 2 out(k) for every vertex k."""
    final = list(c.pebbles)
    for (i, j), count in m.moves.items():
        final[i] -= 2 * count
        final[j] += count
    return final


def test_verified_certificates_with_move_cycles_never_stall():
    # a random certificate on a graph of up to 30 vertices, with at least one
    # move each way along some edge, and just enough pebbles (or up to two more)
    # under each vertex that it verifies
    rng = random.Random(26)
    cyclic = 0
    while cyclic < 2000:
        g = random_connected_graph(rng, max_vertices=30)
        arcs = _arcs(g)
        for _ in range(10 if arcs else 0):
            a, b = rng.choice(g.edges)
            moves = {arc: rng.randint(1, 300) for arc in rng.sample(arcs, min(len(arcs), 10))}
            moves[a, b] = rng.randint(1, 300)
            moves[b, a] = rng.randint(1, 300)
            cert = cp.MoveCertificate(moves)
            bare = _final_counts(cp.Configuration([0] * g.vertex_count), cert)
            c = cp.Configuration(max(0, 1 - x) + rng.randint(0, 2) for x in bare)
            assert cp.verify_certificate(g, c, cert)
            seq = cp.execute_certificate(g, c, cert)
            assert Counter(seq) == cert.moves
            assert list(cp.apply_moves(g, c, seq).pebbles) == _final_counts(c, cert)
            cyclic += 1

    k2 = cp.complete_graph(2)
    cert = cp.MoveCertificate({(0, 1): 10**5, (1, 0): 10**5})
    c = cp.Configuration([10**5 + 1, 10**5 + 1])
    assert cp.verify_certificate(k2, c, cert)
    seq = cp.execute_certificate(k2, c, cert)
    assert cp.apply_moves(k2, c, seq).pebbles == (1, 1) == tuple(_final_counts(c, cert))


def test_apply_moves_checks_runs_move_by_move():
    k2 = cp.complete_graph(2)
    with pytest.raises(ValueError, match=r"^move #2 \(0->1\) is illegal: source holds 1 pebble\(s\)$"):
        cp.apply_moves(k2, cp.Configuration([5, 0]), [(0, 1)] * 3)
    # an off-edge move that opens a run is reported at its own index
    p3 = cp.path_graph(3)
    with pytest.raises(ValueError, match=r"^move #2 \(0->2\) is not along an edge$"):
        cp.apply_moves(p3, cp.Configuration([8, 0, 0]), [(0, 1), (0, 1), (0, 2), (0, 2)])
    moves = ((0, 1) for _ in range(3))
    assert cp.apply_moves(p3, cp.Configuration([7, 0, 0]), moves).pebbles == (1, 3, 0)

    # random sequences, and random legal ones with and without one random
    # move spliced in
    rng = random.Random(21)
    legal = illegal = 0
    for _ in range(400):
        g = random_connected_graph(rng, max_vertices=6)
        c = random_configuration(rng, g.vertex_count, max_total=20)
        good = _legal_sequence(rng, g, c)
        cut = rng.randint(0, len(good))
        spliced = good[:cut] + _random_sequence(rng, g)[:1] + good[cut:]
        for seq in (_random_sequence(rng, g), good, spliced):
            expected = _outcome(_move_by_move_apply, g, c, seq)
            illegal += isinstance(expected, str)
            legal += bool(seq) and not isinstance(expected, str)
            assert _outcome(cp.apply_moves, g, c, iter(seq)) == expected
    assert legal > 100 and illegal > 100


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
        cp.solve(cp.Graph(0, []), cp.Configuration([]))


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


def test_solve_refutations_match_bruteforce():
    # pebbles piled on one to three vertices force multi-step routing, so many
    # instances reach the search and are refuted there, where the surplus
    # test cuts branches
    rng = random.Random(31)
    searched_refutations = 0
    for _ in range(1000):
        g = random_connected_graph(rng, max_vertices=6)
        n = g.vertex_count
        piles = rng.sample(range(n), min(n, rng.randint(1, 3)))
        counts = [0] * n
        for _ in range(rng.randint(n, 14)):
            counts[rng.choice(piles)] += 1
        c = cp.Configuration(counts)
        result = cp.solve(g, c)
        assert result.solvable == cp.solve_bruteforce(g, c)
        if result.status == cp.UNSOLVABLE and result.fast_path == FP_SEARCH:
            searched_refutations += 1
    assert searched_refutations >= 200


def _tree_fold_solvable(g, c):
    """Independent decider for forests: fold each tree from its leaves up to
    its smallest vertex.

    A vertex with value C(v) + in >= 1 sends (value - 1) // 2 pebbles to its
    parent; any other vertex needs 1 - value from it, which costs the parent
    twice that.  The forest is solvable iff every root ends with value >= 1.
    """
    parent = {}
    value = list(c.pebbles)
    for root in range(g.vertex_count):
        if root in parent:
            continue
        parent[root] = None
        order = [root]
        for u in order:
            for w in g.adjacency[u]:
                if w not in parent:
                    parent[w] = u
                    order.append(w)
        for v in reversed(order[1:]):
            value[parent[v]] += (value[v] - 1) // 2 if value[v] >= 1 else -2 * (1 - value[v])
        if value[root] < 1:
            return False
    return True


def test_solve_agrees_with_the_tree_fold_beyond_six_vertices():
    rng = random.Random(27)
    for _ in range(200):  # the fold itself, against the exhaustive oracle
        g = cp.random_tree(rng.randint(1, 6), rng.getrandbits(63))
        c = random_configuration(rng, g.vertex_count, max_total=14)
        assert _tree_fold_solvable(g, c) == cp.solve_bruteforce(g, c)
    # random trees of 8-14 vertices with n to 4n pebbles on uniform vertices;
    # past 14 vertices the search leaves some trees undecided at this budget
    verdicts = Counter()
    for _ in range(500):
        n = rng.randint(8, 14)
        g = cp.random_tree(n, rng.getrandbits(63))
        counts = [0] * n
        for _ in range(rng.randint(n, 4 * n)):
            counts[rng.randrange(n)] += 1
        c = cp.Configuration(counts)
        result = cp.solve(g, c, budget=200_000)
        assert result.status == (cp.SOLVABLE if _tree_fold_solvable(g, c) else cp.UNSOLVABLE)
        verdicts[result.status] += 1
    assert verdicts[cp.SOLVABLE] >= 100 and verdicts[cp.UNSOLVABLE] >= 100, verdicts


def test_solve_agrees_with_the_tree_fold_on_forests():
    # 2-4 random trees of 1-10 vertices each, their vertices relabelled and
    # interleaved, with n to 4n pebbles on uniform vertices: solve() splits
    # the forest into components and must still agree with the fold
    rng = random.Random(30)
    searched = searched_refutations = 0
    for _ in range(300):
        sizes = [rng.randint(1, 10) for _ in range(rng.randint(2, 4))]
        n = sum(sizes)
        labels = list(range(n))
        rng.shuffle(labels)
        edges, base = [], 0
        for size in sizes:
            tree = cp.random_tree(size, rng.getrandbits(63))
            edges += [(labels[base + u], labels[base + v]) for u, v in tree.edges]
            base += size
        g = cp.Graph(n, edges)
        counts = [0] * n
        for _ in range(rng.randint(n, 4 * n)):
            counts[rng.randrange(n)] += 1
        c = cp.Configuration(counts)
        result = cp.solve(g, c, budget=200_000)
        assert result.status == (cp.SOLVABLE if _tree_fold_solvable(g, c) else cp.UNSOLVABLE)
        if result.status == cp.SOLVABLE:
            assert cp.verify_certificate(g, c, result.certificate)
        if result.nodes_expanded > 1:
            searched += 1
            searched_refutations += result.status == cp.UNSOLVABLE
    assert searched >= 100 and searched_refutations >= 40, (searched, searched_refutations)


# sha256 of every outcome below, computed before the search kept its surplus
# vectors and memo keys as packed ints; a change to how the search represents
# its states must leave it node-for-node the same
OUTCOME_DIGEST = "e67a62499eaea2c662817344868fbf1aeff2730acb9df2db80e6d4fd1682c160"


def test_search_outcomes_are_pinned_by_digest():
    # 1,600 random connected graphs and trees of 3-12 vertices with pebbles
    # piled on one to three vertices, then the figure gadget and the thinned
    # figure and no-cover gadgets, each at budgets 0, 1, 3 and the default
    rng = random.Random(24)
    instances = []
    while len(instances) < 1600:
        if len(instances) % 2:
            g = cp.random_tree(rng.randint(3, 12), rng.getrandbits(32))
        else:
            g = random_connected_graph(rng, max_vertices=12)
        n = g.vertex_count
        if n < 3:
            continue
        counts = [0] * n
        piles = rng.sample(range(n), rng.randint(1, 3))
        for _ in range(rng.randint(n, 2 * n + 4)):
            counts[rng.choice(piles)] += 1
        instances.append((g, cp.Configuration(counts)))
    for sets in (FIGURE_SETS, NO_COVER_SETS):
        built = cp.build_reduction(cp.X4CInstance(8, sets))
        if sets is FIGURE_SETS:
            instances.append((built.graph, built.config))
        instances.append((built.graph, thinned_gadget_configuration(built)))
    digest = hashlib.sha256()
    searched = 0
    for g, c in instances:
        for budget in (0, 1, 3, cp.DEFAULT_NODE_BUDGET):
            r = cp.solve(g, c, budget)
            moves = sorted(r.certificate.moves.items()) if r.certificate else None
            digest.update(repr((r.status, r.nodes_expanded, r.fast_path, moves)).encode())
            searched += r.nodes_expanded > 1
    assert searched > 1500
    assert digest.hexdigest() == OUTCOME_DIGEST


def test_surplus_never_rises_under_a_firing():
    # S(e) = sum over unfired v of (C(v) - 1) 2^(diam - d(v, e)); firing u
    # (k <= (C(u) - 1) // 2 moves to unfired neighbours, then u counts as
    # fired) never raises it at any vertex, and it is non-negative at a cover
    rng = random.Random(8)
    trials = covers = 0
    while trials < 300:
        g = random_connected_graph(rng, max_vertices=7)
        n = g.vertex_count
        c = random_configuration(rng, n, max_total=16)
        fired = {v for v in range(n) if rng.random() < 0.3}
        sources = [v for v in range(n) if v not in fired and c[v] >= 3
                   and any(b not in fired for b in g.adjacency[v])]
        if not sources:
            continue
        u = rng.choice(sources)
        targets = [b for b in g.adjacency[u] if b not in fired]
        k = rng.randint(1, (c[u] - 1) // 2)
        after = list(c.pebbles)
        after[u] -= 2 * k
        for _ in range(k):
            after[rng.choice(targets)] += 1
        d = g.distances.tolist()
        diam = int(g.distances.max())
        unfired = [v for v in range(n) if v not in fired]
        before = [sum((c[v] - 1) << (diam - d[v][e]) for v in unfired) for e in range(n)]
        now = [sum((after[v] - 1) << (diam - d[v][e]) for v in unfired if v != u)
               for e in range(n)]
        assert all(s <= s0 for s, s0 in zip(now, before))
        # at an unfired empty vertex e, S(e) >= 0 implies the reach test
        # sum over unfired v of C(v) 2^(diam - d(v, e)) >= 2^diam
        assert all(sum(state[v] << (diam - d[v][e]) for v in live) >= 1 << diam
                   for state, live, surplus in ((c.pebbles, unfired, before),
                                                (after, [v for v in unfired if v != u], now))
                   for e in live if state[e] == 0 and surplus[e] >= 0)
        if min(after) >= 1:
            assert min(now) >= 0
            covers += 1
        trials += 1
    assert covers >= 10


def _surplus(g, state, live):
    """S(e) = sum over live v of (state(v) - 1) 2^(diam - d(v, e)) at every vertex e."""
    d = g.distances.tolist()
    diam = max(map(max, d))
    return [sum((state[v] - 1) << (diam - d[v][e]) for v in live) for e in range(len(state))]


def test_surplus_never_rises_under_a_move_or_a_stop():
    # the search's per-move cut: with the sum over unfired vertices and the
    # active source a, one move a -> b to an unfired neighbour and a stop of
    # a never raise S at any vertex, and S >= 0 wherever every vertex is covered
    rng = random.Random(15)
    trials = covers = 0
    while trials < 300:
        g = random_connected_graph(rng, max_vertices=7)
        n = g.vertex_count
        c = random_configuration(rng, n, max_total=16)
        unfired = [v for v in range(n) if rng.random() >= 0.3]
        sources = [v for v in unfired if c[v] >= 3
                   and any(b in unfired for b in g.adjacency[v])]
        if not sources:
            continue
        a = rng.choice(sources)
        b = rng.choice([b for b in g.adjacency[a] if b in unfired])
        moved = list(c.pebbles)
        moved[a] -= 2
        moved[b] += 1
        stopped = [v for v in unfired if v != a]
        states = [(c.pebbles, _surplus(g, c.pebbles, unfired)),
                  (moved, _surplus(g, moved, unfired)),
                  (moved, _surplus(g, moved, stopped))]
        for (_, before), (_, after) in zip(states, states[1:]):
            assert all(s <= s0 for s, s0 in zip(after, before))
        for state, surplus in states:
            if min(state) >= 1:
                assert min(surplus) >= 0
                covers += 1
        trials += 1
    assert covers >= 10


def _root_children(g, c):
    """The root's children: the distinct moves out of vertices holding three or more."""
    if c.total == g.vertex_count:  # a move would take the total below the vertex count
        return 0
    return len({(u, b) for u in range(g.vertex_count) if c[u] >= 3 for b in g.adjacency[u]})


def _reaches(g, c):
    """Every empty e sees sum_v C(v) 2^(diam - d(v, e)) >= 2^diam, term by term."""
    d = g.distances.tolist()
    diam = max(map(max, d))
    return all(sum(c[v] << (diam - d[v][e]) for v in range(g.vertex_count)) >= 1 << diam
               for e in range(g.vertex_count) if c[e] == 0)


class _Stop(Exception):
    pass


def _formula_search(g, c, budget):
    """The search as _search's docstring states it, with every S from _surplus.

    For a root that passes the surplus test.  Returns (status, nodes,
    certificate moves) and two tallies: expanded nodes with children where
    some S(e) is exactly 0, and cut children whose least S(e) is exactly -1.
    """
    n = g.vertex_count
    seen = set()
    nodes, zero, minus_one = 1, 0, 0

    def surplus(state, fired, active):
        return _surplus(g, state, [v for v in range(n) if not fired >> v & 1 or v == active])

    def children(state, fired, move):
        t = sum(state)
        if t == n:
            return []
        out = []
        if move is not None:
            a, last = move
            if state[a] >= 3:
                out += [(state[b] > 0, False, 0, a, b, fired) for b in g.adjacency[a]
                        if b >= last and not fired >> b & 1]
        if min(surplus(state, fired, None)) >= 0:  # a stopped, or the root
            for u in range(n):
                if state[u] >= 3 and not fired >> u & 1:
                    targets = [b for b in g.adjacency[u] if not fired >> b & 1]
                    rank = min((state[u] - 1) // 2, t - n, sum(not state[b] for b in targets))
                    out += [(state[b] > 0, True, -rank, u, b, fired | 1 << u) for b in targets]
        return sorted(out)

    def visit(state, fired, move, path):
        nonlocal nodes, zero, minus_one
        for *_, u, b, fired2 in children(state, fired, move):
            child = list(state)
            child[u] -= 2
            child[b] += 1
            if (tuple(child), fired2, u, b) in seen:
                continue
            seen.add((tuple(child), fired2, u, b))
            nodes += 1
            if nodes > budget:
                raise _Stop(cp.UNDECIDED, None)
            s = surplus(child, fired2, u)
            if min(s) < 0:
                minus_one += min(s) == -1
                continue
            if min(child) >= 1:
                raise _Stop(cp.SOLVABLE, Counter(path + [(u, b)]))
            zero += 0 in s and bool(children(child, fired2, (u, b)))
            visit(child, fired2, (u, b), path + [(u, b)])

    try:  # every budget used here is at least 1, which the root fits
        visit(list(c.pebbles), 0, None, [])
        outcome = cp.UNSOLVABLE, None
    except _Stop as stop:
        outcome = stop.args
    return (outcome[0], nodes, outcome[1]), zero, minus_one


def _searched_outcome(g, c, budget):
    r = cp.solve(g, c, budget)
    assert r.fast_path in (FP_SEARCH, FP_STACKING)
    return r.status, r.nodes_expanded, r.certificate.moves if r.certificate else None


def test_search_matches_the_formula_search_at_the_sign_boundary():
    # the search tests S(e) >= 0 off one packed int's field top bits; the
    # formula search recomputes every S, and the instances reach nodes with
    # some S(e) exactly 0, which must be expanded, and children whose least
    # S(e) is exactly -1, which must be cut
    rng = random.Random(26)
    checked = zero = minus_one = 0
    while checked < 400:
        g = random_connected_graph(rng, max_vertices=8)
        n = g.vertex_count
        if n < 3 or g.edge_count == n * (n - 1) // 2:
            continue
        counts = [0] * n
        piles = rng.sample(range(n), rng.randint(1, 3))
        for _ in range(rng.randint(n, 2 * n + 2)):
            counts[rng.choice(piles)] += 1
        c = cp.Configuration(counts)
        if min(counts) >= 1 or not _reaches(g, c) or min(_surplus(g, counts, range(n))) < 0:
            continue
        for budget in (3, cp.DEFAULT_NODE_BUDGET):
            expected, zeros, minus_ones = _formula_search(g, c, budget)
            assert _searched_outcome(g, c, budget) == expected, (g, counts, budget)
        zero += zeros
        minus_one += minus_ones
        checked += 1
    assert zero > 500 and minus_one > 400


def test_search_matches_the_formula_search_beyond_two_to_the_64():
    # P_64 to P_90: potentials up to 2^89 and a pile above 2^64, so every
    # field of the packed surplus is wider than a machine word; ones
    # elsewhere except a few empty vertices, so the root passes the surplus
    # test, and a small budget ends the searches that would run long
    rng = random.Random(27)
    solved = stopped = 0
    for n in (64, 65, 70, 80, 90):
        g = cp.path_graph(n)
        for _ in range(8):
            counts = [1] * n
            pile = rng.randrange(n)
            counts[pile] = rng.randint(2**64 + 1, 2**70)
            empty, other = rng.sample([v for v in range(n) if 0 < abs(v - pile) <= 3], 2)
            counts[empty], counts[other] = 0, rng.choice((0, 3))
            c = cp.Configuration(counts)
            assert c.total > 2**64 and _reaches(g, c)
            assert max(_surplus(g, counts, range(n))) >= 2**64
            for budget in (1, 3, 40):
                expected, _, _ = _formula_search(g, c, budget)
                assert _searched_outcome(g, c, budget) == expected, (n, counts, budget)
                solved += expected[0] == cp.SOLVABLE and expected[1] > 1
                stopped += expected[0] == cp.UNDECIDED and budget == 40
    assert solved > 20 and stopped > 5


def _negative_surplus_instances(rng, count):
    """Connected 3-9 vertex instances that reach the search with some root S(e) < 0."""
    found = []
    while len(found) < count:
        g = random_connected_graph(rng, max_vertices=9)
        n = g.vertex_count
        if n < 3 or g.edge_count == n * (n - 1) // 2:  # K_n is decided by the screen
            continue
        piles = rng.sample(range(n), rng.randint(1, 3))
        counts = [0] * n
        for _ in range(rng.randint(n, 2 * n + 4)):
            counts[rng.choice(piles)] += 1
        c = cp.Configuration(counts)
        if min(_surplus(g, counts, range(n))) < 0 and _reaches(g, c):
            found.append((g, c))
    return found


def test_negative_root_surplus_is_refuted_in_closed_form():
    # the root's own budget check comes first, then every root child is
    # counted as a cut node without being built
    rng = random.Random(20)
    closed = 0
    for g, c in _negative_surplus_instances(rng, 300):
        k = 1 + _root_children(g, c)
        closed += k > 1
        expected = {0: (cp.UNDECIDED, 1), 1: (cp.UNDECIDED, 2) if k > 1 else (cp.UNSOLVABLE, 1),
                    k - 1: (cp.UNDECIDED, k), k: (cp.UNSOLVABLE, k), k + 1: (cp.UNSOLVABLE, k)}
        for budget, (status, nodes) in sorted(expected.items()):
            if budget >= 0:
                r = cp.solve(g, c, budget)
                assert (r.status, r.nodes_expanded, r.fast_path) == (status, nodes, FP_SEARCH)
                assert r.certificate is None
        r = cp.solve(g, c)
        assert (r.status, r.nodes_expanded) == (cp.UNSOLVABLE, k)
        if g.vertex_count <= 6:
            assert not cp.solve_bruteforce(g, c)
    assert closed > 200


def test_closed_form_refutation_gets_the_budget_left_by_an_earlier_component():
    # the first component, P_3 with [3, 0, 1], is solved by the search at
    # its second node; the second, P_4 with [0, 7, 0, 0], has a negative root
    # surplus at vertex 3 and a root with two children
    g = cp.Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
    c = cp.Configuration([3, 0, 1, 0, 7, 0, 0])
    first = cp.solve(cp.path_graph(3), cp.Configuration([3, 0, 1]))
    assert (first.status, first.nodes_expanded, first.fast_path) == (cp.SOLVABLE, 2, FP_SEARCH)
    assert min(_surplus(cp.path_graph(4), [0, 7, 0, 0], range(4))) < 0
    for budget, status, nodes in ((1, cp.UNDECIDED, 2), (2, cp.UNDECIDED, 3),
                                  (3, cp.UNDECIDED, 4), (4, cp.UNDECIDED, 5),
                                  (5, cp.UNSOLVABLE, 5), (6, cp.UNSOLVABLE, 5)):
        r = cp.solve(g, c, budget)
        assert (r.status, r.nodes_expanded, r.fast_path) == (status, nodes, FP_SEARCH), budget


def test_stacking_weights_are_read_only_past_the_root_surplus_test(monkeypatch):
    # a negative root surplus refutes the component, so t < lambda and lambda
    # is never read; every other searched component reads it once
    calls = []

    def counting_stacking_weights(g):
        calls.append(g.vertex_count)
        return cp.stacking_weights(g)

    monkeypatch.setattr("coverpebbling.solvability.stacking_weights", counting_stacking_weights)
    rng = random.Random(21)
    for g, c in _negative_surplus_instances(rng, 100):
        r = cp.solve(g, c)
        assert (r.status, r.fast_path, calls) == (cp.UNSOLVABLE, FP_SEARCH, [])
    searched = refuted = 0
    for _ in range(1500):
        g = random_connected_graph(rng, max_vertices=7)
        c = random_configuration(rng, g.vertex_count, max_total=16)
        calls.clear()
        r = cp.solve(g, c)
        if r.fast_path in (FP_SEARCH, FP_STACKING):
            negative = min(_surplus(g, c.pebbles, range(g.vertex_count))) < 0
            assert calls == ([] if negative else [g.vertex_count])
            searched += 1
            refuted += negative
        else:
            assert calls == []
    assert searched - refuted > 150 and refuted > 80
    # P_3 with [3, 0, 1] is searched and solved; P_4 with [0, 7, 0, 0] is refuted at its root
    calls.clear()
    g = cp.Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
    r = cp.solve(g, cp.Configuration([3, 0, 1, 0, 7, 0, 0]))
    assert (r.status, calls) == (cp.UNSOLVABLE, [3])

def test_screen_reads_reach_and_surplus_off_one_mass_vector():
    # the screen's trivial-deficit verdict and the surplus it hands the search
    # equal the per-vertex formulas; P_64, P_90 and C_130 have potentials and
    # pebble counts beyond int64
    rng = random.Random(23)
    graphs = [random_connected_graph(rng, max_vertices=9) for _ in range(200)]
    graphs += [cp.random_tree(rng.randint(4, 12), rng.getrandbits(32)) for _ in range(100)]
    graphs += [cp.path_graph(64), cp.path_graph(90), cp.cycle_graph(130)]
    passed = rejected = wide = 0
    for g in graphs:
        n = g.vertex_count
        if g.edge_count == n * (n - 1) // 2:  # decided before the mass vector
            continue
        diam = int(g.distances.max())
        for _ in range(8):
            counts = [0] * n
            top = rng.choice((2 * n, 1 << diam + 1))
            for v in rng.sample(range(n), rng.randint(1, min(n, 3))):
                counts[v] = rng.randint(0, top)
            c = cp.Configuration(counts)
            if c.total < n or min(counts) >= 1:
                continue
            tag, status, found = _screen(g, c)
            if _reaches(g, c):
                surplus = _surplus(g, counts, range(n))
                assert status is None and found[1] == surplus
                passed += 1
                wide += max(map(abs, surplus)) >= 1 << 63
            else:
                assert (status, tag) == (cp.UNSOLVABLE, FP_TRIVIAL_DEFICIT)
                rejected += 1
    assert passed > 1000 and rejected > 150 and wide >= 5


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
    g = cp.Graph(4, [(0, 1), (2, 3)])
    assert cp.solve(g, cp.Configuration([3, 0, 1, 1])).solvable
    assert not cp.solve(g, cp.Configuration([3, 0, 2, 0])).solvable
    assert not cp.solve(g, cp.Configuration([3, 0, 0, 0])).solvable
    c = cp.Configuration([3, 0, 3, 0])
    r = cp.solve(g, c)
    assert r.solvable
    assert r.certificate.moves == {(0, 1): 1, (2, 3): 1}
    assert cp.verify_certificate(g, c, r.certificate)


@pytest.mark.parametrize("isolated_first", [False, True])
def test_every_component_is_screened_before_any_search(monkeypatch, isolated_first):
    def refuse(*args):
        raise AssertionError("solve() searched before screening every component")

    monkeypatch.setattr("coverpebbling.solvability._search", refuse)
    no_cover = cp.X4CInstance(8, [[0, 1, 2, 3], [3, 4, 5, 6], [0, 5, 6, 7]])
    built = cp.build_reduction(no_cover)
    n = built.graph.vertex_count
    if isolated_first:  # the empty vertex is 0 and the gadget is shifted up by one
        g = cp.Graph(n + 1, [(u + 1, v + 1) for u, v in built.graph.edges])
        c = cp.Configuration((0,) + built.config.pebbles)
    else:
        g = cp.Graph(n + 1, built.graph.edges)
        c = cp.Configuration(built.config.pebbles + (0,))
    r = cp.solve(g, c, budget=30000)
    assert (r.status, r.nodes_expanded, r.fast_path) == (cp.UNSOLVABLE, 0, FP_TRIVIAL_DEFICIT)


def test_no_subgraph_is_built_after_a_refuted_component(monkeypatch):
    built = []

    def counting_graph(*args):
        built.append(args[0])
        return cp.Graph(*args)

    monkeypatch.setattr("coverpebbling.solvability.Graph", counting_graph)
    g = cp.Graph(6, [(0, 1), (2, 3), (4, 5)])
    r = cp.solve(g, cp.Configuration([1, 0, 3, 0, 3, 0]))
    assert (r.status, r.fast_path) == (cp.UNSOLVABLE, FP_TRIVIAL_DEFICIT)
    assert built == [2]  # the first component only


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


def test_budget_bounds_the_work():
    # one node is one move, so a budget-limited call stops after bounded work
    # however tall a pile is and however many ways it could be split
    g = cp.path_graph(10)
    c = cp.Configuration([1] * 8 + [2**10, 0])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        r = cp.solve(g, c, budget=1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.status == cp.UNDECIDED
    assert elapsed < 0.5 and peak < 1 << 20
    g = cp.cube_graph(7)
    start = time.perf_counter()
    r = cp.solve(g, cp.Configuration([300] + [0] * 127), budget=1000)
    assert time.perf_counter() - start < 2
    assert r.status == cp.UNSOLVABLE  # a stack needs 3^7 pebbles on Q_7


def test_screen_holds_no_quadratic_list_of_potentials():
    # the screen sums potentials from distance rows and the search packs only
    # the rows it uses, so a 2-node search on a long path holds O(n^2) machine
    # words at its peak (the stacking kernel's int64 arrays), not n^2 Python ints of
    # up to n bits (about 8 MB at n = 300)
    n = 300
    g = cp.path_graph(n)
    g.distances  # computed before tracing
    c = cp.Configuration([1] * (n - 2) + [3, 0])
    tracemalloc.start()
    try:
        r = cp.solve(g, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.status, r.nodes_expanded, r.fast_path) == (cp.SOLVABLE, 2, FP_SEARCH)
    assert peak < 6 * 8 * n * n, peak  # six int64 n x n arrays, 4.3 MB


@pytest.mark.parametrize("g, lam", [
    (cp.path_graph(64), 2**64 - 1),  # diameter above 60
    (cp.path_graph(200), 2**200 - 1),
    (cp.path_graph(40), 2**40 - 1),  # the pebble total times 2^diam is above 2^62
    (cp.cube_graph(3), 27),  # a small cube: every weight fits in a machine word
], ids=["P64", "P200", "P40", "Q3"])
def test_stacking_tag_at_the_cover_number_boundary(monkeypatch, g, lam):
    def refuse(*args):
        raise AssertionError("solve() recomputed a stacking weight")

    monkeypatch.setattr("coverpebbling.stacking.stacking_weight", refuse)
    n = g.vertex_count
    for t, tag in ((lam, FP_STACKING), (lam - 1, FP_SEARCH)):
        r = cp.solve(g, cp.Configuration([t] + [0] * (n - 1)), budget=0)
        assert (r.status, r.nodes_expanded, r.fast_path) == (cp.UNDECIDED, 1, tag)


def test_screen_tags_stacking_bound_exactly_from_the_cover_number():
    rng = random.Random(11)
    graphs = [cp.path_graph(57), cp.path_graph(64), cp.path_graph(130), cp.cycle_graph(9),
              cp.cube_graph(4), cp.random_tree(70, 3)]
    graphs += [random_connected_graph(rng, max_vertices=8) for _ in range(60)]
    tagged = 0
    for g in graphs:
        n = g.vertex_count
        lam = max(cp.stacking_weight(g, v) for v in range(n))
        for t in (lam - 1, lam, lam + 1, *(rng.randint(n, lam) for _ in range(3))):
            pebbles = [0] * n
            for _ in range(3):
                pebbles[rng.randrange(n)] += t // 3
            pebbles[rng.randrange(n)] += t - sum(pebbles)
            tag, status, _ = _screen(g, cp.Configuration(pebbles))
            if status is None:
                assert tag == (FP_STACKING if t >= lam else FP_SEARCH), (g, pebbles)
                tagged += 1
    assert tagged > 200
    # lambda(P_64) = 2^64 - 1 is beyond int64
    p64 = cp.path_graph(64)
    for t, tag in ((2**64 - 1, FP_STACKING), (2**64 - 2, FP_SEARCH)):
        for v in (0, 31, 63):
            pebbles = [0] * 64
            pebbles[v] = t
            assert _screen(p64, cp.Configuration(pebbles))[0] == tag


def test_a_search_that_contradicts_the_stacking_tag_raises(monkeypatch):
    # lambda(P_3) = 7, so 7 pebbles on an end is tagged stacking-bound and
    # must be solvable; a search that refutes it is caught, not reported
    monkeypatch.setattr("coverpebbling.solvability._search", lambda *args: (cp.UNSOLVABLE, None, 1))
    with pytest.raises(AssertionError, match="search contradicted the stacking-number guarantee"):
        cp.solve(cp.path_graph(3), cp.Configuration([7, 0, 0]))


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
    # a recursive oracle nests over a thousand moves here before it covers P_3
    assert cp.solve_bruteforce(cp.path_graph(3), cp.Configuration([2100, 0, 0]))
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


@pytest.mark.parametrize("moves", [[[0, 1, 3], [0, 1, 1]], [[0, 1, 1], [0, 1, 0]],
                                   [[0, 1, 0], [1, 2, 1], [0, 1, 0]]])
def test_certificate_json_rejects_a_repeated_pair(moves):
    # a repeated (i, j) is neither summed nor overwritten by the last count
    with pytest.raises(ValueError, match=r"move \(0,1\) is listed twice"):
        cp.certificate_from_dict({"moves": moves})


def test_certificate_total_moves_bound():
    # one pebble is lost per move and n must remain at the end
    rng = random.Random(31)
    for _ in range(80):
        g = random_connected_graph(rng, max_vertices=5)
        c = random_configuration(rng, g.vertex_count, max_total=10)
        r = cp.solve(g, c)
        if r.solvable and r.certificate is not None:
            assert r.certificate.total_moves <= c.total - g.vertex_count
