"""Cover solvability: decision procedure, move certificates, and oracles.

A configuration is cover solvable when some sequence of pebbling moves
(remove two pebbles from a vertex, place one on a neighbor) ends with at
least one pebble on every vertex simultaneously.  Solvability is certified
by a matrix of per-edge move counts n_ij such that every vertex k ends with
C(k) + sum_l n_lk - 2 sum_l n_kl >= 1; checking such a certificate is linear
in the number of edges, and a certificate can always be replayed greedily
into a legal move sequence.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graphs import Configuration, Graph, build_graph, check_pairing

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"
UNDECIDED = "undecided"

DEFAULT_NODE_BUDGET = 10_000_000

# fast-path tags reported in SolveResult
FP_COMPLETE_GRAPH = "complete-graph"
FP_STACKING = "stacking-bound"
FP_ALL_COVERED = "all-covered"
FP_TRIVIAL_DEFICIT = "trivial-deficit"
FP_SEARCH = "search"

_FP_PRECEDENCE = (FP_ALL_COVERED, FP_TRIVIAL_DEFICIT, FP_COMPLETE_GRAPH, FP_STACKING, FP_SEARCH)


@dataclass(frozen=True)
class OddStackSummary:
    """Odd/even stack counts and the pebble-count histogram of a configuration."""

    odd_count: int
    even_count: int
    total: int
    histogram: dict

    @property
    def vertex_count(self) -> int:
        return self.odd_count + self.even_count


def odd_stack_summary(c: Configuration) -> OddStackSummary:
    odd = sum(1 for p in c if p % 2 == 1)
    return OddStackSummary(
        odd_count=odd,
        even_count=len(c) - odd,
        total=c.total,
        histogram=dict(Counter(c.pebbles)),
    )


def complete_graph_solvable(n: int, c: Configuration) -> bool:
    """Exact solvability test for K_n: odd stacks plus total must reach 2n."""
    if len(c) != n:
        raise ValueError(f"configuration has {len(c)} entries, expected {n}")
    summary = odd_stack_summary(c)
    return summary.odd_count + summary.total >= 2 * n


class MoveCertificate:
    """Sparse map (i, j) -> n_ij of pebbling-move counts, zero entries dropped."""

    def __init__(self, moves=None):
        cleaned = {}
        for (i, j), count in dict(moves or {}).items():
            i, j, count = operator.index(i), operator.index(j), operator.index(count)
            if count < 0:
                raise ValueError(f"negative move count for ({i},{j})")
            if i == j:
                raise ValueError(f"move ({i},{j}) from a vertex to itself")
            if count:
                cleaned[(i, j)] = count
        self.moves = cleaned

    @property
    def total_moves(self) -> int:
        return sum(self.moves.values())

    def __eq__(self, other):
        return isinstance(other, MoveCertificate) and self.moves == other.moves

    def __repr__(self):
        return f"MoveCertificate({self.moves})"


def certificate_to_dict(m: MoveCertificate) -> dict:
    return {"moves": [[i, j, count] for (i, j), count in sorted(m.moves.items())]}


def certificate_from_dict(d: dict) -> MoveCertificate:
    try:
        triples = d["moves"]
        return MoveCertificate({(i, j): c for i, j, c in triples})
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"certificate JSON needs a 'moves' list of [i,j,count]: {exc}") from exc


def verify_certificate(g: Graph, c: Configuration, m: MoveCertificate) -> bool:
    """Linear-time certificate check: moves sit on edges and every vertex ends covered."""
    check_pairing(g, c)
    n = g.vertex_count
    edges = set(g.edges)
    incoming = [0] * n
    outgoing = [0] * n
    for (i, j), count in m.moves.items():
        if not (0 <= i < n and 0 <= j < n):
            return False
        if (min(i, j), max(i, j)) not in edges:
            return False
        outgoing[i] += count
        incoming[j] += count
    return all(c[k] + incoming[k] - 2 * outgoing[k] >= 1 for k in range(n))


def execute_certificate(g: Graph, c: Configuration, m: MoveCertificate) -> list:
    """Schedule a verified certificate into a legal move sequence.

    Greedy: repeatedly perform any remaining move whose source currently
    holds at least two pebbles.  For a certificate that passes
    verify_certificate this never stalls; a stall means the precondition
    was violated and raises.
    """
    check_pairing(g, c)
    remaining = dict(sorted(m.moves.items()))
    current = list(c.pebbles)
    sequence = []
    while remaining:
        move = next(((i, j) for (i, j) in remaining if current[i] >= 2), None)
        if move is None:
            raise ValueError(
                "certificate stalled with moves remaining; it does not satisfy "
                "the covering inequalities")
        i, j = move
        current[i] -= 2
        current[j] += 1
        sequence.append(move)
        remaining[move] -= 1
        if not remaining[move]:
            del remaining[move]
    return sequence


def apply_moves(g: Graph, c: Configuration, seq) -> Configuration:
    """Replay single moves in order; rejects the first illegal one by index."""
    check_pairing(g, c)
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
    return Configuration(current)


def solve_bruteforce(g: Graph, c: Configuration) -> bool:
    """Ground-truth oracle: exhaustive memoized search over all reachable states.

    No pruning beyond memoization; intended for graphs with at most ~6
    vertices and ~14 pebbles.
    """
    check_pairing(g, c)
    adjacency = g.adjacency
    n = g.vertex_count
    memo = {}

    def explore(state):
        if min(state, default=1) >= 1:
            return True
        cached = memo.get(state)
        if cached is not None:
            return cached
        found = False
        for a in range(n):
            if state[a] >= 2:
                for b in adjacency[a]:
                    child = list(state)
                    child[a] -= 2
                    child[b] += 1
                    if explore(tuple(child)):
                        found = True
                        break
            if found:
                break
        memo[state] = found
        return found

    return explore(c.pebbles)


@dataclass
class SolveResult:
    """Outcome of solve(): status, optional certificate, and search statistics."""

    status: str
    certificate: MoveCertificate | None
    nodes_expanded: int
    fast_path: str

    @property
    def solvable(self) -> bool:
        if self.status == UNDECIDED:
            raise ValueError("search budget exhausted; no boolean answer available")
        return self.status == SOLVABLE

    @property
    def undecided(self) -> bool:
        return self.status == UNDECIDED


def solve(g: Graph, c: Configuration, budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Decide cover solvability exactly, with a certificate when solvable.

    Pipeline: trivial accepts (everything covered), trivial rejects (total
    below the vertex count, or some vertex out of reach of the weighted
    pebble mass), the exact complete-graph criterion, the stacking-number
    guarantee, and finally an exhaustive memoized search.  Disconnected
    graphs are decided per component (solvable iff every component is).
    A search exceeding `budget` node expansions reports UNDECIDED rather
    than guessing.
    """
    check_pairing(g, c)
    if g.vertex_count < 1:
        raise ValueError("solve needs a graph with at least one vertex")
    components = g.components()
    if len(components) == 1:
        return _solve_connected(g, c, budget)

    merged_moves = {}
    nodes_total = 0
    fast_path = FP_ALL_COVERED
    statuses = []
    remaining = budget
    for comp in components:
        index = {v: i for i, v in enumerate(comp)}
        members = set(comp)
        sub = build_graph(
            len(comp),
            [(index[u], index[v]) for u, v in g.edges if u in members and v in members],
        )
        sub_conf = Configuration(c[v] for v in comp)
        result = _solve_connected(sub, sub_conf, remaining)
        nodes_total += result.nodes_expanded
        remaining = max(0, remaining - result.nodes_expanded)
        statuses.append(result.status)
        if _FP_PRECEDENCE.index(result.fast_path) > _FP_PRECEDENCE.index(fast_path):
            fast_path = result.fast_path
        if result.status == SOLVABLE:
            for (i, j), count in result.certificate.moves.items():
                merged_moves[(comp[i], comp[j])] = count
    if UNSOLVABLE in statuses:
        return SolveResult(UNSOLVABLE, None, nodes_total, fast_path)
    if UNDECIDED in statuses:
        return SolveResult(UNDECIDED, None, nodes_total, fast_path)
    return SolveResult(SOLVABLE, MoveCertificate(merged_moves), nodes_total, fast_path)


def _solve_connected(g: Graph, c: Configuration, budget: int) -> SolveResult:
    n = g.vertex_count
    t = c.total
    if min(c.pebbles) >= 1:
        return SolveResult(SOLVABLE, MoveCertificate({}), 0, FP_ALL_COVERED)
    if t < n:
        return SolveResult(UNSOLVABLE, None, 0, FP_TRIVIAL_DEFICIT)
    if all(len(a) == n - 1 for a in g.adjacency):
        if complete_graph_solvable(n, c):
            return SolveResult(SOLVABLE, _complete_graph_certificate(c), 0, FP_COMPLETE_GRAPH)
        return SolveResult(UNSOLVABLE, None, 0, FP_COMPLETE_GRAPH)
    # reject when some empty vertex is out of reach even of fractional pebble mass
    pot, thresh = _scaled_potentials(g, t)
    carr = np.array(c.pebbles, dtype=pot.dtype)
    weights = carr @ pot
    if ((carr == 0) & (weights < thresh)).any():
        return SolveResult(UNSOLVABLE, None, 0, FP_TRIVIAL_DEFICIT)
    # thresh // pot is 2^dist, so its largest row sum is the cover pebbling
    # number (the largest stacking weight); below n << diam <= t << diam on int64
    fast_path = FP_STACKING if t >= (thresh // pot).sum(axis=1).max() else FP_SEARCH
    status, moves, nodes = _search(g, c, budget, pot, thresh, weights)
    if fast_path == FP_STACKING and status == UNSOLVABLE:
        raise AssertionError("search contradicted the stacking-number guarantee")
    certificate = MoveCertificate(moves) if status == SOLVABLE else None
    return SolveResult(status, certificate, nodes, fast_path)


def _complete_graph_certificate(c: Configuration) -> MoveCertificate:
    # on K_n every pair is an edge: each vertex with p >= 1 can spare
    # (p - 1) // 2 moves and still stay covered; route one spare move into
    # each empty vertex.
    donors = [[v, (p - 1) // 2] for v, p in enumerate(c.pebbles) if p >= 1]
    donors = [d for d in donors if d[1] > 0]
    moves = {}
    cursor = 0
    for target, p in enumerate(c.pebbles):
        if p:
            continue
        while donors[cursor][1] == 0:
            cursor += 1
        moves[(donors[cursor][0], target)] = moves.get((donors[cursor][0], target), 0) + 1
        donors[cursor][1] -= 1
    return MoveCertificate(moves)


def _scaled_potentials(g: Graph, total: int):
    # pot[u][v] = 2^(diam - d(u,v)) so that "weight(v) >= 1" becomes an exact
    # integer comparison against 2^diam; int64 whenever no weight of `total`
    # pebbles can overflow, and the caller's pebble counts take the same dtype
    dist = g.distances
    diam = int(dist.max())
    if diam <= 60 and total << diam < 2**62:
        pot = np.left_shift(np.int64(1), diam - dist)
    else:
        pot = np.array([[1 << (diam - d) for d in row] for row in dist.tolist()], dtype=object)
    return pot, 1 << diam


def _compositions(k: int, bins: int):
    """Ordered splits of k into `bins` non-negative parts."""
    if bins == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, bins - 1):
            yield (first,) + rest


def _search(g: Graph, c: Configuration, budget: int, pot, thresh, weights):
    """Exhaustive search over canonical executions of acyclic move certificates.

    Any solving set of moves can be thinned to one whose directed support is
    acyclic (cancelling a move cycle only raises the final count on every
    vertex involved), and an acyclic solution can always be executed by
    firing each source vertex exactly once, in topological order, sending
    pebbles only to not-yet-fired vertices.  The search therefore branches
    on (source vertex, outgoing move multiset) pairs and memoizes on the
    pair (configuration, fired set).  Pruning: a child is cut when its
    total drops below the vertex count, or when some empty vertex exceeds
    the reach of the weighted mass 2^-dist of still-unfired vertices.

    `pot`, `thresh` and `weights` are the scaled potentials, the cover
    threshold and the root's weight vector from _solve_connected.  The
    depth-first search runs as a loop over an explicit stack holding one
    child generator per node on the current path, so it needs no recursion.
    """
    n = g.vertex_count
    adjacency = g.adjacency
    pot_rows = [pot[u] for u in range(n)]
    key_of = bytes if c.total < 256 else tuple

    comp_cache = {}

    def splits(k, bins):
        cached = comp_cache.get((k, bins))
        if cached is None:
            cached = tuple(_compositions(k, bins))
            comp_cache[(k, bins)] = cached
        return cached

    visited = set()

    def children(carr, fired, t, weights, empties):
        """Unvisited, unpruned children in rank order, with their empty vertices."""
        # rank branches: cover deficits first, then best leverage toward one
        reach = pot[:, empties].max(axis=1).tolist()
        candidates = []
        targets_of = {}
        waste = t - n
        for u in range(n):
            cu = carr[u]
            if cu < 3 or fired >> u & 1:
                continue
            targets = [b for b in adjacency[u] if not fired >> b & 1]
            if not targets:
                continue
            targets_of[u] = targets
            kmax = (cu - 1) // 2
            if kmax > waste:
                kmax = waste
            is_empty = [carr[b] == 0 for b in targets]
            gains = [reach[b] for b in targets]
            for k in range(1, kmax + 1):
                for vec in splits(k, len(targets)):
                    covered = 0
                    gain = 0
                    for m, empty, unit in zip(vec, is_empty, gains):
                        if m:
                            gain += m * unit
                            if empty:
                                covered += 1
                    candidates.append((-covered, -gain, k, u, vec))
        candidates.sort()
        for _, _, k, u, vec in candidates:
            targets = targets_of[u]
            child = list(carr)
            child[u] -= 2 * k
            for b, m in zip(targets, vec):
                if m:
                    child[b] += m
            fired2 = fired | 1 << u
            key = (key_of(child), fired2)
            if key in visited:
                continue
            visited.add(key)
            w2 = weights - carr[u] * pot_rows[u]
            for b, m in zip(targets, vec):
                if m:
                    w2 += m * pot_rows[b]
            for e in empties:
                if child[e] == 0 and w2[e] < thresh:
                    break
            else:
                # a firing leaves its source covered, so only old empties can stay empty
                left = [e for e in empties if child[e] == 0]
                yield (u, targets, vec), child, fired2, t - k, w2, left

    nodes = 1  # the root
    if nodes > budget:
        return UNDECIDED, None, nodes
    root_empties = [v for v, x in enumerate(c.pebbles) if x == 0]
    # one (move into the node, generator of its children) frame per node on the path
    stack = [(None, children(list(c.pebbles), 0, c.total, weights, root_empties))]
    while stack:
        node = next(stack[-1][1], None)
        if node is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > budget:
            return UNDECIDED, None, nodes
        move, carr, fired, t, w, empties = node
        if not empties:
            # each vertex fires at most once on a path, so every (u, b) occurs once
            path = [m for m, _ in stack[1:]] + [move]
            moves = {(u, b): m for u, targets, vec in path for b, m in zip(targets, vec) if m}
            return SOLVABLE, moves, nodes
        stack.append((move, children(carr, fired, t, w, empties)))
    return UNSOLVABLE, None, nodes
