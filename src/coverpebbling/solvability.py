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
    """Ground-truth oracle: is a covered state reachable by single moves at all?

    Exhaustive search over the reachable states, each expanded once, with no
    pruning; intended for graphs with at most ~6 vertices and ~14 pebbles.
    It runs over an explicit stack, so deep move chains need no recursion.
    """
    check_pairing(g, c)
    adjacency = g.adjacency
    seen = {c.pebbles}
    stack = [c.pebbles]
    while stack:
        state = stack.pop()
        if min(state, default=1) >= 1:
            return True
        for a, neighbours in enumerate(adjacency):
            if state[a] >= 2:
                for b in neighbours:
                    child = list(state)
                    child[a] -= 2
                    child[b] += 1
                    child = tuple(child)
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
    return False


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
    Every component is screened by the cheap tests before any component is
    searched, and the first refuted component decides the answer.
    A search exceeding `budget` node expansions reports UNDECIDED rather
    than guessing.
    """
    check_pairing(g, c)
    if g.vertex_count < 1:
        raise ValueError("solve needs a graph with at least one vertex")
    components = g.components()
    if len(components) == 1:
        parts = [(g, c)]
    else:
        parts = []
        for comp in components:
            index = {v: i for i, v in enumerate(comp)}
            members = set(comp)
            sub = build_graph(
                len(comp),
                [(index[u], index[v]) for u, v in g.edges if u in members and v in members],
            )
            parts.append((sub, Configuration(c[v] for v in comp)))

    screened = []
    for sub, sub_conf in parts:
        outcome = _screen(sub, sub_conf)
        if isinstance(outcome, SolveResult) and outcome.status == UNSOLVABLE:
            return outcome
        screened.append(outcome)

    merged_moves = {}
    nodes = 0
    fast_path = FP_ALL_COVERED
    for comp, (sub, sub_conf), outcome in zip(components, parts, screened):
        if isinstance(outcome, SolveResult):
            tag, moves = outcome.fast_path, outcome.certificate.moves
        else:
            tag, *start = outcome
            status, moves, used = _search(sub, sub_conf, budget - nodes, *start)
            nodes += used
            if tag == FP_STACKING and status == UNSOLVABLE:
                raise AssertionError("search contradicted the stacking-number guarantee")
            if status != SOLVABLE:
                return SolveResult(status, None, nodes, tag)
        fast_path = max(fast_path, tag, key=_FP_PRECEDENCE.index)
        merged_moves.update(((comp[i], comp[j]), m) for (i, j), m in moves.items())
    return SolveResult(SOLVABLE, MoveCertificate(merged_moves), nodes, fast_path)


def _screen(g: Graph, c: Configuration):
    """The cheap tests on one connected component.

    Returns the SolveResult when they decide it, else the fast-path tag and
    the potentials _search starts from.
    """
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
    # reject when some empty vertex is out of reach even of fractional pebble mass;
    # pot[u][v] = 2^(diam - d(u,v)) makes "weight >= 1" an exact int test against 2^diam
    dist = g.distances.tolist()
    diam = max(map(max, dist))
    thresh = 1 << diam
    pot = [[1 << (diam - d) for d in row] for row in dist]
    empties = [v for v, x in enumerate(c.pebbles) if x == 0]
    weights = [sum(map(operator.mul, c.pebbles, pot[e])) for e in empties]  # pot is symmetric
    if min(weights) < thresh:
        return SolveResult(UNSOLVABLE, None, 0, FP_TRIVIAL_DEFICIT)
    # the cover pebbling number is the largest stacking weight sum_v 2^d(u,v)
    lam = max(sum(1 << d for d in row) for row in dist)
    return FP_STACKING if t >= lam else FP_SEARCH, pot, thresh, empties, weights


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


def _compositions(k: int, bins: int):
    """Ordered splits of k into `bins` non-negative parts."""
    if bins == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, bins - 1):
            yield (first,) + rest


def _search(g: Graph, c: Configuration, budget: int, pot, thresh, empties, weights):
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

    Children are tried in order of how many still-empty vertices the firing
    covers, most first; ties keep generation order (source u ascending, then
    the move count k, then the composition).  On an unsolvable instance the
    search visits every reachable, unpruned state once, so the order cannot
    change its node count; on a solvable one it decides how soon a cover is
    found (the figure gadget takes 69 nodes this way and about two million
    in plain generation order).

    `pot` (2^(diam - dist), Python ints) and `thresh` (2^diam) come from
    _screen; `weights[i]` is the pebble mass sum_u C(u) pot[u][e] at
    the i-th vertex e of `empties`, kept only at a node's own empty vertices.
    The depth-first search runs as a loop over an explicit stack holding one
    child generator per node on the current path, so it needs no recursion.
    """
    n = g.vertex_count
    adjacency = g.adjacency
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
        candidates = []
        waste = t - n
        for u in range(n):
            cu = carr[u]
            if cu < 3 or fired >> u & 1:
                continue
            targets = [b for b in adjacency[u] if not fired >> b & 1]
            if not targets:
                continue
            kmax = (cu - 1) // 2
            if kmax > waste:
                kmax = waste
            is_empty = [carr[b] == 0 for b in targets]
            for k in range(1, kmax + 1):
                for vec in splits(k, len(targets)):
                    covered = sum(1 for m, empty in zip(vec, is_empty) if m and empty)
                    candidates.append((covered, u, targets, k, vec))
        candidates.sort(key=operator.itemgetter(0), reverse=True)
        for _, u, targets, k, vec in candidates:
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
            # the fired source's mass leaves; a firing leaves it covered, so
            # only old empties can stay empty
            moved = [(pot[u], -carr[u])] + [(pot[b], m) for b, m in zip(targets, vec) if m]
            left = []
            w2 = []
            for e, w in zip(empties, weights):
                if child[e]:
                    continue
                for row, m in moved:
                    w += m * row[e]
                if w < thresh:
                    break
                left.append(e)
                w2.append(w)
            else:
                yield (u, targets, vec), child, fired2, t - k, w2, left

    nodes = 1  # the root
    if nodes > budget:
        return UNDECIDED, None, nodes
    # one (move into the node, generator of its children) frame per node on the path
    stack = [(None, children(list(c.pebbles), 0, c.total, weights, empties))]
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
