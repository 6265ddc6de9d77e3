"""Cover solvability: decision procedure, move certificates, and oracles.

A configuration is cover solvable when some sequence of pebbling moves
(remove two pebbles from a vertex, place one on a neighbor) ends with at
least one pebble on every vertex simultaneously.  Solvability is certified
by a matrix of per-edge move counts n_ij such that every vertex k ends with
C(k) + sum_l n_lk - 2 sum_l n_kl >= 1; checking such a certificate is linear
in the number of vertices and moves.  A checked certificate is replayed into
a legal move sequence in passes over its moves in sorted order, each move
fired as often as its source allows; no pass comes up empty, because a set
of remaining sources holding at most one pebble each would end with fewer
pebbles than vertices (see `execute_certificate`).
"""

from __future__ import annotations

import operator
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

from .graphs import Configuration, Graph, check_pairing, integer_argument
from .stacking import power_sums, stacking_weights

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

_CUT = ()  # what _search's child generator yields for a child the surplus test cuts


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
    return sum(p & 1 for p in c.pebbles) + c.total >= 2 * n


class MoveCertificate:
    """Sparse map (i, j) -> n_ij of pebbling-move counts, zero entries dropped."""

    def __init__(self, moves=None):
        cleaned = {}
        try:
            for (i, j), count in dict(moves or {}).items():
                i, j, count = operator.index(i), operator.index(j), operator.index(count)
                if count < 0:
                    raise ValueError(f"negative move count for ({i},{j})")
                if i == j:
                    raise ValueError(f"move ({i},{j}) from a vertex to itself")
                if count:
                    cleaned[(i, j)] = count
        except TypeError as exc:
            raise ValueError(f"moves must map integer pairs to integer counts: {exc}") from exc
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
    """Read {"moves": [[i, j, count], ...]}; a pair listed twice is rejected, not merged."""
    try:
        moves = {}
        for i, j, count in d["moves"]:
            if (i, j) in moves:
                raise ValueError(f"move ({i},{j}) is listed twice")
            moves[i, j] = count
        return MoveCertificate(moves)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"certificate JSON needs a 'moves' list of [i,j,count]: {exc}") from exc


def verify_certificate(g: Graph, c: Configuration, m: MoveCertificate) -> bool:
    """Linear-time certificate check: moves sit on edges and every vertex ends covered."""
    check_pairing(g, c)
    n = g.vertex_count
    incoming = [0] * n
    outgoing = [0] * n
    for (i, j), count in m.moves.items():
        if not g.has_edge(i, j):
            return False
        outgoing[i] += count
        incoming[j] += count
    return all(c[k] + incoming[k] - 2 * outgoing[k] >= 1 for k in range(n))


def execute_certificate(g: Graph, c: Configuration, m: MoveCertificate) -> list:
    """Schedule a verified certificate into a legal move sequence.

    Passes over the remaining moves in sorted (i, j) order, firing each
    min(remaining, current[i] // 2) times, until none remain; a pass that
    fires nothing raises.  That never happens to a certificate that passes
    verify_certificate.  Firing keeps every final count
    C(k) + in(k) - 2 out(k) fixed, so if every source in the set S of
    remaining sources held at most one pebble, with M >= 1 moves left, S
    would end with at most |S| + M - 2M < |S| pebbles (the M moves all
    leave S, and at most M enter it), and some vertex of S would end
    uncovered.  A pass costs one scan of the distinct remaining moves plus
    the moves it fires.  A certificate with more moves than a list can
    hold, or a move off the graph's edges, is rejected up front.
    """
    check_pairing(g, c)
    for i, j in m.moves:
        if not g.has_edge(i, j):
            raise ValueError(f"move ({i},{j}) is not along an edge")
    if m.total_moves > sys.maxsize:
        raise ValueError(f"certificate has {m.total_moves} moves, too many to list")
    remaining = sorted(m.moves.items())
    current = list(c.pebbles)
    sequence = []
    while remaining:
        left = []
        for (i, j), count in remaining:
            run = min(count, current[i] // 2)
            current[i] -= 2 * run
            current[j] += run
            sequence += [(i, j)] * run
            if run < count:
                left.append(((i, j), count - run))
        if left == remaining:  # the pass fired nothing
            raise ValueError(
                "certificate stalled with moves remaining; it does not satisfy "
                "the covering inequalities")
        remaining = left
    return sequence


def apply_moves(g: Graph, c: Configuration, seq) -> Configuration:
    """Replay single moves in order; rejects the first illegal one by index.

    Runs of equal consecutive moves are checked at once: r moves out of i
    are legal iff i holds at least 2r pebbles, and otherwise the first
    illegal one is number current[i] // 2 of the run (counting from 0), so
    the cost is linear in the sequence plus a term per run.
    """
    check_pairing(g, c)
    current = list(c.pebbles)
    idx = 0
    try:
        runs = groupby(seq)
    except TypeError:
        raise ValueError(f"moves must be an iterable, not {type(seq).__name__}") from None
    for move, group in runs:
        try:
            i, j = move
        except (TypeError, ValueError):
            raise ValueError(f"move #{idx} {move!r} is not a (source, target) pair") from None
        if not g.has_edge(i, j):
            raise ValueError(f"move #{idx} ({i}->{j}) is not along an edge")
        run = len(list(group))
        if current[i] < 2 * run:
            raise ValueError(
                f"move #{idx + current[i] // 2} ({i}->{j}) is illegal: "
                f"source holds {current[i] % 2} pebble(s)")
        current[i] -= 2 * run
        current[j] += run
        idx += run
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
    """Outcome of solve(): status, optional certificate, and search statistics.

    `nodes_expanded` counts every distinct search state tested, including
    the ones the search cuts without expanding; each state is one pebbling
    move past its parent.
    """

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
    pebble mass), the exact complete-graph criterion, and finally an
    exhaustive memoized search, one pebbling move per node.  The search has
    one cut, the exact surplus test: no cover lies below a node where sum
    over unfired or active v of (C(v) - 1) 2^-d(v, e) is negative at some
    vertex e, because no move raises that sum.  A root that fails it is
    refuted in closed form, with the node count the search would reach.
    The stacking number λ only tags a component searched at t >= λ and
    checks that search; it is read only for roots that pass the surplus
    test.  Disconnected graphs are decided per component (solvable iff every
    component is).  Every component is screened by the cheap tests before
    any component is searched; the first refuted component decides the
    answer, and no subgraph is built after it.  A search that tests more
    than `budget` distinct states (moves), cut ones included, reports
    UNDECIDED rather than guessing; each state costs one pass over the
    vertices and edges, so the budget bounds the work.  `budget` must be a
    non-negative integer; budget 0 stops at the root, after 1 node.
    """
    check_pairing(g, c)
    if g.vertex_count < 1:
        raise ValueError("solve needs a graph with at least one vertex")
    budget = integer_argument("budget", budget, 0)
    components = g.components()
    parts = []
    for comp in components:
        if len(comp) == g.vertex_count:  # connected: the graph is its own component
            sub, sub_conf = g, c
        else:
            index = {v: i for i, v in enumerate(comp)}
            sub = Graph(
                len(comp), [(index[u], index[v]) for u in comp for v in g.adjacency[u] if u < v])
            sub_conf = Configuration(c[v] for v in comp)
        outcome = _screen(sub, sub_conf)
        if isinstance(outcome, SolveResult) and outcome.status == UNSOLVABLE:
            return outcome
        parts.append((sub, sub_conf, outcome))

    merged_moves = {}
    nodes = 0
    fast_path = FP_ALL_COVERED
    for comp, (sub, sub_conf, outcome) in zip(components, parts):
        if isinstance(outcome, SolveResult):
            tag, moves = outcome.fast_path, outcome.certificate.moves
        else:
            tag, diam, surplus = outcome
            status, moves, used = _search(sub, sub_conf, budget - nodes, diam, surplus)
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

    Returns the SolveResult when they decide it, else the fast-path tag,
    the diameter and the root surplus
    S(e) = sum_v (C(v) - 1) 2^(diam - d(v, e)) that _search starts from.  The
    reach test and S read one weighted-mass vector
    mass[e] = sum_v C(v) 2^(diam - d(v, e)), built from the distance rows of
    the non-empty v: an empty e is out of reach when mass[e] < 2^diam, and
    S(e) = mass[e] - sum_v 2^(diam - d(v, e)), whose last sums the stacking
    kernel `power_sums` gives for every e at once.
    """
    n = g.vertex_count
    t = c.total
    if min(c.pebbles) >= 1:
        return SolveResult(SOLVABLE, MoveCertificate({}), 0, FP_ALL_COVERED)
    if t < n:
        return SolveResult(UNSOLVABLE, None, 0, FP_TRIVIAL_DEFICIT)
    if g.edge_count == n * (n - 1) // 2:
        if complete_graph_solvable(n, c):
            return SolveResult(SOLVABLE, _complete_graph_certificate(c), 0, FP_COMPLETE_GRAPH)
        return SolveResult(UNSOLVABLE, None, 0, FP_COMPLETE_GRAPH)
    # reject when some empty vertex is out of reach even of fractional pebble mass;
    # weighing C(v) by 2^(diam - d(v, e)) makes "weight >= 1" an exact int test against 2^diam
    dist = g.distances
    diam = int(dist.max())
    mass = [0] * n
    for v, p in enumerate(c.pebbles):
        if p:
            mass = [m + (p << diam - d) for m, d in zip(mass, dist[v].tolist())]
    if any(m < 1 << diam for m, x in zip(mass, c.pebbles) if x == 0):
        return SolveResult(UNSOLVABLE, None, 0, FP_TRIVIAL_DEFICIT)
    surplus = list(map(operator.sub, mass, power_sums(diam - dist)))  # dist is symmetric
    guaranteed = min(surplus) >= 0 and t >= max(stacking_weights(g))  # a refuted root has t < λ
    return FP_STACKING if guaranteed else FP_SEARCH, diam, surplus


def _complete_graph_certificate(c: Configuration) -> MoveCertificate:
    # on K_n every pair is an edge: each vertex with p >= 1 can spare
    # (p - 1) // 2 moves and still stay covered; route one spare move into
    # each empty vertex, taking the spares in vertex order.  _screen calls
    # this only when X + t >= 2n holds, which leaves at least one spare per
    # empty vertex, so the spares never run out.
    spares = (v for v, p in enumerate(c.pebbles) for _ in range((p - 1) // 2))
    return MoveCertificate(Counter((next(spares), e) for e, p in enumerate(c.pebbles) if not p))


def _search(g: Graph, c: Configuration, budget: int, diam: int, surplus):
    """Exhaustive search over canonical executions of acyclic move certificates.

    Any solving set of moves can be thinned to one whose directed support is
    acyclic (cancelling a move cycle only raises the final count on every
    vertex involved), and an acyclic solution can always be executed by
    firing each source vertex once, in topological order, sending pebbles
    only to not-yet-fired vertices.  One node is one move.  A state is
    (configuration, fired set, active source a, a's last target), with a in
    the fired set, and states are memoized.  A child either sends one more
    pebble from a to an unfired neighbour at or after its last target, or
    stops a and starts an unfired source with its first move.  A sender
    holds at least three pebbles, so it stays covered, and no move takes
    the total below the vertex count.  Targets rise within a source, so
    each multiset of moves out of it is tried as exactly one sequence.

    The one cut is the exact surplus test.  Let S(e) = sum over unfired or
    active v of (C(v) - 1) 2^(diam - d(v, e)).  A move a -> b changes S(e)
    by 2^(diam - d(b, e)) - 2 2^(diam - d(a, e)) <= 0, because b is a
    neighbour of a; stopping a changes it by
    -(C(a) - 1) 2^(diam - d(a, e)) <= 0.  At a cover every term is
    non-negative, so no cover lies below a node with some S(e) < 0.  An
    empty vertex e is unfired, so S(e) >= 0 implies that e is within reach
    of the live pebble mass.  A child that fails the test is counted as a
    node but not expanded, and its configuration is never built: it cannot
    be a cover.  When stopping a alone makes S negative, no new source is
    started; the root stops no source and keeps its children.

    A node's children are tried in ascending order of the key (target holds
    pebbles, starts a new source, -rank, source, target): moves into empty
    vertices first, the active source's moves before new sources', and new
    sources by rank = min((C(u) - 1) // 2, t - n, u's empty unfired
    neighbours), most first.  No two moves share a (source, target) pair,
    so the key orders them all.  On an unsolvable instance every state below a
    node that passes the cut is tested once, so the order cannot change the
    node count; on a solvable one it decides how soon a cover is found (the
    figure gadget takes 21 nodes this way and 80,680 in generation order).

    When the root has some S(e) < 0, every root child is cut and none is a
    cover, so after the root's own budget check the search returns at once:
    the root's children are the distinct moves out of vertices holding at
    least three pebbles (none when t = n), which makes 1 + the sum of those
    vertices' degrees nodes, or UNDECIDED at budget + 1 if that is more
    than the budget.

    The diameter and the root's surplus list come from _screen.  Below the
    root a node holds its whole surplus vector as one int: field e, `size`
    bytes wide, holds S(e) + half, where half = 2^(8 size - 1) > t 2^diam.
    No field leaves 0 .. 2 half - 1.  From above, S never rises above its
    root value, which is at most the root's weighted mass
    sum_v C(v) 2^(diam - d(v, e)) <= t 2^diam.  From below, a field is only
    ever tested after one step from a node that passed the test: a move
    lowers it by at most 2^(diam + 1) and a stop by at most (t - 1) 2^diam,
    so it stays above -t 2^diam.  So S(e) >= 0 exactly when the field's top
    bit is set, and a child's whole test is one add of the arc's step
    row(b) - 2 row(a) and one mask with `guard`, the top bits of every
    field; a stop subtracts (C(a) - 1) row(a).  A row, the potentials
    2^(diam - d(v, e)) of one v packed the same way from v's distance row,
    and an arc's step are packed the first time the search uses them, each
    in time linear in its bytes, so a search on a long path that tries two
    arcs packs three rows, not n.  The memo key is one int as well: the
    fired set and the move into the state in its low bits, and above them
    each count's change from the root, in fields of t.bit_length() + 1 bits
    that hold -t .. t, so a child's key is its parent's count fields plus
    one cached step per arc.  All of it is exact integer arithmetic,
    whatever the diameter or the pebble count.  The depth-first search runs
    as a loop over an explicit stack holding one child generator per node
    on the current path, so it needs no recursion.
    """
    n = g.vertex_count
    adjacency = g.adjacency
    nodes = 1  # the root
    if nodes > budget:
        return UNDECIDED, None, nodes
    if min(surplus) < 0:  # every child of the root is cut, and none is a cover
        if c.total > n:
            nodes += sum(len(adjacency[u]) for u, p in enumerate(c.pebbles) if p >= 3)
        if nodes > budget:
            return UNDECIDED, None, budget + 1
        return UNSOLVABLE, None, nodes
    size = (c.total << diam).bit_length() // 8 + 1
    half = 1 << 8 * size - 1

    def pack(values):
        return int.from_bytes(b"".join([x.to_bytes(size, "little") for x in values]), "little")

    guard = int.from_bytes(half.to_bytes(size, "little") * n, "little")
    dist = g.distances
    rows = [None] * n  # row(v) = the potentials 2^(diam - d(v, e)) packed, on first use
    # key layout from bit 0: the fired set, the move's target and source, then
    # each count's change from the root, which lies in -t .. t; as signed
    # digits of `width` bits, distinct changes still make distinct ints
    width, low = c.total.bit_length() + 1, n + 2 * n.bit_length()
    steps = {}  # (u, b) -> (count step, key step, surplus step), on first use
    visited = set()

    def row(v):
        if rows[v] is None:
            rows[v] = pack([1 << diam - d for d in dist[v].tolist()])
        return rows[v]

    def step(u, b):
        change = (1 << low + width * b) - (2 << low + width * u)
        move = (u << n.bit_length() | b) << n
        steps[u, b] = out = change, change + move, row(b) - 2 * row(u)
        return out

    def children(carr, fired, t, surplus, counts, move):
        """Unvisited children in key order; a cut child is yielded as _CUT.

        `move` is the move into the node, None at the root, and `counts` its
        key's count fields.
        """
        if t == n:
            return
        ordered = []  # (target holds pebbles, new source, -rank, source, target, S before, fired)
        stopped = surplus  # S once a stops; the root stops no source
        if move is not None:
            a, last = move
            if carr[a] >= 3:
                ordered += [(carr[b] > 0, False, 0, a, b, surplus, fired) for b in adjacency[a]
                            if b >= last and not fired >> b & 1]
            stopped = surplus - (carr[a] - 1) * (rows[a] or row(a))
        if stopped & guard == guard:  # else every new source's first move would be cut
            for u in range(n):
                cu = carr[u]
                if cu < 3 or fired >> u & 1:
                    continue
                targets = [b for b in adjacency[u] if not fired >> b & 1]
                rank = min((cu - 1) // 2, t - n, sum(1 for b in targets if not carr[b]))
                fired_u = fired | 1 << u
                ordered += [(carr[b] > 0, True, -rank, u, b, stopped, fired_u) for b in targets]
        ordered.sort()
        for _, _, _, u, b, before, fired2 in ordered:
            dcounts, dkey, dsurplus = steps.get((u, b)) or step(u, b)
            key = counts + dkey + fired2
            if key in visited:
                continue
            visited.add(key)
            s2 = before + dsurplus
            if s2 & guard != guard:
                yield _CUT
                continue
            child = list(carr)
            child[u] -= 2
            child[b] += 1
            yield (u, b), child, fired2, t - 1, s2, counts + dcounts

    # one (move into the node, generator of its children) frame per node on the path
    stack = [(None, children(list(c.pebbles), 0, c.total, pack(s + half for s in surplus),
                             0, None))]
    while stack:
        node = next(stack[-1][1], None)
        if node is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > budget:
            return UNDECIDED, None, nodes
        if node is _CUT:
            continue
        move, carr, fired, t, surplus, counts = node
        if 0 not in carr:
            return SOLVABLE, Counter([m for m, _ in stack[1:]] + [move]), nodes
        stack.append((move, children(carr, fired, t, surplus, counts, move)))
    return UNSOLVABLE, None, nodes
