"""Exact-cover-by-4-sets instances and their cover-pebbling gadget graphs.

The translation maps a ground set of size 4n and m four-element subsets to
a graph whose configuration is cover solvable exactly when n disjoint
subsets partition the ground set: element vertices T (empty), one
nine-pebble vertex per subset in B, buffer layers B' and B'' holding one
pebble each, a collector v with 2^(m-n) - (m-n) + 1 pebbles, and a drain
path of length m-n from v to an empty terminal w with one pebble on each
interior vertex.  Covering T spends eight pebbles of a chosen subset
vertex on its four elements; every unused subset vertex can push exactly
one pebble to v at cost eight, and only a full group of eight survives the
three-edge trip, which is what forces exactness.

An X4CInstance is checked once, when it is made, so the functions here take
it as valid.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations

from .graphs import Configuration, Graph, integer_argument
from .solvability import (
    DEFAULT_NODE_BUDGET,
    SOLVABLE,
    MoveCertificate,
    solve,
    verify_certificate,
)


@dataclass(frozen=True)
class X4CInstance:
    """Ground set {0, ..., ground_set_size-1} and a family of 4-element subsets;
    an invalid instance raises ValueError listing every violation."""

    ground_set_size: int
    sets: tuple

    def __init__(self, ground_set_size, sets):
        size = integer_argument("ground_set_size", ground_set_size)
        try:
            sets = tuple(tuple(sorted(map(operator.index, s))) for s in sets)
        except TypeError as exc:
            raise ValueError(f"sets must hold integers: {exc}") from exc
        errors = []
        if size <= 0 or size % 4 != 0:
            errors.append(f"ground set size {size} is not a positive multiple of 4")
        for idx, s in enumerate(sets):
            if len(set(s)) != 4:
                errors.append(f"set #{idx} {s} does not have exactly 4 distinct elements")
            for e in s:
                if not 0 <= e < size:
                    errors.append(f"set #{idx} element {e} outside the ground set")
        if len(sets) < size // 4:
            errors.append(f"need at least {size // 4} sets, got {len(sets)}")
        if errors:
            raise ValueError("invalid instance: " + "; ".join(errors))
        object.__setattr__(self, "ground_set_size", size)
        object.__setattr__(self, "sets", sets)

    @property
    def n(self) -> int:
        return self.ground_set_size // 4

    @property
    def m(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class ReductionOutput:
    """Gadget graph, its pebble configuration, and vertex role labels."""

    graph: Graph
    config: Configuration
    labels: dict


def _layout(x: X4CInstance):
    """Bases of B, B' and B'' and the drain path v, u1, ..., w as a range.

    T takes vertices 0..4n-1; B, B' and B'' follow with m vertices each, and
    the drain path of length m-n closes the numbering.
    """
    n, m = x.n, x.m
    if m <= n:
        raise ValueError(f"reduction needs m > n subsets, got m={m}, n={n}")
    b = 4 * n
    v = b + 3 * m
    return b, b + m, b + 2 * m, range(v, v + m - n + 1)


def build_reduction(x: X4CInstance) -> ReductionOutput:
    """Literal gadget construction; 3n + 4m + 1 vertices and 8m - n edges.

    Rejects m == n: the drain path would have length zero, identifying v
    and w with contradictory pebble assignments.
    """
    b_base, b1_base, b2_base, drain = _layout(x)
    m, span = x.m, len(drain) - 1
    v_vertex = drain[0]

    edges = []
    for i, subset in enumerate(x.sets):
        for element in subset:
            edges.append((b_base + i, element))
        edges.append((b_base + i, b1_base + i))
        edges.append((b1_base + i, b2_base + i))
        edges.append((b2_base + i, v_vertex))
    edges.extend(zip(drain, drain[1:]))
    graph = Graph(drain[-1] + 1, edges)

    pebbles = [0] * graph.vertex_count
    for i in range(m):
        pebbles[b_base + i] = 9
        pebbles[b1_base + i] = 1
        pebbles[b2_base + i] = 1
    pebbles[v_vertex] = 2**span - span + 1
    for u in drain[1:-1]:
        pebbles[u] = 1

    labels = {j: f"T{j}" for j in range(b_base)}
    for i in range(m):
        labels[b_base + i] = f"B{i}"
        labels[b1_base + i] = f"B'{i}"
        labels[b2_base + i] = f"B''{i}"
    labels[v_vertex] = "v"
    for k, u in enumerate(drain[1:-1], 1):
        labels[u] = f"u{k}"
    labels[drain[-1]] = "w"
    return ReductionOutput(graph, Configuration(pebbles), labels)


def exact_cover_bruteforce(x: X4CInstance):
    """Exhaustive witness search: n set indices partitioning S, or None."""
    full = x.ground_set_size
    for indices in combinations(range(x.m), x.n):
        union = set()
        for i in indices:
            union.update(x.sets[i])
        if len(union) == full:
            return list(indices)
    return None


def cover_witness_certificate(x: X4CInstance, cover) -> MoveCertificate:
    """The explicit solving strategy once a perfect cover is known.

    Cover subsets spend eight pebbles covering their elements; each unused
    subset vertex relays one pebble to the collector through its buffer
    chain; the collector halves its pile down the drain path.  `cover` must
    be n distinct set indices whose sets partition the ground set.
    """
    b_base, b1_base, b2_base, drain = _layout(x)
    span = len(drain) - 1
    try:
        cover = [integer_argument("cover index", i) for i in cover]
    except TypeError:
        raise ValueError(f"cover must be an iterable, not {type(cover).__name__}") from None
    # n sets of four distinct elements partition 0..4n-1 exactly when their
    # elements, sorted, are 0..4n-1; a repeated index repeats its elements
    elements = sorted(e for i in cover if 0 <= i < x.m for e in x.sets[i])
    if len(cover) != x.n or elements != list(range(x.ground_set_size)):
        raise ValueError(f"cover {cover} is not {x.n} set indices whose sets partition "
                         f"the ground set")
    cover = set(cover)

    moves = {}
    for i, subset in enumerate(x.sets):
        if i in cover:
            for element in subset:
                moves[(b_base + i, element)] = 1
        else:
            moves[(b_base + i, b1_base + i)] = 4
            moves[(b1_base + i, b2_base + i)] = 2
            moves[(b2_base + i, drain[0])] = 1
    for k, (a, b) in enumerate(zip(drain, drain[1:])):
        moves[(a, b)] = 2 ** (span - 1 - k)
    return MoveCertificate(moves)


@dataclass(frozen=True)
class EquivalenceReport:
    """Side-by-side verdicts of the exact-cover oracle and the pebbling solver."""

    cover_exists: bool
    cover_witness: list | None
    pebbling_status: str
    pebbling_certificate: MoveCertificate | None
    agree: bool | None  # None when the pebbling side ran out of budget


def reduction_equivalence_check(
    x: X4CInstance, budget: int = DEFAULT_NODE_BUDGET
) -> EquivalenceReport:
    """Run both sides of the reduction and compare.

    Positive instances bypass search: the explicit witness certificate is
    built and verified.  Negative instances go through the general solver
    under the given node budget; an undecided outcome is reported as such,
    never as a disagreement.
    """
    budget = integer_argument("budget", budget, 0)
    built = build_reduction(x)
    witness = exact_cover_bruteforce(x)
    if witness is not None:
        certificate = cover_witness_certificate(x, witness)
        if not verify_certificate(built.graph, built.config, certificate):
            raise AssertionError("witness certificate failed verification")
        return EquivalenceReport(True, witness, SOLVABLE, certificate, True)
    result = solve(built.graph, built.config, budget)
    agree = None if result.undecided else (not result.solvable)
    return EquivalenceReport(False, None, result.status, result.certificate, agree)


def instance_to_dict(x: X4CInstance) -> dict:
    return {"ground_set_size": x.ground_set_size, "sets": [list(s) for s in x.sets]}


def instance_from_dict(d: dict) -> X4CInstance:
    try:
        ground_set_size, sets = d["ground_set_size"], d["sets"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"instance JSON needs 'ground_set_size' and 'sets': {exc}") from exc
    return X4CInstance(ground_set_size, sets)
