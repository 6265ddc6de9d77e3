"""Cover pebbling numbers via stacking weights.

The cover pebbling number of a connected graph equals the largest stacking
weight max_v sum_u 2^dist(u,v): the worst initial distribution is the whole
pile stacked on the vertex attaining the maximum.

One kernel, `power_sums(x)`, gives sum_u 2^x[v, u] exactly for every row of
a square matrix from int64 sums over runs of `bits = 62 - n.bit_length()`
exponents, with O(max x / bits) big-int operations per row instead of O(n).
On the distance matrix it gives every stacking weight; on diam - dist it
gives the solver's screen its sums sum_v 2^(diam - d(v, e)).  No sum passes
through a float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, integer_argument


@dataclass(frozen=True)
class StackingResult:
    """Cover pebbling number, a vertex attaining it, and all per-vertex weights."""

    cover_number: int
    argmax_vertex: int
    per_vertex_weights: tuple


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        u = g.components()[1][0]
        raise ValueError(f"graph is disconnected: no path between vertices 0 and {u}")


def stacking_weight(g: Graph, v: int) -> int:
    """Exact sum_u 2^dist(u,v), in unbounded integer arithmetic."""
    v = integer_argument("vertex", v)
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} is not in 0..{g.vertex_count - 1}")
    _require_connected(g)
    return sum(1 << d for d in g.distances[v].tolist())


def power_sums(x: np.ndarray) -> list:
    """Exact sum_u 2^x[v, u] for every row v, as Python ints.

    `x` must be a square int64 matrix whose entries lie in 0 .. n - 1, as
    distances and diam - distances of a connected n-vertex graph do.  That
    bound is what lets an n that fits in one run skip `x.max()`.  Row v's
    terms are grouped into runs of `bits` consecutive exponents.  A run
    holds at most n terms below 2^bits each, so its sum stays below
    n 2^bits < 2^(n.bit_length() + bits) = 2^62 and is exact in int64.  One
    `np.bincount` histogram of (v, x) counts the terms, a product with the
    powers 2^0 .. 2^(bits-1) sums each run, and the runs of a row are then
    shifted together as Python ints: O(top / bits) big-int steps per row.
    Beyond `x` this holds two int64 arrays of about n^2 entries, the
    histogram and its index.  When the largest entry fits in one run,
    `(1 << x).sum` is the same formula with no histogram; it is also the
    faster choice on the 5-8 vertex graphs the solver screens, about 3 us a
    graph against 5-7 us for the per-row Python sum over `x.tolist()`.
    """
    n = len(x)
    bits = 62 - n.bit_length()
    top = int(x.max()) if n > bits else 0  # else top < n <= bits anyway
    if top < bits:
        return (1 << x).sum(axis=1).tolist()
    runs = -(-(top + 1) // bits)
    width = runs * bits
    index = x + np.arange(0, n * width, width, dtype=np.int64)[:, None]
    hist = np.bincount(index.ravel(), minlength=n * width).reshape(n, runs, bits)
    run_sums = (hist @ (np.int64(1) << np.arange(bits, dtype=np.int64))).tolist()
    sums = []
    for row in run_sums:
        w = 0
        for s in reversed(row):
            w = (w << bits) + s
        sums.append(w)
    return sums


def stacking_weights(g: Graph) -> list:
    """Every vertex's stacking weight sum_u 2^dist(u,v), as exact Python ints."""
    _require_connected(g)
    return power_sums(g.distances)


def cover_pebbling_number(g: Graph) -> StackingResult:
    """Cover pebbling number of a connected graph, ties broken by smallest vertex."""
    if g.vertex_count < 1:
        raise ValueError("cover pebbling number needs at least one vertex")
    weights = tuple(stacking_weights(g))
    best = max(weights)
    return StackingResult(best, weights.index(best), weights)
