"""Cover pebbling numbers via stacking weights.

The cover pebbling number of a connected graph equals the largest stacking
weight max_v sum_u 2^dist(u,v): the worst initial distribution is the whole
pile stacked on the vertex attaining the maximum.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .graphs import UNREACHABLE, Graph


@dataclass(frozen=True)
class StackingResult:
    """Cover pebbling number, a vertex attaining it, and all per-vertex weights."""

    cover_number: int
    argmax_vertex: int
    per_vertex_weights: tuple


def stacking_weight(g: Graph, v: int) -> int:
    """Exact sum_u 2^dist(u,v), in unbounded integer arithmetic."""
    try:
        v = operator.index(v)
    except TypeError:
        raise ValueError(f"vertex must be an integer, not {type(v).__name__}") from None
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} is not in 0..{g.vertex_count - 1}")
    if not g.is_connected():
        u = g.distances[0].tolist().index(UNREACHABLE)
        raise ValueError(f"graph is disconnected: no path between vertices 0 and {u}")
    return sum(1 << d for d in g.distances[v].tolist())


def cover_pebbling_number(g: Graph) -> StackingResult:
    """Cover pebbling number of a connected graph, ties broken by smallest vertex."""
    if g.vertex_count < 1:
        raise ValueError("cover pebbling number needs at least one vertex")
    weights = tuple(stacking_weight(g, v) for v in range(g.vertex_count))
    best = max(weights)
    return StackingResult(best, weights.index(best), weights)

