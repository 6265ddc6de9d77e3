"""Exact counts of the work the package does, taken inside the package.

While `counting()` is open, a few of the package's inner functions are
replaced by wrappers that tally each call, so the counts follow what the
package actually runs: the subgraphs solve() builds for the components of
a disconnected graph count, and a function the package stops calling
stops counting.  A function that no longer exists counts 0, with a warning.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager

from coverpebbling import graphs, stacking, thresholds


def _distances(counts, args, dist):
    counts["graphs.dist_pairs"] += dist.size
    counts["graphs.dist_bytes_computed"] += dist.nbytes


def _weight_terms(counts, args, weight):
    counts["stacking.weight_terms"] += args[0].vertex_count  # one term per vertex


def _draw(counts, args, pebbles):
    counts["sampling.draws"] += 1  # one configuration of one sweep trial


# module, function, tally(counts, args, return value)
SHIMS = (
    (graphs, "_bfs_all_pairs", _distances),
    (stacking, "stacking_weight", _weight_terms),
    (thresholds, "mb_counts", _draw),
    (thresholds, "be_counts", _draw),
)


def _wrap(fn, tally, counts):
    def wrapper(*args, **kwargs):
        value = fn(*args, **kwargs)
        tally(counts, args, value)
        return value

    return wrapper


@contextmanager
def counting():
    """Yield a Counter that tallies the package's work until the block ends."""
    counts = Counter()
    saved = []
    try:
        for module, name, tally in SHIMS:
            fn = getattr(module, name, None)
            if fn is None:
                print(f"warning: {module.__name__}.{name} is gone; its counts read 0",
                      file=sys.stderr)
                continue
            saved.append((module, name, fn))
            setattr(module, name, _wrap(fn, tally, counts))
        yield counts
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
