"""Shared helpers for randomized tests."""

import random

import numpy as np

import coverpebbling as cp


def random_connected_graph(rng: random.Random, max_vertices: int = 5) -> cp.Graph:
    """Random tree plus a few extra edges, so connectivity is guaranteed."""
    n = rng.randint(1, max_vertices)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randint(0, v - 1), v))
    for _ in range(rng.randint(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return cp.Graph(n, edges)


def random_configuration(rng: random.Random, n: int, max_total: int = 10) -> cp.Configuration:
    counts = [0] * n
    for _ in range(rng.randint(0, max_total)):
        counts[rng.randrange(n)] += 1
    return cp.Configuration(counts)


def compositions(total: int, parts: int):
    """All ordered splits of `total` into `parts` non-negative integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def descending_part_vectors(max_total: int):
    """Non-increasing positive integer vectors with sum at most max_total."""
    def extend(prefix, remaining, cap):
        if prefix:
            yield tuple(prefix)
        for r in range(min(cap, remaining), 0, -1):
            yield from extend(prefix + [r], remaining - r, r)

    yield from extend([], max_total, max_total)


# the exact-cover instances of the paper's figure (coverable) and of the
# acceptance criteria (no exact cover)
FIGURE_SETS = [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7]]
NO_COVER_SETS = [[0, 1, 2, 3], [3, 4, 5, 6], [0, 5, 6, 7]]


def thinned_gadget_configuration(built) -> cp.Configuration:
    """The gadget's configuration with 6 pebbles, not 9, on every subset vertex."""
    return cp.Configuration(6 if name[0] == "B" and name[1:].isdigit() else built.config[v]
                            for v, name in sorted(built.labels.items()))


def coverable_instance(rng: random.Random, span: int) -> cp.X4CInstance:
    """Ground set of 8 with a planted exact cover and `span` further random 4-sets."""
    perm = list(range(8))
    rng.shuffle(perm)
    sets = [perm[:4], perm[4:]] + [rng.sample(range(8), 4) for _ in range(span)]
    rng.shuffle(sets)
    return cp.X4CInstance(8, sets)


def urn_counts(n: int, picks) -> np.ndarray:
    """The Polya urn ball by ball: draw k copies ball picks[k], an original below n."""
    balls = []
    for idx in picks:
        balls.append(idx if idx < n else balls[idx - n])
    return np.bincount(np.asarray(balls, dtype=np.int64), minlength=n)
