"""Random pebble configurations and the exact odd-stack distribution.

Two probability models on t pebbles over n vertices:

* Maxwell-Boltzmann: pebbles are distinguishable, each lands on an
  independent uniform vertex (n^t equally likely outcomes).
* Bose-Einstein: pebbles are indistinguishable and every composition of t
  over the n vertices is equally likely, C(n+t-1, n-1) outcomes in all.
  The canonical sampler simulates a Polya urn: start with one ball per
  vertex and repeatedly draw uniformly, returning the drawn ball plus a
  copy; the draw counts are uniform over compositions.

All randomness flows through SeededStream, a (seed, stream_index) pair
keyed into a counter-based generator, so every sample is a pure function
of its stream and distinct stream indices are independent.

`mb_counts` and `be_counts` draw a block of `rows` trials from one stream,
as one (rows, t) array of picks; row r is the same draw whatever the number
of rows after it.  The single-configuration samplers are the one-row case,
keyed by (seed, index) exactly as before, so `sample_mb`, `sample_be_polya`
and `coverpebble sample` give the same configurations for the same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

import numpy as np

from .graphs import Configuration

_MASK64 = 2**64 - 1


class RandomModel(Enum):
    MAXWELL_BOLTZMANN = "mb"
    BOSE_EINSTEIN = "be"


@dataclass(frozen=True)
class SeededStream:
    """Reproducible RNG stream identified by (seed, stream_index)."""

    seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        # a uint64 array: numpy passes a Python list through float64, which
        # merges neighbouring words at and above 2^63
        key = np.array([self.seed & _MASK64, self.stream_index & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _check_n_t(n: int, t: int) -> None:
    if n < 0 or t < 0:
        raise ValueError("vertex and pebble counts must be non-negative")
    if n == 0 and t > 0:
        raise ValueError("cannot place pebbles on zero vertices")


def mb_counts(n: int, t: int, rng: np.random.Generator, rows: int = 1) -> np.ndarray:
    """Maxwell-Boltzmann counts of `rows` trials, shape (rows, n).

    Each row places t pebbles on independent uniform vertices; one bincount
    over the keys row * n + vertex counts the whole block.
    """
    picks = rng.integers(0, n, size=(rows, t))
    picks += np.arange(rows)[:, None] * n
    return np.bincount(picks.ravel(), minlength=rows * n).reshape(rows, n)


def be_counts(n: int, t: int, rng: np.random.Generator, rows: int = 1) -> np.ndarray:
    """Bose-Einstein counts of `rows` trials via Polya urn draws, shape (rows, n).

    Draw k (1-indexed) holds n + k - 1 balls, so vertex j is picked with
    probability (1 + count_j) / (n + k - 1).  Ball n + k - 1 of a row is a
    uniform pick among the balls before it: an index below n is an original
    ball, any other is a copy of the ball drawn at that earlier step.
    Pointer jumping (ref = ref[ref] until it stops changing) takes every
    ball to its original ball in O(log depth) array passes.
    """
    width = n + t
    ref = np.arange(rows * width)  # ball j of row r sits at r * width + j
    ball = np.arange(n, width)
    ref.reshape(rows, width)[:, n:] += rng.integers(0, ball, size=(rows, t)) - ball
    while True:
        jumped = ref[ref]
        if (jumped == ref).all():
            break
        ref = jumped
    # each drawn ball of row r now points at r * width + its vertex
    roots = ref.reshape(rows, width)[:, n:].ravel()
    return np.bincount(roots, minlength=rows * width).reshape(rows, width)[:, :n]


def sample_mb(n: int, t: int, s: SeededStream) -> Configuration:
    """One Maxwell-Boltzmann configuration of t pebbles on n vertices."""
    _check_n_t(n, t)
    return Configuration(mb_counts(n, t, s.generator())[0])


def sample_be_polya(n: int, t: int, s: SeededStream) -> Configuration:
    """One Bose-Einstein configuration, uniform over all C(n+t-1, t) compositions."""
    _check_n_t(n, t)
    return Configuration(be_counts(n, t, s.generator())[0])


def sample_be_stars_and_bars(n: int, t: int, s: SeededStream) -> Configuration:
    """Independent Bose-Einstein sampler used to cross-check the Polya route.

    Picks n-1 bar positions among the n+t-1 star/bar slots uniformly
    without replacement; gap sizes are the counts.
    """
    _check_n_t(n, t)
    if n == 0:
        return Configuration(())
    if n == 1:
        return Configuration((t,))
    rng = s.generator()
    bars = np.sort(rng.choice(n + t - 1, size=n - 1, replace=False))
    slots = np.concatenate(([-1], bars, [n + t - 1]))
    return Configuration(np.diff(slots) - 1)


def be_odd_stack_pmf(n: int, t: int, x: int) -> Fraction:
    """Exact P(X = x) for the number of odd stacks under Bose-Einstein.

    Zero off the support (parity mismatch or x > min(t, n)); otherwise
    C(n,x) * C((t-x)/2 + n - 1, n - 1) / C(n+t-1, n-1).
    """
    if n < 1 or t < 0 or x < 0:
        raise ValueError("need n >= 1, t >= 0, x >= 0")
    if x % 2 != t % 2 or x > min(t, n):
        return Fraction(0)
    return Fraction(
        comb(n, x) * comb((t - x) // 2 + n - 1, n - 1),
        comb(n + t - 1, n - 1),
    )


def mb_expected_odd_stacks(n: int, t: int) -> float:
    """E(X) under Maxwell-Boltzmann: (n/2) * (1 - (1 - 2/n)^t)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return (n / 2.0) * (1.0 - (1.0 - 2.0 / n) ** t)


def mb_variance_odd_stacks(n: int, t: int) -> float:
    """Var(X) under Maxwell-Boltzmann (exact second-moment formula)."""
    if n < 2:
        raise ValueError("need n >= 2")
    a = (1.0 - 2.0 / n) ** (2 * t)
    b = (1.0 - 4.0 / n) ** t
    return (n / 4.0) * (1.0 - a) + (n * (n - 1) / 4.0) * (b - a)


def be_expected_odd_stacks_exact(n: int, t: int) -> Fraction:
    """E(X) under Bose-Einstein as an exact rational, summed from the pmf."""
    if n < 1 or t < 0:
        raise ValueError("need n >= 1, t >= 0")
    return sum(
        (x * be_odd_stack_pmf(n, t, x) for x in range(t % 2, min(n, t) + 1, 2)),
        Fraction(0),
    )


def be_expected_odd_stacks_approx(n: int, t: int) -> float:
    """Leading-order E(X) under Bose-Einstein: nt / (n + 2t)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if t == 0:
        return 0.0
    return n * t / (n + 2 * t)


def mb_threshold_constant() -> float:
    """Root of A - exp(-2A)/2 = 3/2 on [1, 2]; the Maxwell-Boltzmann
    cover-solvability transition sits at t ~ A0 * n."""
    def f(a):
        return a - 0.5 * math.exp(-2.0 * a) - 1.5

    lo, hi = 1.0, 2.0
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2.0
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def be_threshold_constant() -> float:
    """The golden ratio (1 + sqrt 5)/2; the Bose-Einstein transition coefficient."""
    return (1.0 + math.sqrt(5.0)) / 2.0
