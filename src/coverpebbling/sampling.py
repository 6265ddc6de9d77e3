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
keyed into a Philox counter-based generator, so every sample is a pure
function of its stream and distinct stream indices are independent.

The single-configuration samplers (`sample_mb`, `sample_be_polya`,
`coverpebble sample`) make one `rng.integers` call on a generator built for
their stream and resolve it in Python lists, which is the cheapest route
for one configuration.

`mb_counts` and `be_counts` draw a block of `rows` trials from one stream,
as one (rows, t) array of picks; row r is the same draw whatever the number
of rows after it, and it is the draw the single-configuration sampler makes
from the same stream.  The picks come from `_integers`, which returns
exactly `rng.integers(0, bounds, (rows, t))` but reads Philox's raw 64-bit
words in one call and applies Lemire's exact 32-bit multiply-and-reject
method (the one numpy uses) to the whole block at once.  It expects a
fresh generator, with no half-word buffered, and leaves it spent.  A sweep
re-keys one generator per block (`rekey`) instead of building a new one.
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
# the largest bound `_integers` draws below: numpy's 32-bit Lemire path
MAX_BOUND = 2**32 - 1


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


def rekey(rng: np.random.Generator, seed: int, stream_index: int) -> None:
    """Put rng's Philox into the fresh state of SeededStream(seed, stream_index).

    Counter 0, the key (seed, stream_index) in 64-bit words, nothing
    buffered: the state `SeededStream(seed, stream_index).generator()`
    starts in, without building a generator or drawing OS entropy.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & _MASK64, stream_index & _MASK64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _check_n_t(n: int, t: int) -> None:
    if n < 0 or t < 0:
        raise ValueError("vertex and pebble counts must be non-negative")
    if n == 0 and t > 0:
        raise ValueError("cannot place pebbles on zero vertices")


def _halves(rng: np.random.Generator, words: int) -> np.ndarray:
    """`words` raw Philox words as uint32 in next_uint32 order: low half, then high."""
    return rng.bit_generator.random_raw(words).astype("<u8", copy=False).view("<u4")


def _integers(rng: np.random.Generator, bounds, shape: tuple) -> np.ndarray:
    """Exactly `rng.integers(0, bounds, shape)` for a fresh Philox generator.

    `shape` is (rows, t) and `bounds` is a scalar or a length-t vector, every
    bound in 1..MAX_BOUND.  numpy draws each value below a bound b >= 2 from
    one uint32 word w by Lemire's method: m = w * b in 64 bits gives w * b >> 32,
    unless the low half of m lies below 2^32 mod b; then the word is rejected
    and the draw takes the next one, shifting every later draw by a word.  A
    bound of 1 gives 0 and takes no word.  Here the words of the whole block
    come from one random_raw call, and the rare rejections (about 1 % of
    19,500-draw blocks at n = 1000) are replayed in flat order.

    rng must be fresh, with no half-word buffered (a new generator or one
    just re-keyed); it is left spent, its state not the one numpy leaves.
    """
    bounds = np.asarray(bounds)
    size = shape[0] * shape[1]
    if size and not (bounds.min() >= 1 and bounds.max() <= MAX_BOUND):
        raise ValueError(f"draw bounds must lie in 1..{MAX_BOUND}")
    bounds = bounds.astype(np.uint32)
    live = bounds > 1
    if not live.all():
        picks = np.zeros(shape, dtype=np.int64)
        if bounds.ndim and live.any():
            picks[:, live] = _integers(rng, bounds[live], (shape[0], int(live.sum())))
        return picks
    halves = _halves(rng, -(-size // 2))
    # widen the words before the multiply: a uint32 product would wrap, and under
    # numpy 1.22's value-based casting even a uint64 scalar bound keeps it uint32
    m = halves[:size].astype(np.uint64).reshape(shape)
    m *= bounds
    # 2^32 mod b < b, so a block whose low halves all reach their bound has no rejection
    if (m.astype(np.uint32) < bounds).any():
        flat = m.reshape(-1)
        bounds = np.broadcast_to(bounds, shape).ravel().astype(np.uint64)
        reject_below = 2**32 % bounds
        start, shift = 0, 0
        while True:
            rejected = np.flatnonzero(flat[start:].astype(np.uint32) < reject_below[start:])
            if not rejected.size:
                break
            start += int(rejected[0])
            shift += 1
            if halves.size < size + shift:
                halves = np.concatenate((halves, _halves(rng, 1)))
            flat[start:] = halves[start + shift:size + shift] * bounds[start:]
    m >>= np.uint64(32)
    return m.view(np.int64)


def mb_counts(n: int, t: int, rng: np.random.Generator, rows: int = 1) -> np.ndarray:
    """Maxwell-Boltzmann counts of `rows` trials, shape (rows, n).

    Each row places t pebbles on independent uniform vertices; one bincount
    over the keys row * n + vertex counts the whole block.  rng must be fresh
    and is left spent (see `_integers`).
    """
    picks = _integers(rng, n, (rows, t))
    picks += np.arange(rows)[:, None] * n
    return np.bincount(picks.ravel(), minlength=rows * n).reshape(rows, n)


def be_counts(n: int, t: int, rng: np.random.Generator, rows: int = 1) -> np.ndarray:
    """Bose-Einstein counts of `rows` trials via Polya urn draws, shape (rows, n).

    Draw k (1-indexed) holds n + k - 1 balls, so vertex j is picked with
    probability (1 + count_j) / (n + k - 1).  Ball n + k - 1 of a row is a
    uniform pick among the balls before it: an index below n is an original
    ball, any other is a copy of the ball drawn at that earlier step.
    Pointer jumping (ref = ref[ref] until it stops changing) takes every
    ball to its original ball in O(log depth) array passes.  rng must be
    fresh and is left spent (see `_integers`).
    """
    width = n + t
    ref = np.arange(rows * width)  # ball j of row r sits at r * width + j
    ball = np.arange(n, width)
    picks = _integers(rng, ball, (rows, t))
    picks -= ball
    ref.reshape(rows, width)[:, n:] += picks
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
    return Configuration(np.bincount(s.generator().integers(0, n, t), minlength=n).tolist())


def sample_be_polya(n: int, t: int, s: SeededStream) -> Configuration:
    """One Bose-Einstein configuration, uniform over all C(n+t-1, t) compositions.

    Draw k copies ball picks[k] of the n + k balls before it; a ball below n
    is an original, so `vertex` maps every ball to the vertex it copies.
    """
    _check_n_t(n, t)
    vertex = list(range(n))
    for pick in s.generator().integers(0, n + np.arange(t)).tolist():
        vertex.append(vertex[pick])
    counts = [0] * n
    for v in vertex[n:]:
        counts[v] += 1
    return Configuration(counts)


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
