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
exactly `rng.integers(0, bounds, (rows, t))`.  When Lemire's 32-bit
multiply-and-reject method (the one numpy uses) rejects no word of the
block, it computes the picks from one call's worth of raw Philox words at
once; otherwise it lets numpy draw them.  Both kernels work in the arrays
of a `DrawBuffers`, which a caller drawing many blocks of one shape passes
to every call.  A sweep task keeps one set, and one generator that it
re-keys per block (`rekey`) instead of building a new one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

import numpy as np

from .graphs import Configuration, integer_argument

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

    def __post_init__(self):
        object.__setattr__(self, "seed", integer_argument("seed", self.seed))
        object.__setattr__(self, "stream_index",
                           integer_argument("stream_index", self.stream_index))

    def generator(self) -> np.random.Generator:
        rng = np.random.Generator(np.random.Philox(_seed_sequence()))
        rekey(rng, self.seed, self.stream_index)
        return rng


@functools.cache
def _seed_sequence() -> np.random.SeedSequence:
    # seeds every new Philox without OS entropy (`rekey` replaces the state it
    # gives), about 3.5 us faster than Philox(0), which builds one per call;
    # built on first use, so importing the package loads no numpy.random
    # (on numpy >= 2; numpy 1.x imports it itself)
    return np.random.SeedSequence(0)


def rekey(rng: np.random.Generator, seed: int, stream_index: int) -> None:
    """Put rng's Philox into the fresh state of SeededStream(seed, stream_index).

    Counter 0, the key (seed, stream_index) in 64-bit words, nothing
    buffered: the state `SeededStream(seed, stream_index).generator()`
    starts in, without building a generator.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & _MASK64, stream_index & _MASK64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _check_n_t(n: int, t: int) -> tuple[int, int]:
    n, t = integer_argument("n", n, 0), integer_argument("t", t, 0)
    if n == 0 and t > 0:
        raise ValueError("cannot place pebbles on zero vertices")
    return n, t


def _integers(rng: np.random.Generator, bounds, out: np.ndarray) -> np.ndarray:
    """Exactly `rng.integers(0, bounds, out.shape)` for a fresh Philox generator.

    `out` is a C-contiguous uint64 array of shape (rows, t) and `bounds` is
    a scalar or a length-t vector, every bound in 1..MAX_BOUND.  numpy
    draws each value below a bound b >= 2 from one uint32 word w by
    Lemire's method: m = w * b in 64 bits gives m >> 32,
    unless the low half of m lies below 2^32 mod b; then the word is rejected
    and the draw takes the next one.  A bound of 1 gives 0 and takes no word.
    When every bound is at least 2, one random_raw call supplies a word per
    draw, and the block is computed from them if no low half lies below its
    bound (2^32 mod b < b, so no word was rejected).  Otherwise rng is
    re-keyed and numpy draws the block, as it does at once for a block with a
    bound of 1.  A draw below b is rejected with probability
    (2^32 mod b) / 2^32 < b / 2^32, so the share of blocks numpy draws grows
    like (draws per block) * b / 2^32: on K_n, about 0.5 % of sweep blocks
    at n = 1000, a third to a half at n = 3 * 10^4 and nearly all at 10^5,
    where a block is one row of t draws and its raw words go to waste.

    The products are formed in `out`, and a computed block is returned as
    its int64 view; a block numpy draws is numpy's own new array.  rng must
    be fresh: at counter 0 of its key with no half-word buffered, as a new
    generator or one just re-keyed is.  It is left spent.
    """
    bounds, shape, size = np.asarray(bounds), out.shape, out.size
    if not size:
        return out.view(np.int64)
    least = bounds.min()
    if not (least >= 1 and bounds.max() <= MAX_BOUND):
        raise ValueError(f"draw bounds must lie in 1..{MAX_BOUND}")
    bounds = bounds.astype(np.uint32, copy=False)
    if least > 1:
        # uint32 halves in next_uint32 order (low, then high), multiplied in 64
        # bits: a uint32 product would wrap, and under numpy 1.22's value-based
        # casting a scalar bound would pick the uint32 loop without `dtype`
        words = rng.bit_generator.random_raw(-(-size // 2)).astype("<u8", copy=False)
        halves = words.view("<u4")[:size].reshape(shape)
        np.multiply(halves, bounds, out=out, dtype=np.uint64)
        # the products' low halves, in place of the words: uint32 products wrap
        low = np.multiply(halves, bounds, out=halves)
        if (low.min(axis=0) >= bounds).all():
            np.right_shift(out, np.uint64(32), out=out)
            return out.view(np.int64)
        rekey(rng, *rng.bit_generator.state["state"]["key"].tolist())
    return rng.integers(0, bounds, shape)


class DrawBuffers:
    """Arrays reused by `mb_counts` and `be_counts` across blocks of one shape.

    One set serves blocks of at most `rows` trials of t pebbles on n
    vertices, so a caller drawing many such blocks allocates these once and
    each block allocates only its raw words and bincount's counts.  A set
    holds one block at a time: concurrent draws need a set each.

    Both kernels move row r's picks into the row's own cells by adding
    r * stride (n for `mb_counts`, n + t for `be_counts`).  `offsets`
    builds those addends at full block shape on first use, so the add runs
    over two arrays of one shape: on a 12 x 1525 block that takes about a
    third of the time of adding a broadcast column.

    `be_counts` numbers the balls of a block two ways.  Its picks name ball p
    of row r as r * (n + t) + p, original balls first in each row.  Pointer
    jumping runs over `rows * n + rows * t` slots instead: original ball v of
    row r at r * n + v (its counts cell), drawn ball k of row r at
    rows * n + r * t + k, so the drawn balls' links are one contiguous run.
    `relabel` maps the first numbering to the second; the two `urn` arrays
    hold the identity on the original slots and take turns holding the links.
    """

    def __init__(self, n: int, t: int, rows: int):
        self.n, self.t, self.rows = n, t, rows
        self._picks = self._urn = self._offsets = None

    def picks(self, n: int, t: int, rows: int) -> np.ndarray:
        """The (rows, t) uint64 array `_integers` forms the block's picks in."""
        if (n, t) != (self.n, self.t) or rows > self.rows:
            raise ValueError(f"buffers for up to {self.rows} rows of t = {self.t} on "
                             f"n = {self.n} cannot hold {rows} rows of t = {t} on n = {n}")
        if self._picks is None:
            self._picks = np.empty((self.rows, t), dtype=np.uint64)
        return self._picks[:rows]

    def offsets(self, stride: int, rows: int) -> np.ndarray:
        """The (rows, t) int64 array whose row r holds r * stride, rebuilt for a new stride."""
        if self._offsets is None or self._offsets[0] != stride:
            block = np.repeat(np.arange(self.rows) * stride, self.t)
            self._offsets = stride, block.reshape(self.rows, self.t)
        return self._offsets[1][:rows]

    def urn(self) -> tuple:
        """(relabel, urn, urn) for `be_counts`; from now on the picks live in the second urn."""
        if self._urn is None:
            n, t, rows, base = self.n, self.t, self.rows, self.rows * self.n
            relabel = np.empty((rows, n + t), dtype=np.int64)
            relabel[:, :n] = np.arange(base).reshape(rows, n)
            relabel[:, n:] = np.arange(base, base + rows * t).reshape(rows, t)
            urn = [np.arange(base + rows * t) for _ in "ab"]
            self._picks = urn[1][base:].view(np.uint64).reshape(rows, t)
            self._urn = (relabel.reshape(-1), *urn)
        return self._urn


def mb_counts(n: int, t: int, rng: np.random.Generator, rows: int = 1,
              buffers: DrawBuffers | None = None) -> np.ndarray:
    """Maxwell-Boltzmann counts of `rows` trials, shape (rows, n).

    Each row places t pebbles on independent uniform vertices; one bincount
    over the keys row * n + vertex counts the whole block.  The picks come
    from `_integers`, whose precondition on rng applies, into `buffers`
    (a `DrawBuffers` for (n, t) and at least `rows` rows; new when None).
    """
    if buffers is None:
        buffers = DrawBuffers(n, t, rows)
    picks = _integers(rng, n, buffers.picks(n, t, rows))
    np.add(picks, buffers.offsets(n, rows), out=picks)
    return np.bincount(picks.reshape(-1), minlength=rows * n).reshape(rows, n)


def be_counts(n: int, t: int, rng: np.random.Generator, rows: int = 1,
              buffers: DrawBuffers | None = None) -> np.ndarray:
    """Bose-Einstein counts of `rows` trials via Polya urn draws, shape (rows, n).

    Draw k (1-indexed) holds n + k - 1 balls, so vertex j is picked with
    probability (1 + count_j) / (n + k - 1).  Ball n + k - 1 of a row is a
    uniform pick among the balls before it: an index below n is an original
    ball, any other is a copy of the ball drawn at that earlier step.
    Pointer jumping (link = link[link]) takes every drawn ball to its
    original ball in O(log depth) passes over the drawn balls alone, as laid
    out in `DrawBuffers`.  The picks come from `_integers`, whose
    precondition on rng applies, into `buffers` (for (n, t) and at least
    `rows` rows; new when None).
    """
    if buffers is None:
        buffers = DrawBuffers(n, t, rows)
    width, base = n + t, buffers.rows * n
    relabel, src, dst = buffers.urn()
    picks = _integers(rng, np.arange(n, width), buffers.picks(n, t, rows))
    np.add(picks, buffers.offsets(width, rows), out=picks)
    links = src[base:base + rows * t]
    np.take(relabel, picks.reshape(-1), out=links, mode="clip")
    # a link below base has reached its original ball
    while links.size and links.max() >= base:
        jumped = dst[base:base + rows * t]
        np.take(src, links, out=jumped, mode="clip")
        src, dst, links = dst, src, jumped
    return np.bincount(links, minlength=rows * n).reshape(rows, n)


def sample_mb(n: int, t: int, s: SeededStream) -> Configuration:
    """One Maxwell-Boltzmann configuration of t pebbles on n vertices."""
    n, t = _check_n_t(n, t)
    return Configuration(np.bincount(s.generator().integers(0, n, t), minlength=n).tolist())


def sample_be_polya(n: int, t: int, s: SeededStream) -> Configuration:
    """One Bose-Einstein configuration, uniform over all C(n+t-1, t) compositions.

    Draw k copies ball picks[k] of the n + k balls before it; a ball below n
    is an original, so `vertex` maps every ball to the vertex it copies.
    """
    n, t = _check_n_t(n, t)
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
    n, t = _check_n_t(n, t)
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
    n, t, x = integer_argument("n", n, 1), integer_argument("t", t, 0), integer_argument("x", x, 0)
    if x % 2 != t % 2 or x > min(t, n):
        return Fraction(0)
    return Fraction(
        comb(n, x) * comb((t - x) // 2 + n - 1, n - 1),
        comb(n + t - 1, n - 1),
    )


def mb_expected_odd_stacks(n: int, t: int) -> float:
    """E(X) under Maxwell-Boltzmann: (n/2) * (1 - (1 - 2/n)^t)."""
    n, t = integer_argument("n", n, 1), integer_argument("t", t, 0)
    return (n / 2.0) * (1.0 - (1.0 - 2.0 / n) ** t)


def mb_variance_odd_stacks(n: int, t: int) -> float:
    """Var(X) under Maxwell-Boltzmann (exact second-moment formula)."""
    n, t = integer_argument("n", n, 2), integer_argument("t", t, 0)
    a = (1.0 - 2.0 / n) ** (2 * t)
    b = (1.0 - 4.0 / n) ** t
    return (n / 4.0) * (1.0 - a) + (n * (n - 1) / 4.0) * (b - a)


def be_expected_odd_stacks_exact(n: int, t: int) -> Fraction:
    """E(X) under Bose-Einstein as an exact rational, summed from the pmf."""
    n, t = integer_argument("n", n, 1), integer_argument("t", t, 0)
    return sum(
        (x * be_odd_stack_pmf(n, t, x) for x in range(t % 2, min(n, t) + 1, 2)),
        Fraction(0),
    )


def be_expected_odd_stacks_approx(n: int, t: int) -> float:
    """Leading-order E(X) under Bose-Einstein: nt / (n + 2t)."""
    n, t = integer_argument("n", n, 1), integer_argument("t", t, 0)
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
