"""The machine's speed, sampled with a fixed reference kernel during a run.

The baseline machine is shared: its speed moves by 1.5-2x for seconds to
minutes at a time, so a whole run can fall in a slow spell.  The harness
runs `kernel` about every INTERVAL_S between operations, outside any timed
section, and scales each timing by REFERENCE_S over the kernel's median time
near it.  A timing is then in seconds at the speed at which the kernel takes
REFERENCE_S: the baseline machine's speed when it is not contended.

The kernel does the kinds of work the package does: an interpreted search
over tuples in a dict, many numpy calls on tiny arrays, and numpy draws
over larger ones.  It uses no code of the package, so a change to the
package cannot move it.
"""

from __future__ import annotations

import bisect
import time
from statistics import median

import numpy as np

REFERENCE_S = 1.0e-3  # the kernel's time on the baseline machine, uncontended
INTERVAL_S = 0.05  # the kernel runs when this much time has passed since it last ran
WINDOW_S = 0.25  # samples within this distance of a timing set its scale
MIN_SAMPLES = 5  # a timing's scale uses at least this many of the nearest samples

_OFFSETS = np.arange(4000, dtype=np.int64)
_STARTS = ((9, 0, 0, 0, 0, 0), (0, 9, 0, 0, 0, 0), (0, 0, 9, 0, 0, 0))


def _search(pebbles: tuple, memo: dict) -> int:
    """Most vertices coverable from `pebbles` on a 6-cycle, by memoised search."""
    if pebbles in memo:
        return memo[pebbles]
    best = memo[pebbles] = sum(1 for p in pebbles if p)
    n = len(pebbles)
    for v in range(n):
        if pebbles[v] >= 2:
            for w in ((v + 1) % n, (v - 1) % n):
                after = list(pebbles)
                after[v] -= 2
                after[w] += 1
                best = max(best, _search(tuple(after), memo))
    memo[pebbles] = best
    return best


def kernel() -> int:
    """Fixed work, about 1 ms, in three equal parts like the package's own.

    A memoised search over tuples, as the solver runs; many numpy calls on
    tiny arrays, as per-call set-up makes; and Philox draws with a bincount,
    as the sampler makes.
    """
    total = sum(_search(start, {}) for start in _STARTS)
    for i in range(110):
        small = np.full(8, i, dtype=np.int64)
        total += int(np.count_nonzero(small & 1)) + int(small.argmax())
    rng = np.random.Generator(np.random.Philox(key=[7, total]))
    for _ in range(9):
        picks = rng.integers(0, 1000, size=4000)
        total += int(np.bincount(picks + (_OFFSETS & 1), minlength=1001)[1])
    return total


class SpeedProbe:
    """Kernel times with the perf_counter time at their midpoints."""

    def __init__(self):
        self.at = []
        self.seconds = []
        self.last = -float("inf")

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.last = time.perf_counter()
        self.at.append((start + self.last) / 2)
        self.seconds.append(self.last - start)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median kernel time near `at`.

        The samples within WINDOW_S of `at`, or the MIN_SAMPLES nearest if
        there are fewer.
        """
        lo = bisect.bisect_left(self.at, at - WINDOW_S)
        hi = bisect.bisect_right(self.at, at + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            nearest = sorted(range(len(self.at)), key=lambda i: abs(self.at[i] - at))
            window = [self.seconds[i] for i in nearest[:MIN_SAMPLES]]
        else:
            window = self.seconds[lo:hi]
        return REFERENCE_S / median(window)

    def timed(self, fn, *args):
        """fn(*args) timed, with kernel samples around it: (seconds at reference speed, value)."""
        for _ in range(MIN_SAMPLES):
            self.sample()
        start = time.perf_counter()
        value = fn(*args)
        end = time.perf_counter()
        for _ in range(MIN_SAMPLES):
            self.sample()
        return (end - start) * self.scale((start + end) / 2), value
