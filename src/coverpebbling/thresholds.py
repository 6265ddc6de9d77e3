"""Monte Carlo estimation of P(K_n is cover solvable) across pebble counts.

Per trial, a configuration is drawn from the requested model and tested
with the exact complete-graph criterion (odd stacks + total >= 2n), so a
trial costs O(t) and no graph search ever runs.

Stream layout: the trials of a sweep point are cut into blocks of
rows = max(1, min(64, 2^15 // (n + t))) consecutive trials, a function of
(n, t) alone.  Block b draws all its rows in one call from the stream
(seed, t * 2^32 + b), and the last block may be short.  A row's draw does
not depend on the rows after it, so each trial's outcome is a pure
function of (n, seed, t, trial index).  A worker always takes whole
blocks, so sweeps are bit-reproducible for any worker count.

A task is a run of blocks of one point: the whole point when workers == 1,
a chunk of it otherwise.  It keeps one Philox generator and re-keys it to
each block's stream (`sampling.rekey`), which is the state a new generator
for that stream starts in, so one block costs one state reset instead of a
new generator.  It also keeps one `sampling.DrawBuffers` and hands it to
`mb_counts` or `be_counts` for every block, so the draw arrays are
allocated once per task, not once per block.  Every draw bound, up to
n + t - 1, must stay within the sampler's exact 32-bit path
(`sampling.MAX_BOUND`); `sweep` checks this up front.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .graphs import integer_argument
from .sampling import (MAX_BOUND, DrawBuffers, RandomModel, SeededStream, be_counts, mb_counts,
                       rekey)

_T_STRIDE = 2**32  # stream index packs (t, block) as t * 2^32 + block
# A block holds at most _MAX_ROWS trials and rows * (n + t) <= _BLOCK_CELLS
# balls, so each of its arrays (picks, counts, be_counts' ball arrays) has at
# most 2^15 int64 entries, 256 KB; a large t falls back to one trial per
# block.  Both set the block rows, so both are part of the stream layout.
_BLOCK_CELLS = 2**15
_MAX_ROWS = 64


@dataclass(frozen=True)
class SweepRecord:
    """Estimated solvability probability for one (model, n, t) point."""

    model: RandomModel
    n: int
    t: int
    trials: int
    solvable_count: int
    seed: int

    @property
    def p_hat(self) -> float:
        return self.solvable_count / self.trials


@dataclass(frozen=True)
class ThresholdCurve:
    """SweepRecords sharing (model, n, trials, seed), sorted by distinct t."""

    records: tuple

    def __post_init__(self):
        recs = self.records
        if any(a.t >= b.t for a, b in zip(recs, recs[1:])):
            raise ValueError("records must be sorted by strictly increasing t")
        if len({(r.model, r.n, r.trials, r.seed) for r in recs}) > 1:
            raise ValueError("records must share model, n, trials, and seed")

    @property
    def crossing(self):
        """Linear interpolation of the last upward crossing through p_hat = 0.5.

        Takes the last record with p_hat < 0.5 followed by a record with
        p_hat >= 0.5; None when the curve never crosses.
        """
        records = self.records
        if not records:
            raise ValueError("empty curve")
        below = [i for i, r in enumerate(records) if r.p_hat < 0.5]
        if not below or below[-1] == len(records) - 1:
            return None
        i = below[-1]
        lo, hi = records[i], records[i + 1]
        return lo.t + (0.5 - lo.p_hat) * (hi.t - lo.t) / (hi.p_hat - lo.p_hat)


def _block_rows(n: int, t: int) -> int:
    """Trials per stream block at (n, t); never depends on the worker count."""
    return max(1, min(_MAX_ROWS, _BLOCK_CELLS // (n + t)))


def _count_solvable(args) -> int:
    """Cover-solvable trials in blocks lo..hi-1 of one sweep point."""
    model_value, n, t, lo, hi, trials, seed = args
    draw = mb_counts if RandomModel(model_value) is RandomModel.MAXWELL_BOLTZMANN else be_counts
    rows = _block_rows(n, t)
    rng = SeededStream(seed).generator()
    buffers = DrawBuffers(n, t, rows)
    count = 0
    for block in range(lo, hi):
        rekey(rng, seed, t * _T_STRIDE + block)
        counts = draw(n, t, rng, min(rows, trials - block * rows), buffers)
        odd = np.bitwise_and(counts, 1, out=counts).sum(axis=1)
        count += int(np.count_nonzero(odd + t >= 2 * n))
    return count


def sweep(
    model: RandomModel,
    n: int,
    t_min: int,
    t_max: int,
    step: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> ThresholdCurve:
    """One SweepRecord per t in range(t_min, t_max + 1, step).

    With workers > 1, whole stream blocks are distributed over a process
    pool in chunks, so the result is identical for every worker count.  The
    pool has at most os.cpu_count() processes, whatever `workers` asks for.
    """
    model = RandomModel(model)
    n, t_min, t_max = (integer_argument("n", n, 1), integer_argument("t_min", t_min, 0),
                       integer_argument("t_max", t_max))
    step, trials = integer_argument("step", step, 1), integer_argument("trials", trials, 1)
    seed, workers = integer_argument("seed", seed), integer_argument("workers", workers, 1)
    if t_min > t_max:
        raise ValueError("t_min must not exceed t_max")
    # every draw bound, up to n + t_max - 1, stays below MAX_BOUND (and so t_max
    # below _T_STRIDE); checked before anything is allocated
    if n + t_max > MAX_BOUND:
        raise ValueError(f"pebble counts must lie in 0..{MAX_BOUND - n} (n + t at most "
                         f"2^32 - 1, the sampler's 32-bit draw limit), got {t_min}..{t_max}")
    ts = list(range(t_min, t_max + 1, step))
    tasks = []
    for t in ts:
        blocks = -(-trials // _block_rows(n, t))
        chunk = blocks if workers == 1 else -(-blocks // (workers * 4))
        tasks += [(model.value, n, t, lo, min(lo + chunk, blocks), trials, seed)
                  for lo in range(0, blocks, chunk)]
    if workers == 1:
        results = map(_count_solvable, tasks)
    else:
        with Pool(processes=min(workers, os.cpu_count() or 1)) as pool:
            results = pool.map(_count_solvable, tasks)
    totals = dict.fromkeys(ts, 0)
    for task, solvable in zip(tasks, results):
        totals[task[2]] += solvable
    records = tuple(
        SweepRecord(model, n, t, trials, totals[t], seed) for t in ts
    )
    return ThresholdCurve(records)


CSV_HEADER = "model,n,t,trials,solvable_count,p_hat,seed"


def curve_to_csv(curve: ThresholdCurve, include_crossing: bool = False) -> str:
    """Render the sweep as CSV; optionally append the crossing summary line."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in curve.records:
        out.write(
            f"{r.model.value},{r.n},{r.t},{r.trials},{r.solvable_count},{r.p_hat},{r.seed}\n"
        )
    if include_crossing:
        t_star = curve.crossing
        if t_star is not None:
            n = curve.records[0].n
            out.write(f"# crossing t*={t_star} t*/n={t_star / n}\n")
        else:
            out.write("# crossing t*=none\n")
    return out.getvalue()
