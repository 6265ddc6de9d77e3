import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import coverpebbling as cp
from coverpebbling import thresholds
from coverpebbling.sampling import MAX_BOUND, RandomModel, SeededStream
from coverpebbling.thresholds import CSV_HEADER, SweepRecord, ThresholdCurve, _block_rows
from conftest import urn_counts

# two-sided probability that a normal deviate lies beyond 4 sigma
FOUR_SIGMA_ALPHA = math.erfc(4 / math.sqrt(2))


def _record(t, solvable_count, trials=10):
    return SweepRecord(RandomModel.MAXWELL_BOLTZMANN, 100, t, trials, solvable_count, 1)


@pytest.mark.parametrize("model", list(RandomModel))
@pytest.mark.parametrize("seed", [0, 424242])
def test_exactness_anchors(model, seed):
    n = 12
    rec = cp.sweep(model, n, 2 * n - 1, 2 * n - 1, 1, 300, seed).records[0]
    assert rec.p_hat == 1.0
    rec = cp.sweep(model, n, n - 1, n - 1, 1, 300, seed).records[0]
    assert rec.p_hat == 0.0


def test_small_be_probability_matches_enumeration():
    # on K_2 with two pebbles only the split (1,1) solves: probability 1/3
    rec = cp.sweep(RandomModel.BOSE_EINSTEIN, 2, 2, 2, 1, 100_000, 9).records[0]
    assert abs(rec.p_hat - 1 / 3) < 0.01


def test_phat_matches_exact_tail_probability():
    # p_hat should sit within Monte Carlo error of the exact pmf tail
    n, trials, seed = 6, 4000, 77
    for t in (8, 9, 10):
        tail = sum(
            (cp.be_odd_stack_pmf(n, t, x) for x in range(max(0, 2 * n - t), n + 1)),
            Fraction(0),
        )
        rec = cp.sweep(RandomModel.BOSE_EINSTEIN, n, t, t, 1, trials, seed).records[0]
        p = float(tail)
        margin = 4 * math.sqrt(p * (1 - p) / trials) + 1e-9
        assert abs(rec.p_hat - p) <= margin


def test_sweep_structure_and_determinism():
    curve = cp.sweep(RandomModel.MAXWELL_BOLTZMANN, 30, 20, 29, 3, 50, seed=5)
    assert [r.t for r in curve.records] == [20, 23, 26, 29]
    again = cp.sweep(RandomModel.MAXWELL_BOLTZMANN, 30, 20, 29, 3, 50, seed=5)
    assert cp.curve_to_csv(curve) == cp.curve_to_csv(again)
    assert all(r.p_hat == 0.0 for r in curve.records)  # whole range below n


def _mb_solvable_exact(n, ts):
    """Exact P(X >= 2n - t) under Maxwell-Boltzmann, for each t in ts.

    N_t(x) counts the n^t placement sequences that leave x odd stacks.  A
    pebble turns one of the n - x + 1 even stacks odd or one of the x + 1
    odd stacks even (Ehrenfest urn), so
    N_{t+1}(x) = (n - x + 1) N_t(x - 1) + (x + 1) N_t(x + 1).
    """
    counts = [1] + [0] * n
    exact = {}
    for t in range(max(ts) + 1):
        if t in ts:
            exact[t] = Fraction(sum(counts[max(0, 2 * n - t):]), n**t)
        padded = [0] + counts + [0]  # padded[x] = N_t(x - 1), padded[x + 2] = N_t(x + 1)
        counts = [(n - x + 1) * padded[x] + (x + 1) * padded[x + 2] for x in range(n + 1)]
    return exact


def _be_solvable_exact(n, ts):
    """Exact P(X >= 2n - t) under Bose-Einstein, from the odd-stack pmf."""
    return {t: sum((cp.be_odd_stack_pmf(n, t, x) for x in range(max(0, 2 * n - t), n + 1)),
                   Fraction(0))
            for t in ts}


def _binomial_two_sided_p(k, trials, p):
    """Twice the smaller binomial tail at k, capped at 1 (exact in p, float sums)."""
    if p in (0, 1):
        return 1.0 if k == p * trials else 0.0
    logs = [math.lgamma(trials + 1) - math.lgamma(i + 1) - math.lgamma(trials - i + 1)
            + i * math.log(p) + (trials - i) * math.log1p(-p) for i in range(trials + 1)]
    pmf = [math.exp(v) for v in logs]
    return min(1.0, 2 * min(sum(pmf[: k + 1]), sum(pmf[k:])))


def test_mb_exact_curve_matches_enumeration():
    ts = range(0, 6)
    for n in (1, 2, 4):
        exact = _mb_solvable_exact(n, ts)
        for t in ts:
            solvable = 0
            for placement in product(range(n), repeat=t):
                odd = sum(placement.count(v) % 2 for v in range(n))
                solvable += odd + t >= 2 * n
            assert exact[t] == Fraction(solvable, n**t)


@pytest.mark.parametrize("model, n, ts", [
    (RandomModel.MAXWELL_BOLTZMANN, 50, range(60, 97, 4)),
    (RandomModel.MAXWELL_BOLTZMANN, 200, range(280, 341, 6)),
    (RandomModel.BOSE_EINSTEIN, 50, range(66, 101, 4)),
    (RandomModel.BOSE_EINSTEIN, 200, range(300, 361, 6)),
], ids=["mb-50", "mb-200", "be-50", "be-200"])
def test_sweep_agrees_with_the_exact_curve(model, n, ts):
    # every p_hat within the binomial 4-sigma band, the false-alarm rate
    # shared over the sweep's points
    trials = 2000
    curve = cp.sweep(model, n, ts.start, ts[-1], ts.step, trials, seed=20240811)
    exact = (_mb_solvable_exact if model is RandomModel.MAXWELL_BOLTZMANN
             else _be_solvable_exact)(n, ts)
    alpha = FOUR_SIGMA_ALPHA / len(ts)
    outliers = [(r.t, r.p_hat, float(exact[r.t])) for r in curve.records
                if _binomial_two_sided_p(r.solvable_count, trials, exact[r.t]) < alpha]
    assert outliers == []
    assert 0 < min(exact.values()) < 0.1 and 0.9 < max(exact.values()) < 1


def test_sweep_worker_count_does_not_change_output():
    # neither trial count is a whole number of blocks, each worker count
    # chunks the blocks differently, and in the second sweep n + t crosses
    # 2^15 // 64, so the block rows change between points
    assert len({_block_rows(300, t) for t in range(150, 401, 50)}) == 5
    for model in RandomModel:
        for kwargs in (dict(n=40, t_min=50, t_max=80, step=10, trials=1590, seed=31),
                       dict(n=300, t_min=150, t_max=400, step=50, trials=1001, seed=32)):
            csvs = {cp.curve_to_csv(cp.sweep(model, **kwargs, workers=workers), True)
                    for workers in (1, 2, 3)}
            assert len(csvs) == 1


def _reference_solvable(model, n, t, trials, seed):
    """Solvable trials of one sweep point, block by block from `rng.integers`."""
    rows, solvable = _block_rows(n, t), 0
    for block in range(-(-trials // rows)):
        rng = SeededStream(seed, t * 2**32 + block).generator()
        size = min(rows, trials - block * rows)
        if model is RandomModel.MAXWELL_BOLTZMANN:
            counts = [np.bincount(row, minlength=n) for row in rng.integers(0, n, (size, t))]
        else:
            picks = rng.integers(0, n + np.arange(t), (size, t))
            counts = [urn_counts(n, row) for row in picks.tolist()]
        solvable += sum(int((c & 1).sum()) + t >= 2 * n for c in counts)
    return solvable


class _CountingGenerator(np.random.Generator):
    """A Generator that counts the blocks numpy draws (its `integers` calls)."""

    calls = 0

    def integers(self, *args, **kwargs):
        _CountingGenerator.calls += 1
        return super().integers(*args, **kwargs)


class _CountingStream(SeededStream):
    def generator(self):
        return _CountingGenerator(super().generator().bit_generator)


@pytest.mark.parametrize("model", list(RandomModel))
def test_reused_buffers_keep_every_point_exact(model, monkeypatch):
    # n = 3 * 10^4: one trial per block, and a third to a half of the blocks
    # are drawn by numpy between blocks computed from raw words; n = 1000: a
    # trial count that leaves the last block short
    monkeypatch.setattr(thresholds, "SeededStream", _CountingStream)
    for n, ts, trials in ((30_000, (44_000, 47_000), 24), (1000, (1500, 1600, 1700), 203)):
        _CountingGenerator.calls = 0
        curve = cp.sweep(model, n, ts[0], ts[-1], ts[1] - ts[0], trials, seed=41)
        if n == 30_000:
            assert 0.2 * len(ts) * trials < _CountingGenerator.calls < 0.7 * len(ts) * trials
        assert [r.solvable_count for r in curve.records] == [
            _reference_solvable(model, n, t, trials, 41) for t in ts]
        for workers in (2, 3):
            assert cp.sweep(model, n, ts[0], ts[-1], ts[1] - ts[0], trials, 41, workers) == curve


def test_a_sweep_draws_each_block_with_one_kernel_call(monkeypatch):
    # perfbench counts blocks by wrapping these two names in thresholds
    calls = []

    def counted(name, kernel):
        def draw(*args, **kwargs):
            calls.append((name, args[1]))
            return kernel(*args, **kwargs)
        return draw

    for name in ("mb_counts", "be_counts"):
        monkeypatch.setattr(thresholds, name, counted(name, getattr(thresholds, name)))
    for model, name in ((RandomModel.MAXWELL_BOLTZMANN, "mb_counts"),
                        (RandomModel.BOSE_EINSTEIN, "be_counts")):
        calls.clear()
        cp.sweep(model, 300, 150, 400, 50, 1001, seed=3)
        assert calls == [(name, t) for t in range(150, 401, 50)
                         for _ in range(-(-1001 // _block_rows(300, t)))]


def test_a_be_point_takes_few_page_faults():
    # the draw arrays are allocated once per point: about 210 minor faults for
    # a point of 17 blocks at n = 1000, where arrays made per block took about
    # 1,150; run in a new interpreter, so the heap that earlier tests left
    # does not decide the count
    pytest.importorskip("resource")
    script = (
        "import resource, coverpebbling as cp\n"
        "def point():\n"
        "    cp.sweep(cp.RandomModel.BOSE_EINSTEIN, 1000, 1600, 1600, 1, 200, 1717)\n"
        "point()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "point()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cp.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 300


def test_sweep_caps_its_processes_at_the_cpu_count(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    monkeypatch.setattr(thresholds, "Pool", SerialPool)
    kwargs = dict(n=30, t_min=40, t_max=60, step=10, trials=300, seed=5)
    expected = cp.sweep(RandomModel.BOSE_EINSTEIN, **kwargs, workers=1)
    assert cp.sweep(RandomModel.BOSE_EINSTEIN, **kwargs, workers=10**6) == expected
    assert started == [os.cpu_count() or 1]
    monkeypatch.setattr(thresholds.os, "cpu_count", lambda: None)
    assert cp.sweep(RandomModel.BOSE_EINSTEIN, **kwargs, workers=10**6) == expected
    assert started[-1] == 1


def test_sweep_validation():
    bad = [
        (5, 10, 5, 1, 10),  # t_min above t_max
        (5, 5, 10, 0, 10),  # step
        (5, 5, 5, 1, 0),  # trials
        (0, 5, 5, 1, 3),  # no vertices
        (-2, 5, 5, 1, 3),
        (5, -3, -1, 1, 3),  # negative pebble counts
        (5, 2**32, 2**32, 1, 3),  # would alias the streams of t = 0
        (5, 0, 2**32, 2**32, 3),
    ]
    for model in RandomModel:
        for n, t_min, t_max, step, trials in bad:
            with pytest.raises(ValueError):
                cp.sweep(model, n, t_min, t_max, step, trials, seed=1)
        for workers in (0, -3):
            with pytest.raises(ValueError, match="worker"):
                cp.sweep(model, 5, 5, 5, 1, 3, seed=1, workers=workers)


def test_sweep_arguments_must_be_integers(monkeypatch):
    # each one is refused by name before any block is drawn; integer types
    # other than int are accepted
    monkeypatch.setattr(thresholds, "_count_solvable", lambda task: 0)
    args = dict(n=10, t_min=5, t_max=9, step=2, trials=3, seed=1, workers=1)
    for name in args:
        for bad in (float(args[name]) + 0.5, float(args[name]), "3", None):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                cp.sweep(RandomModel.BOSE_EINSTEIN, **{**args, name: bad})
    curve = cp.sweep(RandomModel.BOSE_EINSTEIN, **{k: np.int32(v) for k, v in args.items()})
    assert [type(v) for v in (curve.records[0].n, curve.records[0].seed)] == [int, int]


@pytest.mark.parametrize("model, t_min, t_max, digest", [
    (RandomModel.MAXWELL_BOLTZMANN, 1400, 1650,
     "c636a8377c40d687810acfe0585f2486dfe5fac1cdb70ffd4716e3f021d32253"),
    (RandomModel.BOSE_EINSTEIN, 1500, 1750,
     "a8c95ea69c0a6a126ad8a850e4abfb94375e15f9d53267a52170d957aa16f9af"),
], ids=["mb", "be"])
def test_sweep_csvs_are_pinned(model, t_min, t_max, digest):
    # the sweep's stream contract: these digests hold for every change that
    # keeps it, whatever the sampler does inside
    curve = cp.sweep(model, 1000, t_min, t_max, 50, 300, seed=17)
    csv = cp.curve_to_csv(curve, include_crossing=True)
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


def test_sweep_rejects_draw_bounds_beyond_32_bits_before_drawing(monkeypatch):
    # n + t at most 2^32 - 1; the largest pebble counts are refused before
    # any block is drawn, and the boundary itself is accepted
    def no_work(task):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(thresholds, "_count_solvable", no_work)
    for model in RandomModel:
        for n, t_max in ((5, MAX_BOUND - 4), (1000, MAX_BOUND - 999), (1, 2**32 - 1)):
            with pytest.raises(ValueError, match=r"2\^32 - 1"):
                cp.sweep(model, n, t_max, t_max, 1, 1, seed=1)
            with pytest.raises(ValueError, match=r"2\^32 - 1"):
                cp.sweep(model, n, 0, t_max, t_max, 1, seed=1)
    monkeypatch.setattr(thresholds, "_count_solvable", lambda task: 0)
    for model in RandomModel:
        assert cp.sweep(model, 5, 0, MAX_BOUND - 5, MAX_BOUND - 5, 1, seed=1).records[-1].t \
            == MAX_BOUND - 5


def test_crossing_interpolation():
    assert ThresholdCurve((_record(10, 2), _record(12, 8))).crossing == 11.0
    assert ThresholdCurve((_record(5, 0), _record(6, 10))).crossing == 5.5
    assert ThresholdCurve((_record(5, 0), _record(6, 0))).crossing is None
    assert ThresholdCurve((_record(5, 9), _record(6, 10))).crossing is None
    # last upward crossing wins when the curve dips back below the level
    curve = ThresholdCurve((_record(1, 0), _record(2, 8), _record(3, 2), _record(4, 10)))
    assert curve.crossing == 3.375
    with pytest.raises(ValueError):
        ThresholdCurve(()).crossing


def test_curve_validation():
    with pytest.raises(ValueError, match="increasing"):
        ThresholdCurve((_record(6, 0), _record(5, 0)))
    with pytest.raises(ValueError, match="share"):
        ThresholdCurve((_record(5, 0), SweepRecord(
            RandomModel.BOSE_EINSTEIN, 100, 6, 10, 0, 1)))


def test_csv_format():
    curve = cp.sweep(RandomModel.MAXWELL_BOLTZMANN, 4, 7, 8, 1, 10, seed=2)
    text = cp.curve_to_csv(curve, include_crossing=True)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("mb,4,7,10,")
    assert lines[-1].startswith("# crossing t*=")
    # t = 7 = 2n - 1 guarantees solvability, so the curve is flat at 1.0
    assert "none" in lines[-1]
