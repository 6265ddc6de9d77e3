import math
from fractions import Fraction

import pytest

import coverpebbling as cp
from coverpebbling.sampling import RandomModel
from coverpebbling.thresholds import CSV_HEADER, SweepRecord, ThresholdCurve


def _record(t, solvable_count, trials=10):
    return SweepRecord(RandomModel.MAXWELL_BOLTZMANN, 100, t, trials, solvable_count, 1)


@pytest.mark.parametrize("model", list(RandomModel))
@pytest.mark.parametrize("seed", [0, 424242])
def test_exactness_anchors(model, seed):
    n = 12
    rec = cp.estimate_solvable_probability(model, n, 2 * n - 1, 300, seed)
    assert rec.p_hat == 1.0
    rec = cp.estimate_solvable_probability(model, n, n - 1, 300, seed)
    assert rec.p_hat == 0.0


def test_small_be_probability_matches_enumeration():
    # on K_2 with two pebbles only the split (1,1) solves: probability 1/3
    rec = cp.estimate_solvable_probability(RandomModel.BOSE_EINSTEIN, 2, 2, 100_000, 9)
    assert abs(rec.p_hat - 1 / 3) < 0.01


def test_phat_matches_exact_tail_probability():
    # p_hat should sit within Monte Carlo error of the exact pmf tail
    n, trials, seed = 6, 4000, 77
    for t in (8, 9, 10):
        tail = sum(
            (cp.be_odd_stack_pmf(n, t, x) for x in range(max(0, 2 * n - t), n + 1)),
            Fraction(0),
        )
        rec = cp.estimate_solvable_probability(RandomModel.BOSE_EINSTEIN, n, t, trials, seed)
        p = float(tail)
        margin = 4 * math.sqrt(p * (1 - p) / trials) + 1e-9
        assert abs(rec.p_hat - p) <= margin


def test_sweep_structure_and_determinism():
    curve = cp.sweep(RandomModel.MAXWELL_BOLTZMANN, 30, 20, 29, 3, 50, seed=5)
    assert [r.t for r in curve.records] == [20, 23, 26, 29]
    again = cp.sweep(RandomModel.MAXWELL_BOLTZMANN, 30, 20, 29, 3, 50, seed=5)
    assert cp.curve_to_csv(curve) == cp.curve_to_csv(again)
    assert all(r.p_hat == 0.0 for r in curve.records)  # whole range below n


def test_sweep_worker_count_does_not_change_output():
    kwargs = dict(n=40, t_min=50, t_max=80, step=10, trials=120, seed=31)
    solo = cp.sweep(RandomModel.BOSE_EINSTEIN, **kwargs, workers=1)
    duo = cp.sweep(RandomModel.BOSE_EINSTEIN, **kwargs, workers=2)
    assert cp.curve_to_csv(solo, True) == cp.curve_to_csv(duo, True)


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
            if t_min == t_max and step == 1:
                with pytest.raises(ValueError):
                    cp.estimate_solvable_probability(model, n, t_min, trials, 1)
        for workers in (0, -3):
            with pytest.raises(ValueError, match="worker"):
                cp.sweep(model, 5, 5, 5, 1, 3, seed=1, workers=workers)


def test_crossing_point_interpolation():
    assert cp.crossing_point(ThresholdCurve((_record(10, 2), _record(12, 8)))) == 11.0
    assert cp.crossing_point(ThresholdCurve((_record(5, 0), _record(6, 10)))) == 5.5
    assert cp.crossing_point(ThresholdCurve((_record(5, 0), _record(6, 0)))) is None
    assert cp.crossing_point(ThresholdCurve((_record(5, 9), _record(6, 10)))) is None
    # last upward crossing wins when the curve dips back below the level
    curve = ThresholdCurve((_record(1, 0), _record(2, 8), _record(3, 2), _record(4, 10)))
    assert cp.crossing_point(curve) == 3.375
    with pytest.raises(ValueError):
        cp.crossing_point(ThresholdCurve(()))


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
