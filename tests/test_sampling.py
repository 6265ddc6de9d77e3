import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import coverpebbling as cp
from coverpebbling import thresholds
from coverpebbling.sampling import (MAX_BOUND, DrawBuffers, SeededStream, _integers, be_counts,
                                   mb_counts, rekey)
from conftest import compositions, urn_counts


def test_streams_are_reproducible_and_distinct():
    s = SeededStream(123, 7)
    assert cp.sample_mb(10, 20, s) == cp.sample_mb(10, 20, s)
    assert cp.sample_be_polya(10, 20, s) == cp.sample_be_polya(10, 20, s)
    assert cp.sample_mb(10, 20, SeededStream(123, 8)) != cp.sample_mb(10, 20, s)
    assert cp.sample_be_polya(10, 20, SeededStream(124, 7)) != cp.sample_be_polya(10, 20, s)


@pytest.mark.parametrize("a, b", [
    (SeededStream(-1), SeededStream(0)),  # -1 keys as 2^64 - 1
    (SeededStream(2**63), SeededStream(2**63 + 1)),
    (SeededStream(5, 2**63), SeededStream(5, 2**63 + 1)),
], ids=["seed-minus-1", "seed-2^63", "index-2^63"])
def test_key_words_at_and_above_2_to_63_stay_distinct(a, b):
    assert cp.sample_mb(10, 20, a) != cp.sample_mb(10, 20, b)
    assert a.generator().integers(0, 2**62, 4).tolist() != b.generator().integers(0, 2**62, 4).tolist()


@pytest.mark.parametrize("seed, index", [(0, 0), (5, 7), (-1, 3), (2**63, 2**64 - 1),
                                         (123, 1625 * 2**32 + 9)])
def test_rekey_gives_the_fresh_state_of_the_stream(seed, index):
    # numpy's own keyed Philox is the reference for the (seed, index) -> state map
    mask = 2**64 - 1
    key = np.array([seed & mask, index & mask], dtype=np.uint64)
    expected = np.random.Generator(np.random.Philox(key=key))
    state, draws = str(expected.bit_generator.state), expected.integers(0, 1000, 9).tolist()
    rng = SeededStream(1, 2).generator()
    rng.integers(0, 10, 3)  # a used generator, with a half-word buffered
    rekey(rng, seed, index)
    for got in (rng, SeededStream(seed, index).generator()):
        assert str(got.bit_generator.state) == state
        assert got.integers(0, 1000, 9).tolist() == draws


def _polya_reference(n, t, rng):
    return urn_counts(n, rng.integers(0, n + np.arange(t)).tolist())


def _lemire_reference(rng, bounds, shape):
    """numpy's 32-bit bounded draw one value at a time, and the words it rejects."""
    def halves():
        while True:
            word = int(rng.bit_generator.random_raw())
            yield word & 0xFFFFFFFF  # next_uint32 hands out the low half first
            yield word >> 32

    words = halves()
    bounds = np.broadcast_to(bounds, shape).tolist()
    rejected = 0
    out = []
    for row in bounds:
        out.append([])
        for b in row:
            m = 0
            if b > 1:  # a bound of 1 takes no word
                m = next(words) * b
                while m & 0xFFFFFFFF < 2**32 % b:
                    rejected += 1
                    m = next(words) * b
            out[-1].append(m >> 32)
    return out, rejected


def _assert_integers_match_numpy(bounds, shape, seed):
    stream = SeededStream(seed, 17)
    expected = stream.generator().integers(0, bounds, shape)
    got = _integers(stream.generator(), bounds, np.empty(shape, dtype=np.uint64))
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert (got == expected).all()
    reference, rejected = _lemire_reference(stream.generator(), bounds, shape)
    assert got.tolist() == reference
    return rejected


def test_integers_matches_numpy_on_random_bounds():
    rng = np.random.default_rng(3)
    for seed in range(40):
        rows, t = int(rng.integers(1, 14)), int(rng.integers(0, 40))
        scalar = int(rng.integers(1, 10**6))
        _assert_integers_match_numpy(scalar, (rows, t), seed)
        _assert_integers_match_numpy(scalar + np.arange(t), (rows, t), seed)
        _assert_integers_match_numpy(rng.integers(1, 2**32, t), (rows, t), seed)


def test_integers_replays_rejections_at_large_bounds():
    # above 2^31 a word is rejected with probability up to one half, so
    # nearly every block here is one that numpy draws after a re-key
    rng = np.random.default_rng(4)
    rejected = 0
    for seed in range(20):
        rows, t = int(rng.integers(1, 14)), int(rng.integers(1, 40))
        rejected += _assert_integers_match_numpy(
            rng.integers(2**31, 2**32 - 1, t), (rows, t), seed)
        rejected += _assert_integers_match_numpy(
            int(rng.integers(2**31, 2**32 - 1)), (rows, t), seed)
    assert rejected > 0
    _assert_integers_match_numpy(MAX_BOUND, (3, 5), 1)


@pytest.mark.parametrize("rows", range(1, 14))
def test_integers_edge_shapes(rows):
    for t in (0, 1, 2, 9):
        assert _assert_integers_match_numpy(1, (rows, t), rows) == 0  # takes no word
        _assert_integers_match_numpy(1 + np.arange(t), (rows, t), rows)  # a bound-1 column
        _assert_integers_match_numpy(1000 + np.arange(t), (rows, t), rows)


@pytest.mark.parametrize("bounds", [0, MAX_BOUND + 1, np.array([5, 0, 7]),
                                    np.array([5, MAX_BOUND + 1, 7])])
def test_integers_rejects_bounds_outside_its_domain(bounds):
    with pytest.raises(ValueError, match="bounds"):
        _integers(SeededStream(1).generator(), bounds, np.empty((2, 3), dtype=np.uint64))


class _CountingGenerator(np.random.Generator):
    """A Generator that counts its `integers` calls."""

    calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return super().integers(*args, **kwargs)


@pytest.mark.parametrize("draw, t", [(mb_counts, 1525), (be_counts, 1625)])
def test_sweep_blocks_mostly_take_the_raw_word_path(draw, t):
    # a block that takes numpy's path gives the same counts, so only the
    # calls show which path ran; about 1 % of blocks at n = 1000 reject a word
    n, rows, blocks = 1000, thresholds._block_rows(1000, t), 200
    rng = _CountingGenerator(SeededStream(1).generator().bit_generator)
    for block in range(blocks):
        rekey(rng, 1, t * 2**32 + block)
        draw(n, t, rng, rows)
    assert rng.calls <= 0.05 * blocks


@pytest.mark.parametrize("n", [1, 2, 3, 50, 1000])
def test_block_counts_match_the_per_row_reference(n):
    # each block is drawn with its own buffers and through one set three rows
    # longer, whose row offsets both kernels share, each with its own stride
    for t, rows in ((0, 3), (1, 1), (7, 13), (1600, 5)):
        stream = SeededStream(n, t)
        mb_picks = stream.generator().integers(0, n, (rows, t))
        be_picks = stream.generator().integers(0, n + np.arange(t), (rows, t))
        for buffers in (None, DrawBuffers(n, t, rows + 3)):
            assert mb_counts(n, t, stream.generator(), rows, buffers).tolist() == [
                np.bincount(row, minlength=n).tolist() for row in mb_picks]
            assert be_counts(n, t, stream.generator(), rows, buffers).tolist() == [
                urn_counts(n, row).tolist() for row in be_picks.tolist()]


@pytest.mark.parametrize("t", [0, 1, 5, 1600, 2500])
def test_be_counts_matches_the_ball_by_ball_urn(t):
    for seed in range(40):
        stream = SeededStream(seed, t)
        expected = _polya_reference(1000, t, stream.generator())
        assert be_counts(1000, t, stream.generator()).tolist() == [expected.tolist()]
        assert cp.sample_be_polya(1000, t, stream).pebbles == tuple(expected.tolist())


@pytest.mark.parametrize("draw", [mb_counts, be_counts])
def test_a_row_does_not_depend_on_the_rows_after_it(draw):
    for n, t in ((300, 200), (5, 40), (1, 3), (7, 0)):
        block = draw(n, t, SeededStream(4, 9).generator(), 7)
        assert block.shape == (7, n) and (block.sum(axis=1) == t).all()
        for rows in (1, 3, 6):
            assert (draw(n, t, SeededStream(4, 9).generator(), rows) == block[:rows]).all()


@pytest.mark.parametrize("draw", [mb_counts, be_counts])
def test_kernels_draw_empty_rows_on_no_vertices(draw):
    # no pebbles on no vertices, as the single samplers give: a row stride of 0
    for rows in (1, 4):
        for buffers in (None, DrawBuffers(0, 0, rows + 2)):
            assert draw(0, 0, SeededStream(1).generator(), rows, buffers).shape == (rows, 0)


@pytest.mark.parametrize("sampler", [cp.sample_mb, cp.sample_be_polya,
                                     cp.sample_be_stars_and_bars])
def test_sampler_degenerate_cases(sampler):
    assert sampler(1, 9, SeededStream(1)).pebbles == (9,)
    assert sampler(4, 0, SeededStream(1)).pebbles == (0, 0, 0, 0)
    assert sampler(0, 0, SeededStream(1)).pebbles == ()  # no pebbles on no vertices
    assert sampler(3, 7, SeededStream(5)).total == 7
    with pytest.raises(ValueError):
        sampler(0, 3, SeededStream(1))


def test_mb_split_frequency():
    # two pebbles on two vertices: 4 equally likely labeled outcomes,
    # two of which split 1/1
    hits = sum(
        cp.sample_mb(2, 2, SeededStream(42, i)).pebbles == (1, 1) for i in range(100_000)
    )
    assert abs(hits / 100_000 - 0.5) < 0.01


def test_polya_uniform_over_small_compositions():
    freq = Counter(cp.sample_be_polya(2, 2, SeededStream(7, i)).pebbles
                   for i in range(30000))
    for pebbles in [(2, 0), (1, 1), (0, 2)]:
        assert abs(freq[pebbles] / 30000 - 1 / 3) < 0.015
    freq = Counter(cp.sample_be_polya(3, 2, SeededStream(8, i)).pebbles
                   for i in range(60000))
    assert len(freq) == 6
    for count in freq.values():
        assert abs(count / 60000 - 1 / 6) < 0.01


def test_polya_agrees_with_stars_and_bars():
    # two independent routes to the same distribution (n=3, t=4: 15 compositions)
    a = Counter(cp.sample_be_polya(3, 4, SeededStream(11, i)).pebbles
                for i in range(20000))
    b = Counter(cp.sample_be_stars_and_bars(3, 4, SeededStream(12, i)).pebbles
                for i in range(20000))
    assert set(a) == set(b) == set(compositions(4, 3))
    tv = 0.5 * sum(abs(a[key] / 20000 - b[key] / 20000) for key in a)
    assert tv < 0.03


def test_pmf_examples():
    assert cp.be_odd_stack_pmf(2, 2, 0) == Fraction(2, 3)
    assert cp.be_odd_stack_pmf(2, 2, 2) == Fraction(1, 3)
    assert cp.be_odd_stack_pmf(5, 4, 3) == 0  # parity mismatch
    assert cp.be_odd_stack_pmf(3, 10, 5) == 0  # x > n would need 5 odd stacks on 3 vertices
    with pytest.raises(ValueError):
        cp.be_odd_stack_pmf(0, 2, 0)


def test_pmf_matches_composition_enumeration():
    for n in range(1, 4):
        for t in range(0, 7):
            counts = Counter(sum(1 for p in combo if p % 2)
                             for combo in compositions(t, n))
            total = sum(counts.values())
            for x in range(0, t + 2):
                assert cp.be_odd_stack_pmf(n, t, x) == Fraction(counts.get(x, 0), total)


def test_pmf_normalizes_small():
    for n in range(1, 13):
        for t in range(0, 13):
            total = sum(cp.be_odd_stack_pmf(n, t, x) for x in range(0, min(n, t) + 1))
            assert total == 1


def _mb_enumerated_moments(n, t):
    outcomes = 0
    first = 0
    second = 0
    for assignment in product(range(n), repeat=t):
        counts = [0] * n
        for v in assignment:
            counts[v] += 1
        x = sum(1 for c in counts if c % 2)
        outcomes += 1
        first += x
        second += x * x
    mean = first / outcomes
    return mean, second / outcomes - mean * mean


@pytest.mark.parametrize("n,t", [(2, 2), (3, 3), (4, 2), (2, 5), (5, 3)])
def test_mb_moment_formulas_match_enumeration(n, t):
    mean, variance = _mb_enumerated_moments(n, t)
    assert math.isclose(cp.mb_expected_odd_stacks(n, t), mean, abs_tol=1e-12)
    assert math.isclose(cp.mb_variance_odd_stacks(n, t), variance, abs_tol=1e-12)


def test_mb_moment_edge_values():
    assert cp.mb_expected_odd_stacks(7, 0) == 0
    assert cp.mb_expected_odd_stacks(4, 1) == 1
    assert cp.mb_expected_odd_stacks(2, 2) == 1
    assert cp.mb_variance_odd_stacks(5, 0) == 0
    assert abs(cp.mb_variance_odd_stacks(9, 1)) < 1e-12  # X is identically 1
    assert cp.mb_variance_odd_stacks(2, 2) == 1


def test_be_exact_expectation():
    assert cp.be_expected_odd_stacks_exact(2, 2) == Fraction(2, 3)
    assert cp.be_expected_odd_stacks_exact(1, 3) == 1
    assert cp.be_expected_odd_stacks_exact(1, 2) == 0
    for n in range(1, 5):
        for t in range(0, 7):
            combos = list(compositions(t, n))
            expected = Fraction(sum(sum(1 for p in combo if p % 2) for combo in combos),
                                len(combos))
            assert cp.be_expected_odd_stacks_exact(n, t) == expected


def test_be_approx_expectation():
    assert cp.be_expected_odd_stacks_approx(100, 162) == 16200 / 424
    assert cp.be_expected_odd_stacks_approx(9, 0) == 0.0
    assert abs(cp.be_expected_odd_stacks_approx(1, 10**9) - 0.5) < 1e-8
    # leading-order accuracy against the exact sum
    exact = float(cp.be_expected_odd_stacks_exact(100, 162))
    assert abs(cp.be_expected_odd_stacks_approx(100, 162) - exact) / exact < 0.05


def test_threshold_constants():
    a0 = cp.mb_threshold_constant()
    # true root is 1.52373924551...; the widely quoted 4-decimal display
    # 1.5238 is off by 6.4e-5 in equation residual, so match it only to
    # one unit in its last printed digit
    assert round(a0, 5) == 1.52374
    assert abs(a0 - 1.5238) < 1e-4
    assert abs(a0 - 0.5 * math.exp(-2 * a0) - 1.5) < 1e-10
    f = lambda a: a - 0.5 * math.exp(-2 * a) - 1.5
    assert f(1.5) < 0 < f(2.0)

    gamma = cp.be_threshold_constant()
    assert abs(gamma - 1.6180339887) < 1e-9
    assert abs(gamma * gamma - gamma - 1) < 1e-12
    assert abs((2 - gamma) - gamma / (1 + 2 * gamma)) < 1e-12


@pytest.mark.parametrize("draw", [mb_counts, be_counts])
def test_reused_buffers_give_the_counts_of_fresh_ones(draw):
    # full and short blocks through one set; at n = 2 * 10^5 about half the
    # blocks are drawn by numpy, between blocks computed from raw words
    for n, t, rows in ((1000, 1600, 12), (7, 30, 5), (200_000, 5000, 3), (3, 0, 2), (1, 2, 1)):
        buffers = DrawBuffers(n, t, rows)
        sizes = (rows, 1, rows, rows - 1, rows, rows, min(2, rows), rows)
        numpy_drawn = 0
        for block, size in enumerate(sizes):
            fresh = draw(n, t, SeededStream(block, n).generator(), size)
            rng = _CountingGenerator(SeededStream(block, n).generator().bit_generator)
            assert (draw(n, t, rng, size, buffers) == fresh).all()
            numpy_drawn += rng.calls
        if n == 200_000:
            assert 0 < numpy_drawn < len(sizes)


def test_buffers_refuse_a_block_they_do_not_fit():
    buffers = DrawBuffers(10, 20, 3)
    for draw in (mb_counts, be_counts):
        for n, t, rows in ((11, 20, 1), (10, 19, 1), (10, 20, 4)):
            with pytest.raises(ValueError, match="cannot hold"):
                draw(n, t, SeededStream(1).generator(), rows, buffers)
