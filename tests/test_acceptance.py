"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np

import coverpebbling as cp
from coverpebbling.sampling import RandomModel, SeededStream
from coverpebbling.thresholds import curve_to_csv, sweep
from conftest import (
    compositions,
    descending_part_vectors,
    random_configuration,
    random_connected_graph,
)

SEED = 20240811


def _report(number: int, name: str, problems: list) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {number:02d} ({name}): {status}", flush=True)
    assert not problems, f"criterion {number} ({name}): " + "; ".join(map(str, problems))


def test_criterion_01_closed_form_cover_numbers():
    start = time.monotonic()
    problems = []
    for n in range(1, 13):
        if cp.cover_pebbling_number(cp.complete_graph(n)).cover_number != 2 * n - 1:
            problems.append(f"K_{n}")
    for n in range(1, 17):
        if cp.cover_pebbling_number(cp.path_graph(n)).cover_number != 2**n - 1:
            problems.append(f"P_{n}")
    for d in range(0, 9):
        if cp.cover_pebbling_number(cp.cube_graph(d)).cover_number != 3**d:
            problems.append(f"Q^{d}")
    for parts in descending_part_vectors(10):
        if len(parts) == 1 and parts[0] > 1:
            continue  # single-part "multipartite" graphs have no edges
        got = cp.cover_pebbling_number(cp.complete_multipartite(parts)).cover_number
        if got != 4 * parts[0] + 2 * sum(parts[1:]) - 3:
            problems.append(f"K_{parts}")
    elapsed = time.monotonic() - start
    if elapsed >= 5:
        problems.append(f"runtime {elapsed:.1f}s >= 5s")
    _report(1, "closed-form cover number suite", problems)


def test_criterion_02_complete_graph_criterion_vs_bruteforce():
    start = time.monotonic()
    problems = []
    for n in (2, 3, 4):
        g = cp.complete_graph(n)
        for t in range(0, 11):
            for pebbles in compositions(t, n):
                c = cp.Configuration(pebbles)
                if cp.complete_graph_solvable(n, c) != cp.solve_bruteforce(g, c):
                    problems.append(f"K_{n} {pebbles}")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(2, "complete-graph criterion equals brute force", problems)


def test_criterion_03_general_solver_equivalence():
    start = time.monotonic()
    problems = []
    rng = random.Random(SEED)
    for trial in range(500):
        g = random_connected_graph(rng, max_vertices=5)
        c = random_configuration(rng, g.vertex_count, max_total=10)
        result = cp.solve(g, c)
        if result.undecided or result.solvable != cp.solve_bruteforce(g, c):
            problems.append(f"trial {trial}: {g.edges} {c.pebbles} -> {result.status}")
            continue
        if result.solvable:
            if not cp.verify_certificate(g, c, result.certificate):
                problems.append(f"trial {trial}: certificate rejected")
                continue
            seq = cp.execute_certificate(g, c, result.certificate)
            if min(cp.apply_moves(g, c, seq).pebbles) < 1:
                problems.append(f"trial {trial}: replay left a vertex uncovered")
    elapsed = time.monotonic() - start
    if elapsed >= 120:
        problems.append(f"runtime {elapsed:.1f}s >= 120s")
    _report(3, "solver equals brute force with sound certificates", problems)


def test_criterion_04_partial_executions_stay_solvable():
    start = time.monotonic()
    problems = []
    rng = random.Random(SEED + 4)
    done = 0
    while done < 200:
        g = random_connected_graph(rng, max_vertices=5)
        c = random_configuration(rng, g.vertex_count, max_total=10)
        result = cp.solve(g, c)
        if result.undecided or not result.solvable or not result.certificate.moves:
            continue
        seq = cp.execute_certificate(g, c, result.certificate)
        current = list(c.pebbles)
        taken = []
        for move in seq:
            if rng.random() < 0.5 and current[move[0]] >= 2:
                taken.append(move)
                current[move[0]] -= 2
                current[move[1]] += 1
        residual = cp.apply_moves(g, c, taken)
        if not cp.solve(g, residual).solvable:
            problems.append(f"residual {residual.pebbles} of {c.pebbles} unsolvable")
        done += 1
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(4, "partial executions leave solvable residuals", problems)


def test_criterion_05_distribution_exactness():
    start = time.monotonic()
    problems = []
    for n in range(1, 31):
        for t in range(0, 31):
            total = sum(
                (cp.be_odd_stack_pmf(n, t, x) for x in range(0, min(n, t) + 1)),
                Fraction(0),
            )
            if total != 1:
                problems.append(f"pmf({n},{t}) sums to {total}")
    for n in range(1, 5):
        for t in range(0, 9):
            counts = Counter(
                sum(1 for p in combo if p % 2) for combo in compositions(t, n)
            )
            denominator = sum(counts.values())
            for x in range(0, t + 2):
                expected = Fraction(counts.get(x, 0), denominator)
                if cp.be_odd_stack_pmf(n, t, x) != expected:
                    problems.append(f"pmf({n},{t},{x})")
    elapsed = time.monotonic() - start
    if elapsed >= 30:
        problems.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(5, "exact pmf normalization and enumeration match", problems)


def test_criterion_06_polya_uniformity():
    start = time.monotonic()
    problems = []
    n, t, samples = 3, 4, 100_000
    freq = Counter(
        cp.sample_be_polya(n, t, SeededStream(SEED, i)).pebbles for i in range(samples)
    )
    support = list(compositions(t, n))
    if set(freq) - set(support):
        problems.append("samples outside the composition support")
    uniform = 1.0 / len(support)
    tv = 0.5 * sum(abs(freq.get(key, 0) / samples - uniform) for key in support)
    if tv >= 0.02:
        problems.append(f"total variation {tv:.4f} >= 0.02")
    elapsed = time.monotonic() - start
    if elapsed >= 10:
        problems.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(6, "Polya sampler uniform over compositions", problems)


def test_criterion_07_mb_moments():
    start = time.monotonic()
    problems = []
    n, t, samples = 50, 76, 100_000
    xs = np.empty(samples)
    for i in range(samples):
        counts = cp.sample_mb(n, t, SeededStream(SEED + 7, i)).pebbles
        xs[i] = sum(1 for p in counts if p % 2)
    mean_formula = cp.mb_expected_odd_stacks(n, t)
    var_formula = cp.mb_variance_odd_stacks(n, t)
    mean_se = math.sqrt(var_formula / samples)
    if abs(xs.mean() - mean_formula) > 4 * mean_se:
        problems.append(f"mean {xs.mean():.4f} vs {mean_formula:.4f} (se {mean_se:.4f})")
    sample_var = xs.var()
    fourth = ((xs - xs.mean()) ** 4).mean()
    var_se = math.sqrt(max(fourth - sample_var**2, 0.0) / samples)
    if abs(sample_var - var_formula) > 4 * var_se:
        problems.append(f"variance {sample_var:.4f} vs {var_formula:.4f} (se {var_se:.4f})")
    elapsed = time.monotonic() - start
    if elapsed >= 10:
        problems.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(7, "Maxwell-Boltzmann moment formulas", problems)


def test_criterion_08_threshold_constants():
    problems = []
    a0 = cp.mb_threshold_constant()
    if abs(a0 - 0.5 * math.exp(-2.0 * a0) - 1.5) >= 1e-10:
        problems.append("A0 equation residual above 1e-10")
    # the root is 1.52373924551..., so exact rounding to 4 decimals gives
    # 1.5237; the quoted display 1.5238 is matched to one unit in its last
    # printed digit (see decisions ledger)
    if abs(a0 - 1.5238) >= 1e-4:
        problems.append(f"A0 {a0!r} not within 1e-4 of 1.5238")
    gamma = cp.be_threshold_constant()
    if abs(gamma - 1.618033989) >= 1e-6:
        problems.append(f"gamma {gamma!r}")
    if abs((2 - gamma) - gamma / (1 + 2 * gamma)) >= 1e-10:
        problems.append("gamma identity residual above 1e-10")
    _report(8, "threshold constants", problems)


def test_criterion_09_threshold_reproduction():
    problems = []
    n, trials = 1000, 2000
    start = time.monotonic()
    mb = sweep(RandomModel.MAXWELL_BOLTZMANN, n, 1400, 1650, 10, trials, SEED)
    be = sweep(RandomModel.BOSE_EINSTEIN, n, 1500, 1750, 10, trials, SEED)
    elapsed = time.monotonic() - start
    if elapsed >= 120:
        problems.append(f"single-worker runtime {elapsed:.1f}s >= 120s")

    mb_p = {r.t: r.p_hat for r in mb.records}
    if mb_p[1400] > 0.05:
        problems.append(f"MB p(1400) = {mb_p[1400]}")
    if mb_p[1650] < 0.95:
        problems.append(f"MB p(1650) = {mb_p[1650]}")
    mb_cross = mb.crossing
    if mb_cross is None or not 1.48 <= mb_cross / n <= 1.57:
        problems.append(f"MB crossing {mb_cross}")

    be_p = {r.t: r.p_hat for r in be.records}
    if be_p[1500] > 0.05:
        problems.append(f"BE p(1500) = {be_p[1500]}")
    if be_p[1750] < 0.95:
        problems.append(f"BE p(1750) = {be_p[1750]}")
    be_cross = be.crossing
    if be_cross is None or not 1.57 <= be_cross / n <= 1.67:
        problems.append(f"BE crossing {be_cross}")

    # bit-identical CSV for a re-run and for a different worker count
    mb_again = sweep(RandomModel.MAXWELL_BOLTZMANN, n, 1400, 1650, 10, trials, SEED,
                     workers=2)
    be_again = sweep(RandomModel.BOSE_EINSTEIN, n, 1500, 1750, 10, trials, SEED,
                     workers=2)
    if curve_to_csv(mb, True) != curve_to_csv(mb_again, True):
        problems.append("MB CSV differs across runs/worker counts")
    if curve_to_csv(be, True) != curve_to_csv(be_again, True):
        problems.append("BE CSV differs across runs/worker counts")
    _report(9, "threshold reproduction at n=1000", problems)


def test_criterion_10_reduction_equivalence():
    problems = []
    figure = cp.X4CInstance(8, [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7]])
    built = cp.build_reduction(figure)
    labels = {name: i for i, name in built.labels.items()}
    if built.graph.vertex_count != 19:
        problems.append(f"figure instance has {built.graph.vertex_count} vertices")
    if built.graph.edge_count != 22:
        problems.append(f"figure instance has {built.graph.edge_count} edges")
    if built.config[labels["v"]] != 2:
        problems.append(f"collector holds {built.config[labels['v']]} pebbles")

    start = time.monotonic()
    positive = cp.solve(built.graph, built.config)
    positive_elapsed = time.monotonic() - start
    if positive.undecided or not positive.solvable:
        problems.append(f"figure instance reported {positive.status}")
    elif not cp.verify_certificate(built.graph, built.config, positive.certificate):
        problems.append("figure instance certificate rejected")
    if positive_elapsed >= 60:
        problems.append(f"positive runtime {positive_elapsed:.1f}s >= 60s")
    if cp.exact_cover_bruteforce(figure) is None:
        problems.append("exact-cover oracle missed the figure cover")

    negative = cp.X4CInstance(8, [[0, 1, 2, 3], [3, 4, 5, 6], [0, 5, 6, 7]])
    built_neg = cp.build_reduction(negative)
    start = time.monotonic()
    refuted = cp.solve(built_neg.graph, built_neg.config, budget=10**7)
    negative_elapsed = time.monotonic() - start
    if refuted.status != cp.UNSOLVABLE:
        problems.append(f"negative instance reported {refuted.status} "
                        f"after {refuted.nodes_expanded} nodes")
    if refuted.nodes_expanded > 10**7:
        problems.append(f"negative search used {refuted.nodes_expanded} nodes")
    if negative_elapsed >= 900:
        problems.append(f"negative runtime {negative_elapsed:.1f}s >= 900s")
    if cp.exact_cover_bruteforce(negative) is not None:
        problems.append("exact-cover oracle found a cover in the negative instance")
    _report(10, "hardness gadget equivalence", problems)


def test_criterion_11_safety_anchors():
    problems = []
    for n in (5, 50, 500):
        for model in RandomModel:
            for seed in (1, SEED):
                high = cp.sweep(model, n, 2 * n - 1, 2 * n - 1, 1, 300, seed).records[0]
                if high.p_hat != 1.0:
                    problems.append(f"{model.value} n={n} seed={seed} at 2n-1: {high.p_hat}")
                low = cp.sweep(model, n, n - 1, n - 1, 1, 300, seed).records[0]
                if low.p_hat != 0.0:
                    problems.append(f"{model.value} n={n} seed={seed} at n-1: {low.p_hat}")
    _report(11, "exactness anchors", problems)
