"""Tests of the benchmark itself: PYTHONPATH=src python3 -m pytest -q perfbench"""

import json
import random
from pathlib import Path

import pytest

import coverpebbling as cp
from coverpebbling.sampling import RandomModel
from coverpebbling import graphs
from perfbench import workloads
from perfbench.checks import be_solvable_probability, check_solve, sweep_problems
from perfbench.counting import counting
from perfbench.metrics import layer_metrics
from perfbench.speed import REFERENCE_S, SpeedProbe
from perfbench.stats import FOUR_SIGMA_ALPHA, binomial_two_sided_p, tail
from perfbench.tracing import Tracer, module_self_seconds, self_times
from perfbench.workloads import WORKLOADS, GadgetRefute, SolveCorpus, thinned_configuration

ROOT = Path(__file__).resolve().parent.parent


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 1001))
    random.Random(0).shuffle(values)
    assert tail(values) == (990, 99)
    assert sum(v > tail(values)[0] for v in values) == 10
    assert tail(range(1, 41)) == (30, 75)
    assert tail(range(1, 12)) == (1, 100 / 11)
    with pytest.raises(ValueError):
        tail(range(1, 11))  # 10 samples leave none with 10 beyond it


def test_binomial_band_matches_four_sigma_and_edges():
    assert FOUR_SIGMA_ALPHA == pytest.approx(6.334e-5, rel=1e-3)
    assert binomial_two_sided_p(100, 200, 0.5) == 1.0
    assert binomial_two_sided_p(0, 200, 0.5) < 1e-50
    # near p = 0 one success is not an outlier, although it is over 4 normal sigmas
    assert binomial_two_sided_p(1, 200, 1e-4) > 0.01


def _path_instance():
    g = cp.path_graph(3)  # cover number 7: seven pebbles on an end vertex suffice
    return g, cp.Configuration([7, 0, 0])


def test_undecided_verdict_is_a_failure(monkeypatch):
    g, c = cp.cycle_graph(6), cp.Configuration([12, 0, 0, 0, 0, 0])
    result = cp.solve(g, c, budget=1)
    assert result.undecided
    verdict = check_solve(g, c, result)
    assert verdict.problems and "undecided" in verdict.problems[0]

    monkeypatch.setattr(workloads, "CORPUS_REPEATS", 3)
    corpus = SolveCorpus()
    corpus.setup(7, Tracer())
    corpus.instances[0] = (g, c)
    outcomes = [latency_and_result[1] for latency_and_result in corpus.cycle(Tracer())]
    outcomes[0] = result
    assert len(corpus.check(outcomes, Tracer())) == 1
    assert corpus.counts()["solvability.undecided"] == 1


def test_certificate_replay_accepts_a_true_verdict():
    g, c = _path_instance()
    result = cp.solve(g, c)
    assert result.status == cp.SOLVABLE
    assert check_solve(g, c, result).problems == []


def test_tampered_certificate_is_rejected():
    g, c = _path_instance()
    result = cp.solve(g, c)
    moves = dict(result.certificate.moves)
    moves[(0, 1)] -= 1
    tampered = cp.SolveResult(cp.SOLVABLE, cp.MoveCertificate(moves), 0, "search")
    assert check_solve(g, c, tampered).problems
    off_edge = cp.SolveResult(cp.SOLVABLE, cp.MoveCertificate({(0, 2): 1}), 0, "search")
    assert check_solve(g, c, off_edge).problems


def test_flipped_verdicts_are_rejected():
    g, c = _path_instance()
    flipped = cp.SolveResult(cp.UNSOLVABLE, None, 0, "search")
    verdict = check_solve(g, c, flipped)
    assert verdict.oracle_checked and not verdict.oracle_agrees and verdict.problems

    short = cp.Configuration([6, 0, 0])
    assert cp.solve(g, short).status == cp.UNSOLVABLE
    claimed = cp.SolveResult(cp.SOLVABLE, cp.MoveCertificate({(0, 1): 1}), 0, "search")
    assert check_solve(g, short, claimed).problems
    assert check_solve(g, short, cp.SolveResult(cp.SOLVABLE, None, 0, "search")).problems


def _records(model, n, counts, trials):
    return [cp.SweepRecord(model, n, t, trials, k, 1) for t, k in counts.items()]


def test_sweep_checks_flag_a_biased_point_and_a_moved_crossing():
    n, trials = 20, 400
    ts = range(20, 41, 2)
    exact = {t: be_solvable_probability(n, t) for t in ts}
    fair = {t: round(float(p) * trials) for t, p in exact.items()}
    records = _records(RandomModel.BOSE_EINSTEIN, n, fair, trials)
    crossing = cp.ThresholdCurve(tuple(records)).crossing / n
    window = (crossing - 0.05, crossing + 0.05)
    assert sweep_problems(records, window, exact) == []

    biased = dict(fair)
    biased[30] = min(trials, fair[30] + 120)
    problems = sweep_problems(_records(RandomModel.BOSE_EINSTEIN, n, biased, trials),
                              window, exact)
    assert any("beyond 4 sigma" in p for p in problems)
    assert any("crossing" in p for p in sweep_problems(records, (0.1, 0.2)))


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("solvability.solve"):
        with tracer.span("graphs.Graph.components"):
            pass
        with tracer.span("stacking.cover_pebbling_number"):
            pass
    own = self_times(tracer.spans)
    outer, first, second = tracer.spans
    assert first["parent"] == outer["id"] and second["parent"] == outer["id"]
    total = outer["end"] - outer["start"]
    assert sum(own.values()) == pytest.approx(total)
    assert set(module_self_seconds(tracer.spans)) == {"solvability", "graphs", "stacking"}


def test_gadget_refutation_work_does_not_depend_on_the_seed():
    nodes = set()
    for seed in (1, 2):
        gadget = GadgetRefute()
        gadget.setup(seed, Tracer())
        built = cp.build_reduction(gadget.copies[0]["refute"])
        result = cp.solve(built.graph, thinned_configuration(built))
        assert result.status == cp.UNSOLVABLE
        nodes.add(result.nodes_expanded)
    assert len(nodes) == 1


def test_every_declared_metric_is_computed():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    values = layer_metrics([], [], 1, {}, {"trace.overhead_ms": 0.0})
    assert {m["name"] for m in declared["per_layer"]} <= set(values)


def _pass_spans(passes):
    """`passes` copies of one pass: a 3 s solve holding a 1 s components call."""
    spans = []
    for k in range(passes):
        t = 10.0 * k
        spans.append({"id": len(spans), "name": "solvability.solve", "op": k, "parent": None,
                      "start": t, "end": t + 3.0})
        spans.append({"id": len(spans), "name": "graphs.Graph.components", "op": k,
                      "parent": spans[-1]["id"], "start": t + 1.0, "end": t + 2.0})
    return spans


def test_self_time_is_per_pass_and_leaves_out_side_spans():
    side = [{"id": 0, "name": "graphs.build_graph", "op": 0, "parent": None,
             "start": 0.0, "end": 5.0}]
    for passes in (2, 3, 4):
        values = layer_metrics(_pass_spans(passes), side, passes, {},
                               {"trace.overhead_ms": 0.0})
        assert values["solvability.self_s"] == pytest.approx(2.0)
        assert values["graphs.self_s"] == pytest.approx(1.0)


def test_counts_follow_the_work_the_package_does():
    g = cp.build_graph(5, [(0, 1), (2, 3), (3, 4)])  # two components: 2 and 3 vertices
    with counting() as counts:
        cp.solve(g, cp.Configuration([2, 2, 3, 0, 3]))
    # solve() builds one subgraph per component, each with its own distances
    assert counts["graphs.dist_pairs"] == 2 * 2 + 3 * 3
    assert counts["graphs.dist_bytes_computed"] == 8 * (2 * 2 + 3 * 3)
    assert graphs._bfs_all_pairs.__name__ == "_bfs_all_pairs"  # shims removed


def test_speed_probe_scales_by_the_nearby_kernel_times():
    probe = SpeedProbe()
    # kernel at twice the reference time until t = 10 s, at the reference time after
    probe.at = [0.1 * i for i in range(200)]
    probe.seconds = [2 * REFERENCE_S if at < 10 else REFERENCE_S for at in probe.at]
    assert probe.scale(5.0) == pytest.approx(0.5)
    assert probe.scale(15.0) == pytest.approx(1.0)
    assert probe.scale(100.0) == pytest.approx(1.0)  # the nearest samples, when none are near
