"""How each per-layer metric is derived from spans and counts.

The metric names, units and bounds are declared in BENCHMARK.json; this
module computes the values.
"""

from __future__ import annotations

from statistics import median

from .tracing import duration, module_self_seconds

MODULES = ("graphs", "stacking", "solvability", "sampling", "thresholds", "reduction", "cli")
FAST_PATHS = ("all-covered", "trivial-deficit", "complete-graph", "stacking-bound", "search")

# exact counts; a count the workload never makes reads 0
COUNTERS = (
    "graphs.dist_pairs",
    "graphs.dist_bytes_computed",
    "stacking.weight_terms",
    "solvability.nodes",
    *(f"solvability.fast_path.{tag}" for tag in FAST_PATHS),
    "solvability.undecided",
    "sampling.draws",
    "thresholds.solvable_count",
)


def _median_or_zero(values) -> float:
    # a layer the workload never calls reports 0
    return median(values) if values else 0.0


def layer_metrics(pass_spans, side_spans, traced_passes: int, counts: dict, extra: dict,
                  scale=lambda at: 1.0) -> dict:
    """Every per-layer value from the traced spans, exact counts and extras.

    `pass_spans` are the spans of the `traced_passes` traced passes;
    `side_spans` those of set-up, checks and traced-run-only extras.  Module
    self times are per traced pass, from `pass_spans` alone; the other
    timings take both.  `scale(at)` converts a second at perf_counter time
    `at` to a second at reference speed.  `counts` holds the exact counts;
    `extra` holds values the workload measured itself (cli.overhead_s,
    trace.overhead_ms and the oracle tally).
    """
    def length(span):
        return duration(span) * scale((span["start"] + span["end"]) / 2)

    def lengths(name):
        return [length(s) for s in spans if s["name"] == name]

    spans = [*pass_spans, *side_spans]
    own = module_self_seconds(pass_spans, length)
    out = {f"{m}.self_s": own.get(m, 0.0) / traced_passes for m in MODULES}
    # The passes reach the sampler only inside thresholds.sweep, whose span
    # holds its time.  The sampler's own time per pass is taken from the
    # stream-by-stream replay: its time per replayed trial, times the trials
    # of one pass.
    for model, pass_trials in extra.get("sweep_trials", {}).items():
        replay = [s for s in side_spans
                  if s.get("model") == model and s["name"].startswith("sampling.")]
        trials = sum(s["name"] == "sampling.SeededStream.generator" for s in replay)
        out["sampling.self_s"] += sum(length(s) for s in replay) / trials * pass_trials
    # the passes never call the CLI: its self time is that of one traced-run
    # `coverpebble lambda` call, a span without children
    out["cli.self_s"] = _median_or_zero(lengths("cli.run_cli"))

    # build_graph and lambda spans tagged with a graph name are the large
    # graphs; untagged lambda spans are the small corpus graphs
    out["graphs.build_s"] = _median_or_zero(lengths("graphs.build_graph"))
    out["graphs.components_us"] = 1e6 * _median_or_zero(lengths("graphs.Graph.components"))
    lam = [s for s in spans if s["name"] == "stacking.cover_pebbling_number"]
    out["stacking.lambda_s"] = _median_or_zero([length(s) for s in lam if "graph" in s])
    out["stacking.lambda_us_per_graph"] = 1e6 * _median_or_zero(
        [length(s) for s in lam if "graph" not in s])

    searched = [s for s in spans if s["name"] == "solvability.solve" and s.get("nodes")]
    nodes = sum(s["nodes"] for s in searched)
    out["solvability.us_per_node"] = (
        1e6 * sum(length(s) for s in searched) / nodes if nodes else 0.0)
    out["solvability.verify_us"] = 1e6 * _median_or_zero(
        lengths("solvability.verify_certificate"))
    out["solvability.execute_s"] = _median_or_zero(lengths("solvability.execute_certificate"))
    out["solvability.apply_s"] = _median_or_zero(lengths("solvability.apply_moves"))
    checked = extra.get("oracle_checked", 0)
    out["solvability.oracle_agree_frac"] = (
        extra.get("oracle_agreed", 0) / checked if checked else 0.0)

    out["sampling.keying_us"] = 1e6 * _median_or_zero(
        lengths("sampling.SeededStream.generator"))
    out["sampling.mb_draw_us"] = 1e6 * _median_or_zero(lengths("sampling.mb_counts"))
    out["sampling.be_draw_us"] = 1e6 * _median_or_zero(lengths("sampling.be_counts"))
    points = [s for s in spans if s["name"] == "thresholds.sweep"]
    for model in ("mb", "be"):
        out[f"thresholds.trial_us.{model}"] = 1e6 * _median_or_zero(
            [length(s) / s["trials"] for s in points if s["model"] == model])
    out["thresholds.point_s"] = _median_or_zero([length(s) for s in points])

    out["reduction.build_s"] = _median_or_zero(lengths("reduction.build_reduction"))
    out["reduction.xcover_s"] = _median_or_zero(lengths("reduction.exact_cover_bruteforce"))
    out["reduction.witness_s"] = _median_or_zero(lengths("reduction.cover_witness_certificate"))

    out["cli.lambda_s"] = _median_or_zero(lengths("cli.run_cli"))
    out["cli.overhead_s"] = extra.get("cli.overhead_s", 0.0)
    out["trace.overhead_ms"] = extra["trace.overhead_ms"]
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    return out
