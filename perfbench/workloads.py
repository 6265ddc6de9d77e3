"""The benchmark's workloads.

Each workload builds its inputs from the seed in `setup`, runs one pass over
them in `cycle` (a generator of one latency sample per operation, so the
harness can work between operations) and checks the outcomes in `check`,
outside the timed section.  The first pass is checked in full; later
passes over the same inputs must reproduce it exactly.  Spans are recorded
around every call into the package, named after the function called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

import coverpebbling as cp
from coverpebbling.cli import run_cli
from coverpebbling.sampling import RandomModel, SeededStream, be_counts, mb_counts

from .checks import be_solvable_probability, check_solve, replay_problems, sweep_problems
from .tracing import duration


def _call(tracer, name, fn, *args, **kwargs):
    with tracer.span(name):
        return fn(*args, **kwargs)


class Workload:
    """One pass over seeded inputs per cycle; subclasses fill in the parts."""

    def __init__(self):
        self.reference = None  # outcome keys of the first pass

    def setup(self, seed: int, tracer) -> None:
        raise NotImplementedError

    def cycle(self, tracer):
        """Run every operation once; yield (latency_s, outcome) per operation."""
        raise NotImplementedError

    def key(self, outcome):
        """The part of an outcome a repeated pass must reproduce exactly."""
        return outcome

    def check_first(self, outcomes, tracer) -> list:
        raise NotImplementedError

    def check(self, outcomes, tracer) -> list:
        if self.reference is None:
            self.reference = [self.key(o) for o in outcomes]
            return self.check_first(outcomes, tracer)
        return [
            f"operation {i} differs from the first pass"
            for i, (o, ref) in enumerate(zip(outcomes, self.reference))
            if self.key(o) != ref
        ]

    def counts(self) -> dict:
        """Exact counts, from the first pass's outcomes."""
        return {}

    def traced_extras(self, tracer, extra: dict, out_dir: Path) -> list:
        """Traced-run-only measurements; returns problems found."""
        return []

    def record(self) -> dict:
        """Facts about the inputs written to the trace file."""
        return {}


# ---------------------------------------------------------------------------
# threshold sweeps on K_1000

N_KN = 1000
# Trials per sweep point.  An MB trial costs about a seventh of a BE trial,
# so MB points take more trials to weigh about as much as BE points in the
# sweep workload's time; otherwise MB would be a sliver of it.
SWEEP_TRIALS = {"mb": 1400, "be": 200}
STREAM_STRIDE = 2**32  # thresholds' stream index for (t, trial) is t * 2^32 + trial
REPLAY_POINTS = 3  # sweep points replayed draw by draw in the traced run

SWEEPS = {
    # model, t grid, acceptance window for crossing / n
    "mb": (RandomModel.MAXWELL_BOLTZMANN, range(1400, 1651, 5), (1.48, 1.57)),
    "be": (RandomModel.BOSE_EINSTEIN, range(1500, 1751, 5), (1.57, 1.67)),
}


class Sweep(Workload):
    """thresholds.sweep at n = 1000, one sweep point per operation."""

    def __init__(self, model_key: str):
        super().__init__()
        self.model_key = model_key
        self.model, self.points, self.window = SWEEPS[model_key]
        self.trials = SWEEP_TRIALS[model_key]
        self.digests = []

    def setup(self, seed, tracer):
        self.seed = seed

    def cycle(self, tracer):
        for t in self.points:
            tracer.begin_op()
            start = time.perf_counter()
            with tracer.span("thresholds.sweep") as span:
                curve = cp.sweep(self.model, N_KN, t, t, 1, self.trials, self.seed)
            latency = time.perf_counter() - start
            span["model"] = self.model_key
            span["trials"] = self.trials
            yield latency, curve.records[0]

    def check(self, outcomes, tracer):
        csv = cp.curve_to_csv(cp.ThresholdCurve(tuple(outcomes)), include_crossing=True)
        self.digests.append(hashlib.sha256(csv.encode()).hexdigest())
        problems = super().check(outcomes, tracer)
        if self.digests[-1] != self.digests[0]:
            problems.append("sweep CSV digest differs between passes of one seed")
        return problems

    def check_first(self, outcomes, tracer):
        exact = None
        if self.model is RandomModel.BOSE_EINSTEIN:
            exact = {t: be_solvable_probability(N_KN, t) for t in self.points}
        return sweep_problems(outcomes, self.window, exact)

    def counts(self):
        return {"thresholds.solvable_count": sum(r.solvable_count for r in self.reference)}

    def traced_extras(self, tracer, extra, out_dir):
        """Replay sampled points stream by stream, timing keying and drawing apart."""
        draw_name, draw = (("sampling.mb_counts", mb_counts) if self.model_key == "mb"
                           else ("sampling.be_counts", be_counts))
        step = (len(self.points) - 1) // (REPLAY_POINTS - 1)
        # trials in one pass, to scale the replay's sampler time to a pass
        extra.setdefault("sweep_trials", {})[self.model_key] = len(self.points) * self.trials
        for t, expected in list(zip(self.points, self.reference))[::step]:
            solvable = 0
            for trial in range(self.trials):
                tracer.begin_op()
                stream = SeededStream(self.seed, t * STREAM_STRIDE + trial)
                with tracer.span("sampling.SeededStream.generator") as keying:
                    rng = stream.generator()
                with tracer.span(draw_name) as drawing:
                    counts = draw(N_KN, t, rng)
                keying["model"] = drawing["model"] = self.model_key
                with tracer.span("thresholds.odd_stack_test"):
                    solvable += int((counts & 1).sum()) + t >= 2 * N_KN
            if solvable != expected.solvable_count:
                # the sweep's stream layout changed; the replayed draws no longer
                # describe it, but the sweep itself may well be correct
                print(f"warning: replay of t={t} found {solvable} solvable trials, "
                      f"the sweep {expected.solvable_count}", file=sys.stderr)
        return []

    def record(self):
        return {"trials_per_point": self.trials, "csv_sha256": self.digests[:1]}


# ---------------------------------------------------------------------------
# solve() on a stratified corpus of small graphs

CORPUS_FAMILIES = ("path", "cycle", "tree", "gnp", "cube", "multipartite", "complete")
CORPUS_SIZES = range(5, 9)  # vertex counts; the cube family is always Q^3
CORPUS_REPEATS = 50  # instances per (family, size) cell
GNP_P = 0.4
SOLVE_BUDGET = 200_000  # node budget of every corpus solve()


def _random_parts(n: int, rng: random.Random) -> list:
    """A random split of n into at least two parts, sorted descending."""
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
    return sorted((b - a for a, b in zip([0] + cuts, cuts + [n])), reverse=True)


def corpus_graph(family: str, n: int, rng: random.Random, tracer):
    if family == "path":
        return _call(tracer, "graphs.path_graph", cp.path_graph, n)
    if family == "cycle":
        return _call(tracer, "graphs.cycle_graph", cp.cycle_graph, n)
    if family == "tree":
        return _call(tracer, "graphs.random_tree", cp.random_tree, n, rng.getrandbits(63))
    if family == "gnp":
        return _call(tracer, "graphs.gnp_random_graph", cp.gnp_random_graph,
                     n, GNP_P, rng.getrandbits(63))
    if family == "cube":
        return _call(tracer, "graphs.cube_graph", cp.cube_graph, 3)
    if family == "multipartite":
        return _call(tracer, "graphs.complete_multipartite", cp.complete_multipartite,
                     _random_parts(n, rng))
    if family == "complete":
        return _call(tracer, "graphs.complete_graph", cp.complete_graph, n)
    raise ValueError(f"unknown corpus family {family!r}")


def corpus_configuration(g, rep: int, rng: random.Random, tracer):
    """Between n and min(lambda, 2n + 4) pebbles, piled on 1 to 3 vertices.

    A disconnected graph has no cover number; its cap is 2n + 4.  The total
    and the pile count are stratified by `rep`, so that every cell of the
    corpus spans the same range of them; the piles' places and sizes are
    drawn from `rng`.
    """
    n = g.vertex_count
    cap = 2 * n + 4
    if g.is_connected():
        lam = _call(tracer, "stacking.cover_pebbling_number", cp.cover_pebbling_number, g)
        cap = min(cap, lam.cover_number)
    total = n + rep * (cap - n + 1) // CORPUS_REPEATS
    piles = rng.sample(range(n), 1 + rep % 3)
    cuts = sorted(rng.sample(range(1, total), len(piles) - 1))
    pebbles = [0] * n
    for v, a, b in zip(piles, [0] + cuts, cuts + [total]):
        pebbles[v] = b - a
    return cp.Configuration(pebbles)


class SolveCorpus(Workload):
    """solve() on every instance of a seeded corpus, one call per operation."""

    def setup(self, seed, tracer):
        rng = random.Random(seed)
        self.instances = []
        tracer.begin_op()
        for rep in range(CORPUS_REPEATS):
            for family in CORPUS_FAMILIES:
                for n in CORPUS_SIZES:
                    g = corpus_graph(family, n, rng, tracer)
                    c = corpus_configuration(g, rep, rng, tracer)
                    self.instances.append((g, c))
        rng.shuffle(self.instances)
        self.oracle_checked = 0
        self.oracle_agreed = 0

    def cycle(self, tracer):
        for g, c in self.instances:
            tracer.begin_op()
            start = time.perf_counter()
            with tracer.span("solvability.solve") as span:
                result = cp.solve(g, c, SOLVE_BUDGET)
            latency = time.perf_counter() - start
            span["nodes"] = result.nodes_expanded
            yield latency, result

    def key(self, result):
        moves = result.certificate.moves if result.certificate else None
        return result.status, result.nodes_expanded, result.fast_path, moves

    def check_first(self, outcomes, tracer):
        problems = []
        for i, ((g, c), result) in enumerate(zip(self.instances, outcomes)):
            verdict = check_solve(g, c, result, tracer)
            self.oracle_checked += verdict.oracle_checked
            self.oracle_agreed += verdict.oracle_agrees
            problems.extend(f"instance {i} ({g!r}, {c.pebbles}): {p}" for p in verdict.problems)
        return problems

    def counts(self):
        out = {"solvability.nodes": sum(r[1] for r in self.reference)}
        for status, _nodes, fast_path, _moves in self.reference:
            out[f"solvability.fast_path.{fast_path}"] = (
                out.get(f"solvability.fast_path.{fast_path}", 0) + 1)
            if status == cp.UNDECIDED:
                out["solvability.undecided"] = out.get("solvability.undecided", 0) + 1
        return out

    def traced_extras(self, tracer, extra, out_dir):
        """Time the per-call work solve() repeats: components and lambda."""
        for g, _c in self.instances:
            tracer.begin_op()
            _call(tracer, "graphs.Graph.components", g.components)
            if g.is_connected():
                _call(tracer, "stacking.cover_pebbling_number", cp.cover_pebbling_number, g)
        extra["oracle_checked"] = self.oracle_checked
        extra["oracle_agreed"] = self.oracle_agreed
        return []

    def record(self):
        return {
            "instances": len(self.instances),
            "node_budget": SOLVE_BUDGET,
            "oracle_checked": self.oracle_checked,
            "oracle_agreed": self.oracle_agreed,
        }


# ---------------------------------------------------------------------------
# the exact-cover hardness gadget

ACCEPTANCE_NO_COVER = (8, ((0, 1, 2, 3), (3, 4, 5, 6), (0, 5, 6, 7)))
FIGURE_COVER = (8, ((0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7)))
# The acceptance no-cover gadget takes about 3 million nodes (over a minute)
# to refute.  The timed refutation runs on the same gadget graph with every
# subset vertex holding 6 pebbles instead of 9: still unsolvable, refuted
# after 8,803 nodes.
REFUTE_SUBSET_PEBBLES = 6
REFUTE_BUDGET = 10**7
WITNESS_SPANS = (16, 64)  # m - n of the coverable gadgets whose witnesses are checked
GADGET_COPIES = 10  # seeded copies; each gives one operation of every kind
GADGET_KINDS = ("refute", "figure", *(f"witness{gap}" for gap in WITNESS_SPANS))


def _relabelled(ground: int, sets, rng: random.Random) -> cp.X4CInstance:
    """The instance with its elements permuted and its sets shuffled."""
    perm = list(range(ground))
    rng.shuffle(perm)
    relabelled = [[perm[e] for e in s] for s in sets]
    rng.shuffle(relabelled)
    return cp.X4CInstance(ground, relabelled)


def _coverable(span: int, rng: random.Random) -> cp.X4CInstance:
    """n = 2 with a planted cover and `span` further random 4-sets."""
    perm = list(range(8))
    rng.shuffle(perm)
    sets = [perm[:4], perm[4:]] + [rng.sample(range(8), 4) for _ in range(span)]
    rng.shuffle(sets)
    return cp.X4CInstance(8, sets)


def thinned_configuration(built) -> cp.Configuration:
    pebbles = list(built.config.pebbles)
    for v, label in built.labels.items():
        if label[0] == "B" and label[1:].isdigit():
            pebbles[v] = REFUTE_SUBSET_PEBBLES
    return cp.Configuration(pebbles)


class GadgetRefute(Workload):
    """Refutations and witness checks on the hardness gadget, one per operation.

    Each copy gives four operations: refute the thinned no-cover gadget,
    relabelled from the seed; decide the figure instance through solve() and
    the witness path; build, verify, execute and replay the span-16 witness;
    build and verify the span-64 witness, whose collector holds more than
    2^63 pebbles.  The figure instance keeps its own labels: relabelled, its
    search takes either 7 or 22,281 nodes, so how many copies were hard would
    be up to the seed.
    """

    def setup(self, seed, tracer):
        rng = random.Random(seed)
        self.copies = [
            {
                "refute": _relabelled(*ACCEPTANCE_NO_COVER, rng),
                "figure": cp.X4CInstance(*FIGURE_COVER),
                **{f"witness{gap}": _coverable(gap, rng) for gap in WITNESS_SPANS},
            }
            for _ in range(GADGET_COPIES)
        ]

    def cycle(self, tracer):
        for copy in self.copies:
            for kind in GADGET_KINDS:
                run = {"refute": self._refute, "figure": self._figure}.get(kind, self._witness)
                tracer.begin_op()
                start = time.perf_counter()
                outcome = run(copy[kind], tracer)
                yield time.perf_counter() - start, (kind, copy[kind], outcome)

    def _refute(self, x, tracer):
        built = _call(tracer, "reduction.build_reduction", cp.build_reduction, x)
        with tracer.span("solvability.solve") as span:
            result = cp.solve(built.graph, thinned_configuration(built), REFUTE_BUDGET)
        span["nodes"] = result.nodes_expanded
        return built, result

    def _figure(self, x, tracer):
        report = _call(tracer, "reduction.reduction_equivalence_check",
                       cp.reduction_equivalence_check, x)
        built = _call(tracer, "reduction.build_reduction", cp.build_reduction, x)
        with tracer.span("solvability.solve") as span:
            result = cp.solve(built.graph, built.config)
        span["nodes"] = result.nodes_expanded
        return report, built, result

    def _witness(self, x, tracer):
        built = _call(tracer, "reduction.build_reduction", cp.build_reduction, x)
        cover = _call(tracer, "reduction.exact_cover_bruteforce", cp.exact_cover_bruteforce, x)
        witness = _call(tracer, "reduction.cover_witness_certificate",
                        cp.cover_witness_certificate, x, cover)
        valid = _call(tracer, "solvability.verify_certificate", cp.verify_certificate,
                      built.graph, built.config, witness)
        final = None
        if x.m - x.n == WITNESS_SPANS[0]:  # 2^64 moves for the larger one: verify only
            moves = _call(tracer, "solvability.execute_certificate", cp.execute_certificate,
                          built.graph, built.config, witness)
            final = _call(tracer, "solvability.apply_moves", cp.apply_moves,
                          built.graph, built.config, moves)
        return built, witness, valid, final

    def key(self, outcome):
        kind, _x, result = outcome
        if kind == "refute":
            return kind, result[1].status, result[1].nodes_expanded
        if kind == "figure":
            report, _built, solved = result
            return kind, report.agree, solved.status, solved.nodes_expanded
        _built, witness, valid, final = result
        return kind, valid, witness.moves, final

    def check_first(self, outcomes, tracer):
        return [f"{kind}: {p}" for kind, x, result in outcomes
                for p in self._problems(kind, x, result)]

    def _problems(self, kind, x, result):
        if kind == "refute":
            built, refuted = result
            problems = []
            if cp.exact_cover_bruteforce(x) is not None:
                problems.append("exact-cover oracle found a cover in the no-cover instance")
            if refuted.status != cp.UNSOLVABLE or refuted.nodes_expanded > REFUTE_BUDGET:
                problems.append(f"thinned gadget reported {refuted.status} "
                                f"after {refuted.nodes_expanded} nodes")
            return problems
        if kind == "figure":
            report, built, solved = result
            if not (report.cover_exists and report.agree):
                return [f"equivalence check: {report}"]
            if solved.status != cp.SOLVABLE:
                return [f"solve() reported {solved.status}"]
            return replay_problems(built.graph, built.config, solved.certificate)
        built, witness, valid, final = result
        gap = x.m - x.n
        problems = []
        collector = built.config[[v for v, s in built.labels.items() if s == "v"][0]]
        if collector != 2**gap - gap + 1:
            problems.append(f"collector holds {collector} pebbles")
        if not valid:
            problems.append("witness rejected by verify_certificate")
        if final is not None:
            if witness.total_moves != 8 + 7 * gap + 2**gap - 1:
                problems.append(f"witness has {witness.total_moves} moves")
            if min(final.pebbles) < 1:
                problems.append("witness replay leaves a vertex uncovered")
        return problems

    def counts(self):
        nodes = sum(k[2] for k in self.reference if k[0] == "refute")
        nodes += sum(k[3] for k in self.reference if k[0] == "figure")
        return {"solvability.nodes": nodes}

    def record(self):
        return {"refute_instances": [cp.instance_to_dict(c["refute"]) for c in self.copies]}


# ---------------------------------------------------------------------------
# cover numbers of large graphs from edge lists

LAMBDA_CUBES = (6, 7, 8)  # Q^d, 64 to 256 vertices
LAMBDA_PATHS = (64, 96, 128, 160, 192, 224, 256)  # P_n
LAMBDA_GRAPHS = 10  # of each kind per pass, cycling through the sizes
CLI_REPEATS = 5  # coverpebble lambda runs in a traced run, each paired with a library call


def _relabelled_edges(n: int, edges, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return out


def _cube_edges(d: int) -> list:
    return [(v, v ^ (1 << b)) for v in range(1 << d) for b in range(d) if v < v ^ (1 << b)]


class LambdaLarge(Workload):
    """lambda from a shuffled, relabelled edge list, one graph per operation."""

    def setup(self, seed, tracer):
        rng = random.Random(seed)
        self.graphs = []
        for i in range(LAMBDA_GRAPHS):
            d = LAMBDA_CUBES[i % len(LAMBDA_CUBES)]
            self.graphs.append((f"cube{d}", 1 << d, _relabelled_edges(1 << d, _cube_edges(d), rng),
                                3**d))
            n = LAMBDA_PATHS[i % len(LAMBDA_PATHS)]
            path = [(v, v + 1) for v in range(n - 1)]
            self.graphs.append((f"path{n}", n, _relabelled_edges(n, path, rng), 2**n - 1))

    def cycle(self, tracer):
        for name, n, edges, _expected in self.graphs:
            tracer.begin_op()
            start = time.perf_counter()
            with tracer.span("graphs.build_graph") as span:
                g = cp.build_graph(n, edges)
            span["graph"] = name
            with tracer.span("stacking.cover_pebbling_number") as span:
                lam = cp.cover_pebbling_number(g).cover_number
            span["graph"] = name
            yield time.perf_counter() - start, lam

    def check_first(self, outcomes, tracer):
        return [
            f"lambda({name}) = {lam}, expected {expected}"
            for (name, _n, _edges, expected), lam in zip(self.graphs, outcomes)
            if lam != expected
        ]

    def traced_extras(self, tracer, extra, out_dir):
        """Time `coverpebble lambda` on the largest cube's graph file against the library."""
        name = f"cube{max(LAMBDA_CUBES)}"
        _name, n, edges, expected = next(g for g in self.graphs if g[0] == name)
        path = out_dir / "cube-graph.json"
        with open(path, "w") as handle:
            json.dump(cp.graph_to_dict(cp.build_graph(n, edges)), handle)
        problems = []
        cli, library = [], []
        for _ in range(CLI_REPEATS):
            tracer.begin_op()
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), tracer.span("cli.run_cli") as span:
                code = run_cli(["lambda", "--graph", str(path)])
            cli.append(duration(span))
            answer = json.loads(stdout.getvalue())["lambda"]
            if code != 0 or int(answer) != expected:
                problems.append(f"coverpebble lambda exited {code} with lambda {answer}")
            start = time.perf_counter()
            cp.cover_pebbling_number(cp.build_graph(n, edges))
            library.append(time.perf_counter() - start)
        extra["cli.overhead_s"] = median(cli) - median(library)
        return problems


class Composite(Workload):
    """Several workloads' inputs run as one pass, in order."""

    def __init__(self, parts):
        super().__init__()
        self.parts = parts

    def setup(self, seed, tracer):
        for part in self.parts:
            part.setup(seed, tracer)

    def cycle(self, tracer):
        self.sizes = [0] * len(self.parts)
        for i, part in enumerate(self.parts):
            for op in part.cycle(tracer):
                self.sizes[i] += 1
                yield op

    def check(self, outcomes, tracer):
        problems = []
        start = 0
        for part, size in zip(self.parts, self.sizes):
            problems.extend(part.check(outcomes[start:start + size], tracer))
            start += size
        return problems

    def counts(self):
        out = defaultdict(int)
        for part in self.parts:
            for name, value in part.counts().items():
                out[name] += value
        return out

    def traced_extras(self, tracer, extra, out_dir):
        return [p for part in self.parts for p in part.traced_extras(tracer, extra, out_dir)]

    def record(self):
        return {type(part).__name__ + getattr(part, "model_key", ""): part.record()
                for part in self.parts}


# Two workloads, so that each run can last long enough for every input to
# meet a quiet moment of a shared machine (see README.md).  The first works
# only the sampler and the sweep; the second only graphs, stacking, the
# solver, the reduction and the CLI.
WORKLOADS = {
    "sweep-kn1000": lambda: Composite([Sweep("mb"), Sweep("be")]),
    "solve-gadget-lambda": lambda: Composite(
        [SolveCorpus(), GadgetRefute(), LambdaLarge()]),
}
