"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  Every
metric is printed by name with its unit, and the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, and the spans are written to perfbench/out/.  Names and
units come from BENCHMARK.json.  Timings are at reference speed (speed.py).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9
WARMUP_SECONDS = 1.0
MIN_PASSES = 4


def load_package():
    """Import coverpebbling from ROOT/src and nowhere else."""
    src = ROOT / "src"
    if not (src / "coverpebbling" / "__init__.py").is_file():
        sys.exit(f"error: no coverpebbling sources under {src}")
    sys.path[0] = str(ROOT)  # instead of this script's directory
    sys.path.insert(1, str(src))
    import coverpebbling

    if Path(coverpebbling.__file__).resolve().parent != src / "coverpebbling":
        sys.exit(f"error: imported coverpebbling from {coverpebbling.__file__}")
    return coverpebbling


def package_start_seconds() -> float:
    """Wall time of a fresh interpreter that imports the package and exits."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import coverpebbling"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, timeout=60)
    return time.perf_counter() - start


def environment() -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
    }


def main(argv=None) -> int:
    load_package()

    from perfbench.counting import counting
    from perfbench.metrics import layer_metrics
    from perfbench.speed import REFERENCE_S, SpeedProbe
    from perfbench.stats import tail
    from perfbench.tracing import NullTracer, Tracer
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    # One CPU for the whole run, so that the operations, the speed probe and
    # the start-up subprocess, which inherits it, meet the same contention.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = declared["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]()
    null = NullTracer()
    # a traced run keeps the spans of its traced passes apart from those of
    # set-up, checks and extras, so that self times are per pass
    tracer = Tracer() if args.trace else None
    side = Tracer() if args.trace else null
    probe = SpeedProbe()

    # set-up = starting the interpreter with the package, then building the
    # inputs from the seed; each part is repeated and its median taken
    setup_times = [
        probe.timed(workload.setup, args.seed, side if rep == SETUP_REPEATS - 1 else null)[0]
        for rep in range(SETUP_REPEATS)
    ]

    # Every operation's latency is kept with the perf_counter time of its
    # midpoint, and the speed probe runs between operations.  The first pass
    # is the one checked in full; later passes must reproduce its outcomes.
    problems = []
    attempted = failed = passes = 0

    def run_pass(pass_tracer):
        nonlocal attempted, failed, passes
        ops = []
        for latency, outcome in workload.cycle(pass_tracer):
            ops.append((time.perf_counter() - latency / 2, latency, outcome))
            probe.maybe_sample()
        attempted += len(ops)
        found = workload.check([outcome for *_, outcome in ops], side)
        failed += min(len(found), len(ops))  # a pass fails at most all of its operations
        problems.extend(found)
        passes += 1
        return [(at, latency) for at, latency, _ in ops]

    start = time.perf_counter()
    while time.perf_counter() - start < WARMUP_SECONDS:
        run_pass(null)  # warm-up: latencies dropped

    # Closed loop, one operation at a time, until the measured time is spent
    # and, untraced, MIN_PASSES passes are done.  In a traced run every other
    # pass is traced, so both halves see the same inputs and the difference
    # of their medians is the tracing overhead.
    plain, traced = [], []  # per pass, (midpoint, wall latency) per operation
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(plain) < (1 if tracer else MIN_PASSES) or (tracer and not traced)):
        on = tracer is not None and len(plain) > len(traced)
        (traced if on else plain).append(run_pass(tracer if on else null))
    measured = time.perf_counter() - start

    def per_input(pass_list):
        """Each input's median latency over the passes, at reference speed."""
        return [median(latency * probe.scale(at) for at, latency in column)
                for column in zip(*pass_list)]

    latencies = per_input(plain)
    wall = [median(latency for _, latency in column) for column in zip(*plain)]
    speed = REFERENCE_S / median(probe.seconds)
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{attempted} operations in {passes} passes, {measured:.3f} s measured; "
             f"{len(latencies)} inputs, each timed as its median over {len(plain)} passes",
             f"machine speed {speed:.3f} of reference (median of {len(probe.seconds)} "
             f"probe samples); wall-clock op_ms_p50 {1e3 * median(wall):.6g} ms"]
    if tracer is None:
        start_s = median([probe.timed(package_start_seconds)[0]
                          for _ in range(SETUP_REPEATS)])
        slow, percentile = tail(latencies)
        values = {
            "setup_s": start_s + median(setup_times),
            "op_ms_p50": 1e3 * median(latencies),
            "op_ms_tail": 1e3 * slow,
            "ops_per_s": len(latencies) / sum(latencies),
        }
        lines.append(
            f"op_ms_tail is p{percentile:.4g} over inputs; setup_s = "
            f"package start {start_s:.4f} s + inputs {median(setup_times):.4f} s")
    else:
        OUT_DIR.mkdir(exist_ok=True)
        extra = {"trace.overhead_ms": 1e3 * (median(per_input(traced)) - median(latencies))}
        with counting() as counts:  # one more pass, untimed, counting the work
            run_pass(null)
        found = workload.traced_extras(side, extra, OUT_DIR)
        failed += len(found)
        problems += found
        values = layer_metrics(tracer.spans, side.spans, len(traced),
                               {**counts, **workload.counts()}, extra, probe.scale)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "environment": environment(), "inputs": workload.record(), "metrics": values,
            "traced_passes": len(traced), "side_spans": side.spans,
            "probe": {"at": probe.at, "seconds": probe.seconds},
        })
        lines.append(f"{len(tracer.spans) + len(side.spans)} spans written to "
                     f"{trace_path.relative_to(ROOT)}")
    lines.append(f"fail_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for line in lines:
        print(line)
    for spec in specs:
        print(f"{spec['name']} = {values[spec['name']]!r} {spec['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
