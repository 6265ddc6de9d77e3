"""The committed benchmark records at the repository root are complete and well formed."""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_committed_benchmark_records_hold_every_workload_and_metric():
    # every BENCH_*.json holds each workload that BENCHMARK.json declares, run
    # correctly with no failed operation, and every end-to-end metric finite
    # in its declared unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json at the repository root"
    problems = []
    for path in paths:
        record = json.loads(path.read_text())
        for workload in spec["workloads"]:
            where = f"{path.name} {workload['name']}"
            result = record.get(workload["name"], {}).get("result", {})
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{where}: correct {result.get('correct')!r}, "
                                f"failed {result.get('failed')!r}")
            metrics = result.get("metrics", {})
            for name, unit in units.items():
                metric = metrics.get(name, {})
                value = metric.get("value")
                if (type(value) not in (int, float) or not math.isfinite(value)
                        or metric.get("unit") != unit):
                    problems.append(f"{where} {name}: {metric!r}, expected a finite {unit}")
    assert not problems, "\n".join(problems)
