"""Steadiness record: run each workload repeatedly on unchanged code.

    python3 qbench/steadiness.py

For every workload in BENCHMARK.json this runs ``qbench/run.py --trace 0``
in two sets of ten runs, one run after another: seeds 1 to 10, then 11
to 20, each for ``run_seconds``.  Per set it records each end-to-end
metric's median, quartiles and relative spread (inter-quartile distance
over the median, as ``statistics.quantiles`` gives them), and how far
the second set's median moved from the first's, in the metric's worse
direction.  It then runs ``--trace 1`` twice on seed 1 and checks that
every exact counter repeats.

The proposed bound of a timed metric is three times its largest spread
over the workloads and sets, rounded up to 0.05 and kept within
[0.10, 0.25]; exact counts get 0.  Every spread above that bound (any
spread, for an exact count), every median that got worse by more than
it, and every failed output is listed under ``problems``, and the exit
code is then 1.  The record, written to ``qbench/STEADINESS.json``, is
what BENCHMARK.json's bounds are set from.
"""

from __future__ import annotations

import json
import math
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from helpers import quartiles, relative_spread  # noqa: E402

RUNS = 10
SETS = 2
#: End-to-end metrics that are exact counts: bound 0.
EXACT_END_TO_END = ("compiled_2q_gates", "compiled_depth")
#: Per-layer counters that must repeat exactly across two runs of a seed.
EXACT_PER_LAYER = (
    "build.ops",
    "compile.decompose.ops_out",
    "compile.optimize.ops_out",
    "compile.route.ops_out",
    "compile.schedule.ops_out",
    "compile.route.swaps",
    "compile.optimize.gates_removed",
    "engine.statevector.ops",
    "engine.trajectory.trials",
    "cache.memory.hit_ratio",
    "cache.store.hit_ratio",
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in a fresh process; returns its result line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def proposed_bound(spreads: list[float]) -> float:
    bound = math.ceil(3 * max(spreads) * 20 - 1e-9) / 20
    return min(0.25, max(0.10, bound))


def summarize(series: list[float]) -> dict:
    q1, q2, q3 = quartiles(series)
    return {
        "median": q2, "q1": q1, "q3": q3,
        "spread": relative_spread(series), "values": series,
    }


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if first == 0:
        return 0.0 if second == first else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main() -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seed_sets = [
        list(range(k * RUNS + 1, (k + 1) * RUNS + 1)) for k in range(SETS)
    ]
    record = {
        "machine": f"{platform.machine()}, {platform.system()}, "
                   f"Python {platform.python_version()}",
        "run_seconds": seconds,
        "seed_sets": seed_sets,
        "workloads": {},
        "exact_repeat": {},
    }
    problems = []
    for workload in workloads:
        sets = []
        for seeds in seed_sets:
            values: dict[str, list[float]] = {}
            for seed in seeds:
                result = run_once(workload, seed, seconds, trace=0)
                if not result["correct"] or result["failed"]:
                    problems.append(f"{workload} seed {seed}: outputs failed")
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                print(f"{time.strftime('%H:%M:%S')} {workload} seed {seed}: "
                      + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
                      file=sys.stderr)
            sets.append({name: summarize(v) for name, v in values.items()})
        record["workloads"][workload] = {
            name: {
                "sets": [summary[name] for summary in sets],
                "median_worse_by": worsening(
                    sets[0][name]["median"], sets[-1][name]["median"],
                    better[name],
                ),
            }
            for name in sets[0]
        }

        seed = seed_sets[0][0]
        first, second = (run_once(workload, seed, seconds, trace=1)
                         for _ in range(2))
        repeats = {
            name: [first["metrics"][name]["value"], second["metrics"][name]["value"]]
            for name in EXACT_PER_LAYER
        }
        mismatched = [name for name, (a, b) in repeats.items() if a != b]
        if mismatched or not (first["correct"] and second["correct"]):
            problems.append(f"{workload}: traced runs differ or failed: {mismatched}")
        record["exact_repeat"][workload] = {
            "seed": seed, "repeats": not mismatched, "counters": repeats,
        }

    record["proposed_bounds"] = {
        name: 0.0 if name in EXACT_END_TO_END else proposed_bound([
            summary["spread"]
            for w in workloads
            for summary in record["workloads"][w][name]["sets"]
        ])
        for name in better
    }
    for name, bound in record["proposed_bounds"].items():
        for workload in workloads:
            metric = record["workloads"][workload][name]
            for k, summary in enumerate(metric["sets"], 1):
                if summary["spread"] > bound:
                    problems.append(
                        f"{workload} {name}: set {k} spread "
                        f"{summary['spread']:.3f} exceeds bound {bound}"
                    )
            if metric["median_worse_by"] > bound:
                problems.append(
                    f"{workload} {name}: median worse by "
                    f"{metric['median_worse_by']:.3f} from set 1 to set "
                    f"{SETS}, past bound {bound}"
                )
    record["problems"] = problems
    text = json.dumps(record, indent=1)
    (HERE / "STEADINESS.json").write_text(text + "\n")
    print(text)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
