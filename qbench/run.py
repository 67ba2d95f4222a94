"""Run one benchmark workload and print its metrics as one JSON line.

    python3 qbench/run.py --workload serve-zipf --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` re-runs the same seeded rounds through the public entry
points and through the traced path, and prints the per-layer metrics.
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  See README.md for
the workloads, the metrics and the measured spread.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up runs per measurement (this process plus fresh subprocesses
#: spread over the run); the median is reported, because one cold start
#: is noisy and the machine's speed swings over seconds.
SETUP_REPEATS = 5
#: A run always completes at least this many whole rounds.
MIN_ROUNDS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up seconds and exit",
    )
    return parser.parse_args(argv)


def _set_up(name: str, seed: int):
    """Import the program, generate inputs, warm up.  Returns the workload."""
    # One BLAS thread: with the queue's worker the process stays within
    # two threads, the machine's core count.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    # One core for the whole process (and the fresh set-ups it starts).
    # The closed loop never runs two things at once, and on a VM a
    # hand-off between the client and the queue's worker on two vCPUs
    # waits for the hypervisor to wake the other one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    warnings.simplefilter("ignore", DeprecationWarning)
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[name](seed)
    workload.warmup()
    workload.make_round(0)
    return workload


def _fresh_setup_seconds(name: str, seed: int) -> float:
    """Set-up time of a fresh process (waits for it to end)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _loop(workload, budget: float, pause):
    """Closed loop over whole rounds, until the next round would end past
    ``budget`` seconds (at least MIN_ROUNDS).

    Each round's outputs are checked, then dropped, between rounds and
    outside the loop time, so neither the checks nor the memory they
    hold depend on how many rounds the machine's speed allowed.  After
    each round ``pause(share of the budget used)`` runs; its time does
    not count against the budget.
    Returns (latencies of each round, failed requests, loop seconds).
    """
    from helpers import median

    rounds, durations = [], []
    failed = 0
    start = time.perf_counter()
    paused = 0.0
    index = 0
    while True:
        round_requests = workload.make_round(index)
        round_start = time.perf_counter()
        results = workload.run_round(round_requests)
        durations.append(time.perf_counter() - round_start)
        rounds.append([latency for latency, _ in results])
        failed += _check_outputs(
            workload, round_requests, [output for _, output in results]
        )
        index += 1
        elapsed = time.perf_counter() - start - paused
        if index >= MIN_ROUNDS and elapsed + median(durations) > budget:
            break
        pause_start = time.perf_counter()
        pause(elapsed / budget)
        paused += time.perf_counter() - pause_start
    return rounds, failed, sum(durations)


def _check_outputs(workload, requests, outputs) -> int:
    return sum(
        0 if workload.check(request, output) else 1
        for request, output in zip(requests, outputs)
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(workload, seconds: float, setup_s: float, seed: int) -> dict:
    from helpers import median, round_median_mean, tail_percentile

    setups = [setup_s]

    def fresh_setups(progress: float) -> None:
        # The k-th fresh set-up runs once k/SETUP_REPEATS of the loop is
        # done, so the set-ups sample the run's machine speed.
        while len(setups) < SETUP_REPEATS and progress >= len(setups) / SETUP_REPEATS:
            setups.append(_fresh_setup_seconds(workload.name, seed))

    rounds, failed, wall = _loop(workload, seconds, fresh_setups)
    latencies = [latency for round_latencies in rounds for latency in round_latencies]
    fresh_setups(1.0)
    run_failures = workload.run_checks()
    for failure in run_failures:
        print(f"check failed: {failure}", file=sys.stderr)
    percentile, tail, beyond = tail_percentile(latencies)
    two_q, depth = workload.compiled_totals()
    print(
        f"{workload.name}: {len(latencies)} requests in {wall:.2f} s; "
        f"latency_tail_ms is p{percentile}, {beyond} samples beyond it, "
        f"n={len(latencies)}"
    )
    metrics = {
        "setup_s": (median(setups), "s"),
        "throughput_rps": (len(latencies) / wall, "req/s"),
        "latency_p50_ms": (round_median_mean(rounds) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
        "compiled_2q_gates": (two_q, "count"),
        "compiled_depth": (depth, "count"),
    }
    return {
        "correct": failed == 0 and not run_failures,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _per_layer(workload, seconds: float) -> dict:
    from helpers import median
    from tracing import NullTracer, Tracer

    # Each round runs three times: through the public entry points
    # (the faithfulness reference), then twice through the traced path:
    # with a tracer that records nothing and with the recording one.
    # The two replays differ only in the recording, so their wall times
    # give trace.overhead_pct, and back to back a drift in machine speed
    # hits both alike.  Two thirds of the budget go to these rounds; an
    # untimed re-run then records the untraced path's fingerprints.
    tracer, null_tracer = Tracer(), NullTracer()
    requests, untraced, traced = [], [], []
    wall_null = wall_traced = 0.0
    durations = []
    start = time.perf_counter()
    rounds = 0
    while True:
        round_requests = workload.make_round(rounds)
        round_start = time.perf_counter()
        untraced.extend(o for _, o in workload.run_round(round_requests))
        tracer.start_round(rounds)
        # Alternate which replay goes first, so order effects cancel.
        for recording in (rounds % 2 == 1, rounds % 2 == 0):
            replay_start = time.perf_counter()
            if recording:
                traced.extend(workload.trace_round(round_requests, tracer))
                wall_traced += time.perf_counter() - replay_start
            else:
                workload.trace_round(round_requests, null_tracer)
                wall_null += time.perf_counter() - replay_start
        end = time.perf_counter()
        durations.append(end - round_start)
        requests.extend(round_requests)
        rounds += 1
        if rounds >= MIN_ROUNDS and (
            end - start + median(durations) > seconds * 2 / 3
        ):
            break
    failed = _check_outputs(workload, requests, untraced)
    run_failures = workload.run_checks()
    recorded = workload.recorded_fingerprints(requests)
    unfaithful = sum(
        0 if workload.same(a, fp, b) else 1
        for a, fp, b in zip(untraced, recorded, traced)
    )
    tracer.write(HERE / ".work" / f"trace-{workload.name}.json")

    per_round = [tracer.counters[index] for index in range(rounds)]
    if unfaithful:
        print(f"{unfaithful} traced requests differ from untraced", file=sys.stderr)
    for failure in run_failures:
        print(f"check failed: {failure}", file=sys.stderr)

    n_requests, self_ms, mean_ms = tracer.self_times_ms()
    first: Counter = per_round[0]
    totals: Counter = sum(per_round, Counter())
    queue_wait = sum(workload.queue_wait(o) for o in untraced) / len(untraced) * 1000

    def ratio(hits, lookups):
        return first[hits] / first[lookups] if first[lookups] else 0.0

    sv_ms = self_ms["engine.statevector"] * n_requests
    traj_ms = self_ms["engine.trajectory"] * n_requests
    metrics = {
        "build.ms": self_ms["build"],
        "build.ops": first["build.ops"],
        **{f"compile.{s}.ms": self_ms[f"compile.{s}"] for s in
           ("decompose", "optimize", "route", "schedule")},
        **{f"compile.{s}.ops_out": first[f"compile.{s}.ops_out"] for s in
           ("decompose", "optimize", "route", "schedule")},
        "compile.route.swaps": first["compile.route.swaps"],
        "compile.optimize.gates_removed": first["compile.optimize.gates_removed"],
        "fingerprint.ms": self_ms["fingerprint"],
        "cache.memory.ms": self_ms["cache.memory"],
        "cache.memory.hit_ratio": ratio("cache.memory.hits", "cache.memory.lookups"),
        "admission.ms": self_ms["admission"],
        "queue.wait.ms": queue_wait,
        "cache.store.ms": self_ms["cache.store"],
        "cache.store.hit_ratio": ratio("cache.store.hits", "cache.store.lookups"),
        "store.write.ms": self_ms["store.write"],
        "store.write.bytes": first["store.write.bytes"],
        "serialize.ms": self_ms["serialize"],
        "engine.statevector.ms": self_ms["engine.statevector"],
        "engine.statevector.ops": first["engine.statevector.ops"],
        "engine.statevector.us_per_op": (
            sv_ms * 1000 / totals["engine.statevector.ops"]
            if totals["engine.statevector.ops"] else 0.0
        ),
        "engine.kernel_cache.misses": totals["engine.kernel_cache.misses"] / rounds,
        "engine.trajectory.ms": self_ms["engine.trajectory"],
        "engine.trajectory.trials": first["engine.trajectory.trials"],
        "engine.trajectory.us_per_trial": (
            traj_ms * 1000 / totals["engine.trajectory.trials"]
            if totals["engine.trajectory.trials"] else 0.0
        ),
        "engine.classical.ms": self_ms["engine.classical"],
        "other.ms": self_ms["other"],
        "trace.overhead_pct": (wall_traced / wall_null - 1.0) * 100.0,
    }
    units = {"ms": "ms", "ops": "count", "ops_out": "count", "swaps": "count",
             "gates_removed": "count", "hit_ratio": "ratio", "bytes": "bytes",
             "us_per_op": "us", "misses": "count", "trials": "count",
             "us_per_trial": "us", "overhead_pct": "%"}
    layer_sum = sum(self_ms.values())
    print(
        f"{workload.name}: traced {n_requests} requests, mean {mean_ms:.3f} ms, "
        f"layer sum {layer_sum:.3f} ms"
    )
    return {
        "correct": failed == 0 and unfaithful == 0 and not run_failures,
        "attempted": len(untraced) + len(traced),
        "failed": failed + unfaithful,
        "metrics": {
            name: {"value": value, "unit": units[name.rsplit(".", 1)[1]]}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    workload = _set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(repr(setup_s))
        return 0
    if args.trace:
        report = _per_layer(workload, args.seconds)
    else:
        report = _end_to_end(workload, args.seconds, setup_s, args.seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
