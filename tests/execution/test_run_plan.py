"""The shared run plan: one build/compile/fingerprint per cache.

``plan()`` is the single path from a request to a runnable circuit.
With a cache it memoises the plan on that cache, so these tests count
compiles with a spy on :meth:`CompilePipeline.compile` and check that
the memo key is complete (each input changes the plan), that
unkeyable inputs still compile on every call, and that a memoised run
is indistinguishable from a fresh uncached one.
"""

import sys
import threading

import numpy as np
import pytest

from repro.execution import (
    PIPELINE_SPECS,
    CompilePipeline,
    PipelineSpec,
    PipelineStage,
    ResultCache,
    RunPlan,
    execute,
    plan,
    resolve_backend,
)
from repro.execution import cache as cache_module
from repro.execution.facade import _plan_key
from repro.optimize import RewriteEngine

STATEVECTOR = resolve_backend("statevector")
CLASSICAL = resolve_backend("classical")
LINE = PIPELINE_SPECS["hardware-line"]


@pytest.fixture()
def compiles(monkeypatch):
    """Count every CompilePipeline.compile call."""
    calls = []
    original = CompilePipeline.compile

    def spy(self, circuit):
        calls.append(self.name)
        return original(self, circuit)

    monkeypatch.setattr(CompilePipeline, "compile", spy)
    return calls


class _Recorder:
    """A cache backing that records every key it sees."""

    def __init__(self):
        self.gets = []
        self.puts = []

    def get(self, key):
        self.gets.append(key)
        return None

    def put(self, key, result):
        self.puts.append(key)
        return True


def _plan(cache, target="qutrit_tree", params=None, backend=STATEVECTOR,
          pipeline=LINE, optimize=None):
    return plan(
        target, params if params is not None else {"num_controls": 3},
        backend=backend, pipeline=pipeline, optimize=optimize, cache=cache,
    )


class TestMemo:
    def test_identical_inputs_compile_once(self, compiles):
        cache = ResultCache()
        first = _plan(cache)
        second = _plan(cache, params={"num_controls": 3})
        assert compiles == ["hardware-line"]
        assert second is first
        assert isinstance(first, RunPlan)
        assert first.fingerprint is not None
        assert cache.plan_count == 1
        assert (cache.stats.plan_misses, cache.stats.plan_hits) == (1, 1)

    @pytest.mark.parametrize(
        "change",
        [
            dict(target="he_tree"),
            dict(params={"num_controls": 4}),
            dict(params={"num_controls": 3, "decompose": False}),
            # Equal and equal-hashing in Python, but not the same input.
            dict(params={"num_controls": 3, "decompose": 1}),
            dict(params={"num_controls": 3, "dimension": 4}),
            dict(backend=CLASSICAL),
            dict(pipeline=PipelineSpec(
                LINE.name,
                LINE.stages[:-1]
                + (PipelineStage("schedule", {"mode": "merge"}),),
            )),
            dict(pipeline=PipelineSpec("renamed", LINE.stages)),
            dict(optimize=True),
            dict(optimize="cancel-inverses"),
        ],
        ids=lambda change: ",".join(change),
    )
    def test_each_input_gives_a_distinct_plan(self, compiles, change):
        cache = ResultCache()
        base = _plan(cache)
        changed = _plan(cache, **change)
        assert len(compiles) == 2
        assert changed is not base
        assert cache.plan_count == 2
        # Repeating either request compiles nothing more.
        assert _plan(cache) is base
        assert _plan(cache, **change) is changed
        assert len(compiles) == 2

    def test_no_pipeline_still_memoises_build_and_fingerprint(self):
        cache = ResultCache()
        first = _plan(cache, pipeline=None)
        assert _plan(cache, pipeline=None) is first
        assert first.notes == {}
        assert first.wires is not None

    def test_without_cache_nothing_is_memoised_or_fingerprinted(
        self, compiles
    ):
        first = _plan(None)
        second = _plan(None)
        assert compiles == ["hardware-line", "hardware-line"]
        assert first.fingerprint is None and second.fingerprint is None

    def test_execute_cache_false_compiles_every_call(self, compiles):
        for _ in range(2):
            execute("qutrit_tree", num_controls=3, pipeline=LINE,
                    cache=False)
        assert len(compiles) == 2

    def test_execute_hits_skip_compile(self, compiles):
        cache = ResultCache()
        for seed in (1, 2, 3):
            execute("qutrit_tree", num_controls=3, pipeline=LINE,
                    shots=4, seed=seed, cache=cache)
        assert len(compiles) == 1
        assert cache.stats.plan_hits == 2

    def test_sweep_points_plan_separately(self, compiles):
        cache = ResultCache()
        for _ in range(2):
            execute("qutrit_tree", pipeline=LINE, cache=cache,
                    sweep={"num_controls": [2, 3]})
        assert len(compiles) == 2
        assert cache.plan_count == 2


class TestNotMemoised:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(pipeline=LINE.build()),
            dict(optimize=RewriteEngine()),
            # Unhashable / non-plain parameter values: skipped, no error.
            dict(params={"num_controls": 3, "decompose": {1}}),
        ],
        ids=["compile-pipeline", "rewrite-engine", "set-param"],
    )
    def test_unkeyable_inputs_compile_every_call(self, compiles, kwargs):
        cache = ResultCache()
        for _ in range(2):
            _plan(cache, **kwargs)
        assert len(compiles) == 2
        assert cache.plan_count == 0
        assert cache.stats.plan_hits == cache.stats.plan_misses == 0

    def test_non_json_stage_parameters_are_not_keyed(self):
        odd = PipelineSpec(
            "odd", (PipelineStage("route", {"router": object()}),)
        )
        assert _plan_key("qutrit_tree", {}, False, odd, None) is None

    def test_circuit_and_callable_targets_compile_every_call(self, compiles):
        from repro.toffoli.registry import build_toffoli

        cache = ResultCache()
        circuit = build_toffoli("qutrit_tree", 3).circuit
        for _ in range(2):
            plan(circuit, backend=STATEVECTOR, pipeline=LINE, cache=cache)
            plan(lambda: circuit, backend=STATEVECTOR, pipeline=LINE,
                 cache=cache)
        assert len(compiles) == 4
        assert cache.plan_count == 0


class TestLifetime:
    def test_clear_forgets_plans(self, compiles):
        cache = ResultCache()
        _plan(cache)
        cache.clear()
        assert cache.plan_count == 0
        _plan(cache)
        assert len(compiles) == 2

    def test_plans_are_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_PLANS", 2)
        cache = ResultCache()
        for controls in (2, 3, 4):
            _plan(cache, params={"num_controls": controls}, pipeline=None)
        assert cache.plan_count == 2
        cache.stats.plan_misses = 0
        _plan(cache, params={"num_controls": 2}, pipeline=None)
        assert cache.stats.plan_misses == 1  # the oldest was evicted

    def test_shared_memo_under_thread_contention(self):
        """Eight threads plan four requests on one cache; a lost update
        would break the counter sum or hand out a second plan."""
        cache = ResultCache()
        calls, threads = 25, 8
        seen = {}
        errors = []
        lock = threading.Lock()

        def worker(index):
            try:
                for call in range(calls):
                    controls = 2 + (index + call) % 4
                    got = _plan(cache, params={"num_controls": controls},
                                pipeline=None)
                    with lock:
                        seen.setdefault(controls, set()).add(
                            got.fingerprint
                        )
            except BaseException as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, args=(i,))
                    for i in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert errors == []
        stats = cache.stats
        assert stats.plan_hits + stats.plan_misses == calls * threads
        assert cache.plan_count == 4
        assert all(len(prints) == 1 for prints in seen.values())

    def test_plans_never_reach_the_backing(self):
        recorder = _Recorder()
        cache = ResultCache(backing=recorder)
        execute("qutrit_tree", num_controls=3, pipeline=LINE, cache=cache)
        execute("qutrit_tree", num_controls=3, pipeline=LINE, cache=cache)
        assert len(recorder.puts) == 1  # one result, no plan
        assert cache.plan_count == 1


class TestSameResults:
    @pytest.mark.parametrize("name", sorted(PIPELINE_SPECS))
    def test_memoised_run_equals_fresh_uncached_run(self, name, compiles):
        spec = PIPELINE_SPECS[name]
        run = dict(num_controls=3, pipeline=spec, shots=16)
        recorder = _Recorder()
        cache = ResultCache(backing=recorder)
        execute("qubit_one_dirty", seed=1, cache=cache, **run)
        # A new seed misses the result cache but hits the plan.
        memoised = execute("qubit_one_dirty", seed=2, cache=cache, **run)
        assert len(compiles) == 1
        fresh = execute("qubit_one_dirty", seed=2, cache=False, **run)
        assert len(compiles) == 2
        assert memoised.wires == fresh.wires
        assert memoised.metadata == fresh.metadata
        assert memoised.measurements.counts() == fresh.measurements.counts()
        assert np.array_equal(memoised.state.tensor, fresh.state.tensor)
        # The key a fresh cache computes is the memoised run's key.
        fresh_recorder = _Recorder()
        execute("qubit_one_dirty", seed=2,
                cache=ResultCache(backing=fresh_recorder), **run)
        assert fresh_recorder.gets[-1] == recorder.gets[-1]
