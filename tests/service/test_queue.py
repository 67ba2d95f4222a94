"""JobQueue lifecycle edges, coalescing, backpressure, and persistence.

The deterministic tests inject blocking/counting runners (the queue's
``runner=`` seam) so worker timing never races the assertions: a runner
that waits on an event pins a group in RUNNING, and a barrier proves
followers attached while the leader was in flight.
"""

import threading

import pytest

from repro.execution import CompilePipeline, PipelineSpec, execute
from repro.execution.cache import ResultCache
from repro.execution.results import RunResult
from repro.qudits import qubits
from repro.toffoli.registry import build_toffoli
from repro.service import (
    JobCancelledError,
    JobFailedError,
    JobQueue,
    JobState,
    QueueFullError,
    ResultStore,
)

TREE = dict(num_controls=3, backend="classical", initial=(1, 1, 1, 0))


def _stub_result():
    return RunResult(backend="classical", wires=tuple(qubits(1)),
                     values=(1,))


class _BlockingRunner:
    """Runner that parks executions until released, counting each."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, request):
        with self._lock:
            self.calls += 1
        self.started.set()
        if not self.release.wait(timeout=30):  # pragma: no cover
            raise TimeoutError("runner never released")
        return _stub_result()


class TestLifecycle:
    def test_happy_path_states_and_result(self):
        with JobQueue(workers=2) as queue:
            job = queue.submit("qutrit_tree", **TREE)
            result = job.result(timeout=60)
        assert job.state is JobState.DONE
        assert result.values == (1, 1, 1, 1)
        assert job.latency is not None and job.latency >= 0
        assert job.served_from is None  # genuinely executed

    def test_status_and_result_by_id(self):
        with JobQueue(workers=1) as queue:
            job = queue.submit("qutrit_tree", **TREE)
            result = queue.result(job.id, timeout=60)
            assert queue.status(job.id) is JobState.DONE
            assert result.values == (1, 1, 1, 1)
        with pytest.raises(KeyError):
            queue.status("job-999999")

    def test_cancel_queued_job(self):
        runner = _BlockingRunner()
        queue = JobQueue(workers=1, runner=runner)
        try:
            leader = queue.submit("qutrit_tree", seed=1, **TREE)
            assert runner.started.wait(10)  # worker busy with leader
            queued = queue.submit("qutrit_tree", seed=2, **TREE)
            assert queued.state is JobState.QUEUED
            assert queue.cancel(queued) is True
            assert queued.state is JobState.CANCELLED
            with pytest.raises(JobCancelledError):
                queued.result(timeout=1)
            # Cancelling again (terminal) is a no-op.
            assert queue.cancel(queued) is False
        finally:
            runner.release.set()
            queue.shutdown(wait=True)
        assert leader.result(timeout=10).values == (1,)
        assert queue.stats.cancelled == 1

    def test_cancel_running_job_refused(self):
        runner = _BlockingRunner()
        queue = JobQueue(workers=1, runner=runner)
        try:
            job = queue.submit("qutrit_tree", **TREE)
            assert runner.started.wait(10)
            assert job.state is JobState.RUNNING
            assert queue.cancel(job) is False
            assert job.state is JobState.RUNNING
        finally:
            runner.release.set()
            queue.shutdown(wait=True)
        assert job.state is JobState.DONE

    def test_worker_exception_fails_job_with_traceback(self):
        def boom(request):
            raise ValueError("simulated backend explosion")

        with JobQueue(workers=1, runner=boom) as queue:
            job = queue.submit("qutrit_tree", **TREE)
            with pytest.raises(JobFailedError) as excinfo:
                job.result(timeout=30)
        assert job.state is JobState.FAILED
        assert "simulated backend explosion" in str(excinfo.value)
        assert "ValueError" in excinfo.value.traceback
        assert "ValueError" in job.traceback
        assert isinstance(job.error, ValueError)
        assert queue.stats.failed == 1

    def test_submit_after_shutdown_refused(self):
        queue = JobQueue(workers=1)
        queue.shutdown(wait=True)
        with pytest.raises(RuntimeError):
            queue.submit("qutrit_tree", **TREE)

    def test_shutdown_cancel_pending(self):
        runner = _BlockingRunner()
        queue = JobQueue(workers=1, runner=runner)
        leader = queue.submit("qutrit_tree", seed=1, **TREE)
        assert runner.started.wait(10)
        pending = queue.submit("qutrit_tree", seed=2, **TREE)
        runner.release.set()
        queue.shutdown(wait=True, cancel_pending=True)
        assert leader.state is JobState.DONE
        assert pending.state is JobState.CANCELLED

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            JobQueue(workers=0)
        with pytest.raises(ValueError):
            JobQueue(max_pending=0)
        with pytest.raises(ValueError):
            JobQueue(backpressure="drop")


class TestCoalescing:
    def test_duplicate_submissions_execute_exactly_once(self):
        """The acceptance-criteria proof: N identical submissions,
        leader pinned in flight, exactly one execution."""
        runner = _BlockingRunner()
        queue = JobQueue(workers=2, runner=runner)
        try:
            leader = queue.submit("qutrit_tree", seed=9, **TREE)
            assert runner.started.wait(10)
            followers = [
                queue.submit("qutrit_tree", seed=9, **TREE)
                for _ in range(5)
            ]
            assert all(f.served_from == "coalesced" for f in followers)
            assert all(f.key == leader.key for f in followers)
            runner.release.set()
            results = [job.result(timeout=30)
                       for job in [leader, *followers]]
        finally:
            queue.shutdown(wait=True)
        assert runner.calls == 1
        assert queue.stats.executed == 1
        assert queue.stats.coalesced == 5
        # Every handle observes the same result object.
        assert all(r is results[0] for r in results)

    def test_distinct_statevector_initials_never_coalesce(self):
        """Two different initial states are two runs, even in flight."""
        from repro.sim.state import StateVector

        wires = build_toffoli("qutrit_tree", 3).all_wires
        states = [StateVector.computational_basis(wires, values)
                  for values in ((0, 0, 0, 0), (1, 1, 1, 0))]
        runner = _BlockingRunner()
        queue = JobQueue(workers=1, runner=runner)
        try:
            first = queue.submit("qutrit_tree", num_controls=3,
                                 initial=states[0])
            assert runner.started.wait(10)
            second = queue.submit("qutrit_tree", num_controls=3,
                                  initial=states[1])
            again = queue.submit("qutrit_tree", num_controls=3,
                                 initial=states[1])
            assert second.served_from is None
            assert second.key != first.key
            assert again.served_from == "coalesced"
        finally:
            runner.release.set()
            queue.shutdown(wait=True)
        assert runner.calls == 2

    def test_followers_observe_leader_failure(self):
        runner_started = threading.Event()
        release = threading.Event()

        def failing(request):
            runner_started.set()
            release.wait(timeout=30)
            raise RuntimeError("leader died")

        queue = JobQueue(workers=1, runner=failing)
        try:
            leader = queue.submit("qutrit_tree", seed=3, **TREE)
            assert runner_started.wait(10)
            follower = queue.submit("qutrit_tree", seed=3, **TREE)
            assert follower.served_from == "coalesced"
            release.set()
            for job in (leader, follower):
                with pytest.raises(JobFailedError) as excinfo:
                    job.result(timeout=30)
                assert "leader died" in excinfo.value.traceback
        finally:
            queue.shutdown(wait=True)
        assert queue.stats.failed == 2
        assert queue.stats.executed == 1

    def test_cancelled_follower_leaves_siblings_intact(self):
        runner = _BlockingRunner()
        queue = JobQueue(workers=1, runner=runner)
        try:
            blocker = queue.submit("qutrit_tree", seed=1, **TREE)
            assert runner.started.wait(10)
            # A *queued* group with two handles: cancel one of them.
            leader = queue.submit("qutrit_tree", seed=2, **TREE)
            follower = queue.submit("qutrit_tree", seed=2, **TREE)
            assert queue.cancel(follower) is True
            runner.release.set()
            assert leader.result(timeout=30).values == (1,)
            with pytest.raises(JobCancelledError):
                follower.result(timeout=1)
            blocker.result(timeout=30)
        finally:
            queue.shutdown(wait=True)

    def test_fully_cancelled_group_never_executes(self):
        runner = _BlockingRunner()
        queue = JobQueue(workers=1, runner=runner)
        try:
            blocker = queue.submit("qutrit_tree", seed=1, **TREE)
            assert runner.started.wait(10)
            doomed = queue.submit("qutrit_tree", seed=2, **TREE)
            twin = queue.submit("qutrit_tree", seed=2, **TREE)
            assert queue.cancel(doomed) and queue.cancel(twin)
            runner.release.set()
            blocker.result(timeout=30)
        finally:
            queue.shutdown(wait=True)
        # Only the blocker ran; the abandoned group was skipped.
        assert runner.calls == 1

    def test_unseeded_stochastic_jobs_still_coalesce(self):
        """No cache key (not reproducible) but identical in-flight
        submissions still share the one execution."""
        runner = _BlockingRunner()
        queue = JobQueue(workers=1, runner=runner)
        try:
            leader = queue.submit("qutrit_tree", num_controls=3,
                                  backend="statevector", shots=16)
            assert runner.started.wait(10)
            follower = queue.submit("qutrit_tree", num_controls=3,
                                    backend="statevector", shots=16)
            assert follower.served_from == "coalesced"
            runner.release.set()
            leader.result(timeout=30)
            follower.result(timeout=30)
        finally:
            queue.shutdown(wait=True)
        assert runner.calls == 1
        # And nothing was cached: a later identical submission runs.
        assert len(queue.cache) == 0


class TestBackpressure:
    def test_reject_at_bound(self):
        runner = _BlockingRunner()
        queue = JobQueue(workers=1, max_pending=1, runner=runner)
        try:
            queue.submit("qutrit_tree", seed=1, **TREE)
            assert runner.started.wait(10)  # worker holds job 1
            queue.submit("qutrit_tree", seed=2, **TREE)  # fills the queue
            with pytest.raises(QueueFullError):
                queue.submit("qutrit_tree", seed=3, **TREE)
        finally:
            runner.release.set()
            queue.shutdown(wait=True)
        assert queue.stats.rejected == 1

    def test_rejected_duplicate_still_coalesces(self):
        """Backpressure bounds *distinct* executions: a duplicate of a
        queued job attaches instead of rejecting."""
        runner = _BlockingRunner()
        queue = JobQueue(workers=1, max_pending=1, runner=runner)
        try:
            queue.submit("qutrit_tree", seed=1, **TREE)
            assert runner.started.wait(10)
            queue.submit("qutrit_tree", seed=2, **TREE)
            follower = queue.submit("qutrit_tree", seed=2, **TREE)
            assert follower.served_from == "coalesced"
        finally:
            runner.release.set()
            queue.shutdown(wait=True)

    def test_block_mode_times_out(self):
        runner = _BlockingRunner()
        queue = JobQueue(workers=1, max_pending=1,
                         backpressure="block", runner=runner)
        try:
            queue.submit("qutrit_tree", seed=1, **TREE)
            assert runner.started.wait(10)
            queue.submit("qutrit_tree", seed=2, **TREE)
            with pytest.raises(QueueFullError):
                queue.submit("qutrit_tree", seed=3, timeout=0.05, **TREE)
        finally:
            runner.release.set()
            queue.shutdown(wait=True)

    def test_block_mode_proceeds_when_space_frees(self):
        runner = _BlockingRunner()
        queue = JobQueue(workers=1, max_pending=1,
                         backpressure="block", runner=runner)
        jobs = {}
        try:
            jobs["a"] = queue.submit("qutrit_tree", seed=1, **TREE)
            assert runner.started.wait(10)
            jobs["b"] = queue.submit("qutrit_tree", seed=2, **TREE)

            def blocked_submit():
                jobs["c"] = queue.submit("qutrit_tree", seed=3,
                                         timeout=30, **TREE)

            thread = threading.Thread(target=blocked_submit)
            thread.start()
            thread.join(timeout=0.2)
            assert thread.is_alive()  # genuinely blocked at the bound
            runner.release.set()  # a completes -> b pops -> space frees
            thread.join(timeout=30)
            assert not thread.is_alive()
            for job in jobs.values():
                assert job.result(timeout=30).values == (1,)
        finally:
            runner.release.set()
            queue.shutdown(wait=True)
        assert queue.stats.rejected == 0


class TestCachingAndPersistence:
    def test_memory_hit_skips_worker(self):
        calls = []

        def counting(request):
            calls.append(request)
            return _stub_result()

        with JobQueue(workers=1, runner=counting) as queue:
            first = queue.submit("qutrit_tree", seed=5, **TREE)
            first.result(timeout=30)
            second = queue.submit("qutrit_tree", seed=5, **TREE)
            assert second.state is JobState.DONE  # instant, no worker
            assert second.served_from == "memory"
        assert len(calls) == 1
        assert queue.stats.memory_hits == 1

    def test_store_round_trip_across_restart(self, tmp_path):
        """Simulated restart: a fresh queue with a cold LRU over the
        same store directory serves the result without executing."""
        with JobQueue(workers=1, store=ResultStore(tmp_path)) as queue:
            job = queue.submit("qutrit_tree", seed=5, **TREE)
            original = job.result(timeout=60)
            assert queue.stats.executed == 1

        restarted = JobQueue(
            workers=1,
            cache=ResultCache(backing=ResultStore(tmp_path)),
            runner=lambda request: pytest.fail("must not re-execute"),
        )
        with restarted as queue:
            job = queue.submit("qutrit_tree", seed=5, **TREE)
            assert job.state is JobState.DONE
            assert job.served_from == "backing"
            assert job.result().values == original.values
        assert restarted.stats.persistent_hits == 1
        assert restarted.stats.executed == 0

    def test_describe_reports_store(self, tmp_path):
        with JobQueue(workers=1, store=ResultStore(tmp_path)) as queue:
            queue.submit("qutrit_tree", seed=5, **TREE).result(timeout=60)
            info = queue.describe()
        assert info["store_entries"] == 1
        assert info["store_bytes"] > 0
        assert info["executed"] == 1
        assert info["workers"] == 1


class TestFairness:
    def test_stats_snapshot_is_a_copy(self):
        with JobQueue(workers=1) as queue:
            queue.submit("qutrit_tree", **TREE).result(timeout=60)
            snap = queue.stats_snapshot()
            snap.submitted = 999
            assert queue.stats.submitted == 1

    def test_submitters_share_the_pool(self):
        order = []
        lock = threading.Lock()
        runner_gate = _BlockingRunner()

        def recording(request):
            with lock:
                order.append(request.seed)
            return _stub_result()

        queue = JobQueue(workers=1, runner=runner_gate)
        try:
            # Pin the worker, then interleave two submitters' backlogs.
            queue.submit("qutrit_tree", seed=0, **TREE)
            assert runner_gate.started.wait(10)
            queue._runner = recording
            chatty = [queue.submit("qutrit_tree", seed=10 + i,
                                   submitter="chatty", **TREE)
                      for i in range(4)]
            quiet = queue.submit("qutrit_tree", seed=99,
                                 submitter="quiet", **TREE)
            runner_gate.release.set()
            quiet.result(timeout=30)
            for job in chatty:
                job.result(timeout=30)
        finally:
            queue.shutdown(wait=True)
        # Round-robin: quiet's single job ran before chatty drained.
        assert order.index(99) < len(order) - 1


class TestPlanMemo:
    """Submissions plan through the facade's memo on ``queue.cache``."""

    SPEC = PipelineSpec.from_name("hardware-line")
    RUN = dict(num_controls=3, backend="statevector", shots=8)

    @pytest.fixture()
    def compiles(self, monkeypatch):
        calls = []
        original = CompilePipeline.compile

        def spy(self, circuit):
            calls.append(self.name)
            return original(self, circuit)

        monkeypatch.setattr(CompilePipeline, "compile", spy)
        return calls

    def test_repeat_submission_never_compiles(self, compiles):
        with JobQueue(workers=1) as queue:
            first = queue.submit("qutrit_tree", pipeline=self.SPEC, seed=1,
                                 **self.RUN)
            first.result(timeout=60)
            hit = queue.submit("qutrit_tree", pipeline=self.SPEC, seed=1,
                               **self.RUN)
            # A new seed misses the result cache but not the plan.
            rerun = queue.submit("qutrit_tree", pipeline=self.SPEC, seed=2,
                                 **self.RUN)
            rerun.result(timeout=60)
            info = queue.describe()
        assert compiles == ["hardware-line"]
        assert hit.served_from == "memory"
        assert rerun.served_from is None
        assert info["plans"] == 1
        assert (info["plan_misses"], info["plan_hits"]) == (1, 2)

    def test_clear_forgets_plans(self, compiles):
        with JobQueue(workers=1) as queue:
            queue.submit("qutrit_tree", pipeline=self.SPEC, seed=1,
                         **self.RUN).result(timeout=60)
            queue.cache.clear()
            assert queue.describe()["plans"] == 0
            job = queue.submit("qutrit_tree", pipeline=self.SPEC, seed=1,
                               **self.RUN)
            job.result(timeout=60)
        assert len(compiles) == 2
        assert job.served_from is None

    def test_queues_share_plans_only_through_a_shared_cache(self, compiles):
        shared = ResultCache()
        for _ in range(2):
            with JobQueue(workers=1, cache=shared) as queue:
                queue.submit("qutrit_tree", pipeline=self.SPEC, seed=1,
                             **self.RUN).result(timeout=60)
        with JobQueue(workers=1) as queue:
            queue.submit("qutrit_tree", pipeline=self.SPEC, seed=1,
                         **self.RUN).result(timeout=60)
        assert len(compiles) == 2

    def test_memoised_job_matches_direct_execute(self):
        with JobQueue(workers=1) as queue:
            jobs = [
                queue.submit("qutrit_tree", pipeline=self.SPEC, seed=seed,
                             **self.RUN)
                for seed in (1, 2)
            ]
            served = jobs[1].result(timeout=60)
        direct = execute("qutrit_tree", pipeline=self.SPEC, seed=2,
                         cache=False, **self.RUN)
        assert served.wires == direct.wires
        assert served.measurements.counts() == direct.measurements.counts()
