"""The async job queue over the :func:`repro.execute` facade.

:class:`JobQueue` is the serving layer's engine room.  One instance owns

* a **worker pool** of threads draining a :class:`FairScheduler`
  (per-submitter round-robin with aging priorities) — heavy jobs may
  additionally request ``parallel=True``, which reuses the facade's
  process-shard machinery (:mod:`repro.sim.parallel`) inside the worker;
* **request coalescing** — submissions are keyed on the circuit's
  canonical fingerprint plus a digest of every run parameter; while a
  job with the same key is in flight, identical submissions attach to it
  as followers and the single execution fans its result (or failure)
  out to every handle;
* a **two-level result cache** — the in-memory
  :class:`~repro.execution.cache.ResultCache` LRU, optionally layered
  over a persistent :class:`~repro.service.store.ResultStore`, checked
  at submit time so repeated deterministic work completes without ever
  touching a worker; the same cache memoises each request's compiled
  plan, so a hit pays no build, compile or fingerprint;
* **backpressure** — the queue of distinct pending executions is
  bounded; overflow either rejects (:class:`QueueFullError`) or blocks
  the submitter until space frees, per the configured policy.

Lifecycle summary (see :class:`~repro.service.jobs.JobState`):
submissions start QUEUED, move to RUNNING when a worker picks their
group up, and finish DONE / FAILED (with the captured traceback) /
CANCELLED / TIMED_OUT.  Cancelling a QUEUED job succeeds immediately;
cancelling a RUNNING job returns False (executions are not interrupted
mid-flight).

The resilience layer (``docs/RESILIENCE.md``) threads through here:

* **deadlines** — ``submit(deadline=...)`` attaches a cooperative
  expiry; workers check it before running a group (an expired queued
  group goes straight to TIMED_OUT) and hand the remaining budget to
  the runner, which :func:`repro.execute` enforces between tasks and
  across process shards.  A run that *completes* just as its deadline
  passes still delivers — completion wins the race.
* **retries** — a :class:`~repro.resilience.RetryPolicy` re-runs
  transient failures with deterministic seeded backoff; each failed
  attempt is recorded on every handle of the group
  (:attr:`Job.attempts`) and counted in :class:`ServiceStats`.
* **admission control** — an
  :class:`~repro.resilience.AdmissionPolicy` estimates the run's
  memory from the circuit dims at submit time and downgrades
  (``parallel`` -> serial, batched -> looped trajectories) or rejects
  (:class:`~repro.resilience.AdmissionError`) instead of OOM-ing.
* **fault injection** — the ``worker.run`` site raises seeded chaos
  faults inside the attempt loop, so the whole retry/failure fan-out
  machinery is exercisable from tests and the chaos bench.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from ..circuits.circuit import Circuit
from ..execution.backends import Backend, resolve_backend
from ..execution.cache import ResultCache, cache_key_digest
from ..execution.facade import (
    execute,
    plan,
    result_cache_key,
    run_identity,
)
from ..execution.results import RunResult
from ..noise.model import NoiseModel
from ..qudits import Qudit
from ..resilience.deadlines import (
    Deadline,
    JobTimeoutError,
    resolve_deadline,
)
from ..resilience.degradation import (
    DEFAULT_ADMISSION,
    AdmissionError,
    AdmissionPolicy,
)
from ..resilience.faults import FaultInjector, maybe_inject
from ..resilience.retry import AttemptRecord, RetryPolicy
from ..sim.state import StateVector
from .jobs import Job, JobState, QueueClosedError, QueueFullError
from .scheduler import FairScheduler
from .store import ResultStore


@dataclass(frozen=True)
class JobRequest:
    """One fully resolved execution: the circuit plus every run knob.

    Built at submit time (targets are planned up front so the
    coalescing key exists before any worker runs), then handed
    unchanged to the runner.
    """

    circuit: Circuit
    backend: "str | Backend"
    noise_model: NoiseModel | None
    wires: tuple[Qudit, ...] | None
    initial: "StateVector | tuple[int, ...] | None"
    shots: int | None
    trials: int | None
    seed: int | None
    batch_size: int | None
    #: Process-shard heavy jobs through :mod:`repro.sim.parallel`.
    parallel: bool = False
    workers: int = 4
    #: Remaining deadline budget in seconds, refreshed per attempt by
    #: the worker loop and enforced cooperatively inside the facade.
    timeout: float | None = None


def default_runner(request: JobRequest) -> RunResult:
    """Execute one request through the facade (no facade-level cache —
    the service owns caching so it can attribute hits)."""
    return execute(
        request.circuit,
        backend=request.backend,
        noise_model=request.noise_model,
        wires=list(request.wires) if request.wires is not None else None,
        initial=request.initial,
        shots=request.shots,
        trials=request.trials,
        seed=request.seed,
        batch_size=request.batch_size,
        parallel=request.parallel,
        workers=request.workers,
        timeout=request.timeout,
        cache=False,
    )


@dataclass
class ServiceStats:
    """Counters of one :class:`JobQueue` instance."""

    submitted: int = 0
    #: Runner invocations — with retries, one group may execute several
    #: times; the fault-free count equals distinct executions.
    executed: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected: int = 0
    coalesced: int = 0
    memory_hits: int = 0
    persistent_hits: int = 0
    #: Handles whose deadline expired before completion.
    timed_out: int = 0
    #: Re-executions triggered by the retry policy.
    retries: int = 0
    #: Submissions downgraded by admission control (still admitted).
    degraded: int = 0
    #: Submissions refused by admission control (never became jobs,
    #: so they are *not* counted in ``submitted``).
    admission_rejected: int = 0

    @property
    def cache_hits(self) -> int:
        """Submissions served by either cache level."""
        return self.memory_hits + self.persistent_hits

    @property
    def coalesce_rate(self) -> float:
        """Fraction of submissions that attached to an in-flight run."""
        return self.coalesced / self.submitted if self.submitted else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of submissions served straight from the caches."""
        return self.cache_hits / self.submitted if self.submitted else 0.0

    @property
    def shared_rate(self) -> float:
        """Fraction of submissions that did not trigger an execution."""
        shared = self.coalesced + self.cache_hits
        return shared / self.submitted if self.submitted else 0.0

    def to_dict(self) -> dict:
        """JSON-ready snapshot including the derived rates."""
        return {
            "submitted": self.submitted,
            "executed": self.executed,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "rejected": self.rejected,
            "coalesced": self.coalesced,
            "memory_hits": self.memory_hits,
            "persistent_hits": self.persistent_hits,
            "timed_out": self.timed_out,
            "retries": self.retries,
            "degraded": self.degraded,
            "admission_rejected": self.admission_rejected,
            "coalesce_rate": self.coalesce_rate,
            "cache_hit_rate": self.cache_hit_rate,
            "shared_rate": self.shared_rate,
        }


@dataclass
class _Group:
    """One distinct execution and every job handle attached to it."""

    key: str
    cache_key: tuple | None
    request: JobRequest
    jobs: list[Job] = field(default_factory=list)
    running: bool = False
    #: Every handle cancelled while still queued; workers skip it.
    abandoned: bool = False
    #: The leader's deadline, enforced for the whole group (coalesced
    #: followers ride on the one execution and inherit it).
    deadline: Deadline | None = None
    #: Shared attempt history — every attached handle aliases this list.
    attempts: list[AttemptRecord] = field(default_factory=list)


class JobQueue:
    """Submit/status/result/cancel over a worker pool with coalescing.

    Parameters
    ----------
    workers:
        Worker threads draining the queue.
    cache:
        In-memory :class:`ResultCache` (``None`` builds a private one).
        Pass a cache constructed with ``backing=`` to layer persistence,
        or use ``store`` as a shorthand.
    store:
        Persistent :class:`ResultStore` layered under the LRU (ignored
        when ``cache`` already has a backing).
    max_pending:
        Bound on *distinct* queued executions (coalesced followers and
        cache hits never consume queue space).
    backpressure:
        ``"reject"`` raises :class:`QueueFullError` at the bound;
        ``"block"`` makes ``submit`` wait for space.
    age_weight:
        Aging rate of the fairness scheduler (see
        :class:`~repro.service.scheduler.FairScheduler`).
    runner:
        Execution callable ``(JobRequest) -> RunResult``; tests inject
        counting/blocking runners here.  Defaults to the facade.
    retry_policy:
        :class:`~repro.resilience.RetryPolicy` re-running transient
        worker failures with deterministic backoff (``None`` = never
        retry, the historical behaviour).
    admission:
        :class:`~repro.resilience.AdmissionPolicy` reviewing every
        submission's estimated memory (defaults to the 1 GiB
        :data:`~repro.resilience.DEFAULT_ADMISSION`).
    fault_injector:
        Seeded :class:`~repro.resilience.FaultInjector` for the
        ``worker.run`` chaos site (``None`` = no injection; the
        ambient injector installed via
        :func:`repro.resilience.install_injector` still applies).
    """

    def __init__(
        self,
        workers: int = 4,
        *,
        cache: ResultCache | None = None,
        store: ResultStore | None = None,
        max_pending: int = 256,
        backpressure: str = "reject",
        age_weight: float = 0.1,
        runner: Callable[[JobRequest], RunResult] | None = None,
        job_retention: int = 10_000,
        retry_policy: RetryPolicy | None = None,
        admission: AdmissionPolicy | None = None,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("worker pool needs at least one thread")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if backpressure not in ("reject", "block"):
            raise ValueError(
                f"backpressure must be 'reject' or 'block', "
                f"got {backpressure!r}"
            )
        if cache is None:
            cache = ResultCache(backing=store)
        elif store is not None and cache.backing is None:
            cache.backing = store
        self.cache = cache
        self.store = cache.backing if isinstance(
            cache.backing, ResultStore
        ) else store
        self.max_pending = max_pending
        self.backpressure = backpressure
        self.stats = ServiceStats()
        self._runner = runner or default_runner
        self._retry_policy = retry_policy
        self._admission = admission if admission is not None \
            else DEFAULT_ADMISSION
        self._fault_injector = fault_injector
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._scheduler: FairScheduler[_Group] = FairScheduler(age_weight)
        self._inflight: dict[str, _Group] = {}
        self._jobs: dict[str, Job] = {}
        self._job_retention = job_retention
        self._shutdown = False
        #: False once drain() was called: no new admissions.
        self._admitting = True
        self._running_groups = 0
        #: Set at shutdown to interrupt retry-backoff sleeps.
        self._wake = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------

    def submit(
        self,
        target,
        *,
        backend: "str | Backend" = "statevector",
        pipeline=None,
        noise_model: NoiseModel | None = None,
        wires: Sequence[Qudit] | None = None,
        initial: "StateVector | Sequence[int] | None" = None,
        shots: int | None = None,
        trials: int | None = None,
        seed: int | None = None,
        batch_size: int | None = None,
        parallel: bool = False,
        workers: int = 4,
        submitter: str = "default",
        priority: int = 0,
        timeout: float | None = None,
        deadline: "float | Deadline | None" = None,
        **build_kwargs,
    ) -> Job:
        """Queue one execution and return its :class:`Job` handle.

        Accepts the same targets and run options as
        :func:`repro.execute` plus the service knobs: ``submitter``
        (fairness bucket), ``priority`` (higher runs sooner, with
        aging), ``timeout`` (block-mode backpressure wait), and
        ``deadline`` (seconds of total budget, or a
        :class:`~repro.resilience.Deadline`; expiry lands the job in
        TIMED_OUT).  The circuit is planned here, on the submitting
        thread, through :func:`repro.execution.facade.plan` (memoised
        on :attr:`cache`, so a repeated request neither builds nor
        compiles), and the handle's coalescing key is final before it
        is returned.

        Raises :class:`~repro.service.QueueClosedError` after shutdown
        or drain, and :class:`~repro.resilience.AdmissionError` when
        the estimated memory footprint exceeds the admission budget
        even after downgrades.
        """
        if self._shutdown or not self._admitting:
            raise QueueClosedError("queue is shut down or draining")
        job_deadline = resolve_deadline(deadline)
        probe = resolve_backend(backend, noise_model)
        run_plan = plan(
            target, build_kwargs, backend=probe, pipeline=pipeline,
            cache=self.cache,
        )
        circuit = run_plan.circuit
        job_wires = tuple(wires) if wires is not None else run_plan.wires
        if not isinstance(initial, (StateVector, type(None))):
            initial = tuple(initial)

        # Admission control: estimate the run's memory from the wire
        # dims and downgrade (or reject) *before* the coalescing and
        # cache keys are computed, so they reflect what actually runs.
        decision = self._admission.review(
            circuit,
            probe.capabilities.kind,
            trials=trials,
            batch_size=batch_size,
            parallel=parallel,
            workers=workers,
        )
        if not decision.admitted:
            with self._lock:
                self.stats.admission_rejected += 1
            raise AdmissionError(decision.reason)
        if "parallel-to-serial" in decision.downgrades:
            parallel = False
        if "batched-to-looped" in decision.downgrades:
            batch_size = 1

        request = JobRequest(
            circuit=circuit,
            backend=backend,
            noise_model=noise_model,
            wires=job_wires,
            initial=initial,
            shots=shots,
            trials=trials,
            seed=seed,
            batch_size=batch_size,
            parallel=parallel,
            workers=workers,
        )
        run = dict(
            fingerprint=run_plan.fingerprint, backend=probe,
            noise_model=noise_model, wires=job_wires, initial=initial,
            shots=shots, trials=trials, seed=seed, batch_size=batch_size,
        )
        cache_key = result_cache_key(**run)
        # The coalescing key covers the same run identity but exists
        # even for non-cacheable (unseeded stochastic) jobs: identical
        # in-flight submissions still share the one execution.
        key = cache_key_digest(run_identity(**run))
        label = target if isinstance(target, str) else type(target).__name__
        job = Job(key, submitter=submitter, priority=priority,
                  label=str(label), deadline=job_deadline)
        job.degraded = decision.downgrades

        with self._lock:
            self.stats.submitted += 1
            if decision.downgrades:
                self.stats.degraded += 1
            self._remember(job)

            # Level 1+2: the layered result cache.
            if cache_key is not None:
                hit, source = self.cache.get_with_source(cache_key)
                if hit is not None:
                    if source == "memory":
                        self.stats.memory_hits += 1
                    else:
                        self.stats.persistent_hits += 1
                    self.stats.completed += 1
                    job.served_from = source
                    job._finish(JobState.DONE, result=hit)
                    return job

            # Level 3: coalesce onto an in-flight identical run.
            group = self._inflight.get(key)
            if group is not None and not group.abandoned:
                self.stats.coalesced += 1
                job.served_from = "coalesced"
                group.jobs.append(job)
                # Followers ride the leader's execution: they share its
                # attempt history and its (possibly absent) deadline.
                job.attempts = group.attempts
                if group.running:
                    job._mark_running()
                return job

            # Level 4: a genuinely new execution — bounded queue.
            if len(self._scheduler) >= self.max_pending:
                if self.backpressure == "reject":
                    self.stats.rejected += 1
                    raise QueueFullError(
                        f"queue full ({self.max_pending} pending "
                        f"executions); job {job.id} rejected"
                    )
                if not self._space.wait_for(
                    lambda: (
                        len(self._scheduler) < self.max_pending
                        or self._shutdown
                    ),
                    timeout=timeout,
                ):
                    self.stats.rejected += 1
                    raise QueueFullError(
                        f"queue full; job {job.id} timed out waiting "
                        f"for space after {timeout}s"
                    )
                if self._shutdown or not self._admitting:
                    raise QueueClosedError("queue is shut down or draining")
            group = _Group(key=key, cache_key=cache_key, request=request,
                           jobs=[job], deadline=job_deadline)
            job.attempts = group.attempts
            self._inflight[key] = group
            self._scheduler.push(group, submitter=submitter,
                                 priority=priority)
            self._not_empty.notify()
        return job

    def _remember(self, job: Job) -> None:
        """Track the handle for id lookups; trim old terminal jobs."""
        self._jobs[job.id] = job
        if len(self._jobs) > self._job_retention:
            for job_id in list(self._jobs):
                if len(self._jobs) <= self._job_retention:
                    break
                if self._jobs[job_id].done():
                    del self._jobs[job_id]

    # -- queries -------------------------------------------------------

    def _resolve_job(self, job: "Job | str") -> Job:
        if isinstance(job, Job):
            return job
        try:
            return self._jobs[job]
        except KeyError:
            raise KeyError(f"unknown job id {job!r}") from None

    def status(self, job: "Job | str") -> JobState:
        """The lifecycle state of a job (by handle or id)."""
        return self._resolve_job(job).state

    def result(self, job: "Job | str", timeout: float | None = None):
        """Block for and return a job's result (see :meth:`Job.result`)."""
        return self._resolve_job(job).result(timeout)

    def job(self, job_id: str) -> Job:
        """Look a handle up by id (raises KeyError when unknown)."""
        return self._resolve_job(job_id)

    def depth(self) -> int:
        """Distinct executions currently queued (not yet running)."""
        with self._lock:
            return len(self._scheduler)

    # -- cancellation --------------------------------------------------

    def cancel(self, job: "Job | str") -> bool:
        """Cancel one handle.

        QUEUED jobs cancel immediately (True).  RUNNING or terminal
        jobs return False — executions are never interrupted mid-
        flight, and coalesced siblings keep their claim on the result.
        When every handle of a queued group is cancelled, the execution
        itself is abandoned and its queue slot freed.
        """
        job = self._resolve_job(job)
        with self._lock:
            if job.state is not JobState.QUEUED:
                return False
            job._finish(JobState.CANCELLED)
            self.stats.cancelled += 1
            group: _Group | None = self._inflight.get(job.key)
            if group is not None and all(j.done() for j in group.jobs):
                group.abandoned = True
                del self._inflight[job.key]
                # The scheduler entry stays queued; workers skip
                # abandoned groups when they surface.
            return True

    # -- worker pool ---------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._scheduler and not self._shutdown:
                    self._not_empty.wait()
                if self._shutdown and not self._scheduler:
                    return
                group = self._scheduler.pop()
                self._space.notify()
                if group is None or group.abandoned:
                    self._notify_if_idle()
                    continue
                if group.deadline is not None and group.deadline.expired():
                    # Expired while queued: straight to TIMED_OUT,
                    # never run.
                    self._inflight.pop(group.key, None)
                    error = JobTimeoutError(
                        "deadline expired before execution started"
                    )
                    for job in group.jobs:
                        if not job.done():
                            self.stats.timed_out += 1
                            job._finish(JobState.TIMED_OUT, error=error)
                    self._notify_if_idle()
                    continue
                group.running = True
                self._running_groups += 1
                for job in group.jobs:
                    if not job.done():
                        job._mark_running()
            self._run_group(group)

    def _run_group(self, group: _Group) -> None:
        """One group's attempt loop, outside the queue lock.

        Each attempt hands the runner the *remaining* deadline budget;
        transient failures retry with deterministic backoff up to the
        policy's cap; a run that completes after its deadline passed
        still delivers (completion wins the race).
        """
        policy = self._retry_policy
        attempt = 0
        while True:
            attempt += 1
            request = group.request
            if group.deadline is not None:
                remaining = group.deadline.remaining()
                if remaining <= 0.0:
                    self._finish_group(
                        group, JobState.TIMED_OUT,
                        error=JobTimeoutError(
                            f"deadline expired after {attempt - 1} "
                            f"attempt(s)"
                        ),
                    )
                    return
                request = replace(request, timeout=remaining)
            try:
                maybe_inject("worker.run", self._fault_injector)
                result = self._runner(request)
            except JobTimeoutError as error:
                with self._lock:
                    self.stats.executed += 1
                self._finish_group(group, JobState.TIMED_OUT, error=error)
                return
            except BaseException as error:  # noqa: BLE001 - fan out
                captured = traceback.format_exc()
                retry = (
                    policy is not None
                    and attempt < policy.max_attempts
                    and policy.retryable(error)
                    and not self._shutdown
                    and not (
                        group.deadline is not None
                        and group.deadline.expired()
                    )
                )
                delay = policy.delay(attempt, group.key) if retry else 0.0
                record = AttemptRecord(
                    attempt=attempt,
                    error_type=type(error).__name__,
                    message=str(error),
                    delay=delay,
                    retried=retry,
                )
                with self._lock:
                    self.stats.executed += 1
                    group.attempts.append(record)
                    if retry:
                        self.stats.retries += 1
                if not retry:
                    self._finish_group(
                        group, JobState.FAILED,
                        error=error, traceback_text=captured,
                    )
                    return
                # Interruptible backoff: shutdown wakes sleepers early.
                self._wake.wait(delay)
            else:
                with self._lock:
                    self.stats.executed += 1
                self._finish_group(group, JobState.DONE, result=result)
                return

    def _finish_group(
        self,
        group: _Group,
        state: JobState,
        *,
        result: RunResult | None = None,
        error: BaseException | None = None,
        traceback_text: str | None = None,
    ) -> None:
        """Fan one terminal state out to every live handle of a group."""
        with self._lock:
            self._inflight.pop(group.key, None)
            self._running_groups -= 1
            if state is JobState.DONE and group.cache_key is not None:
                self.cache.put(group.cache_key, result)
            for job in group.jobs:
                if job.done():
                    continue
                if state is JobState.DONE:
                    self.stats.completed += 1
                elif state is JobState.TIMED_OUT:
                    self.stats.timed_out += 1
                else:
                    self.stats.failed += 1
                job._finish(state, result=result, error=error,
                            traceback=traceback_text)
            self._notify_if_idle()

    def _notify_if_idle(self) -> None:
        """Wake drain() waiters once nothing is queued or running.

        Caller must hold ``self._lock``.
        """
        if not self._scheduler and self._running_groups == 0:
            self._idle.notify_all()

    # -- lifecycle -----------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admissions and wait for in-flight work to finish.

        After ``drain()`` every further :meth:`submit` raises
        :class:`~repro.service.QueueClosedError`; queued and running
        groups complete normally.  Returns True once the queue is idle
        (False on ``timeout``).  The workers stay alive — call
        :meth:`shutdown` to stop them.
        """
        with self._lock:
            self._admitting = False
            settled = self._idle.wait_for(
                lambda: (
                    (not self._scheduler and self._running_groups == 0)
                    or self._shutdown
                ),
                timeout=timeout,
            )
        return bool(settled)

    def shutdown(self, wait: bool = True,
                 cancel_pending: bool = False) -> None:
        """Stop the pool.

        ``wait=True`` drains the queue first (workers finish every
        pending group).  ``wait=False`` or ``cancel_pending=True``
        deterministically CANCELs every still-queued group (cancel
        reason ``"queue shut down"``) rather than orphaning handles in
        QUEUED forever; running groups always finish.  Idempotent.
        """
        with self._lock:
            self._shutdown = True
            self._admitting = False
            self._wake.set()
            if cancel_pending or not wait:
                for group in self._scheduler.drain():
                    if group.abandoned:
                        continue
                    self._inflight.pop(group.key, None)
                    for job in group.jobs:
                        if not job.done():
                            self.stats.cancelled += 1
                            job._finish(JobState.CANCELLED,
                                        reason="queue shut down")
            self._not_empty.notify_all()
            self._space.notify_all()
            self._idle.notify_all()
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    def stats_snapshot(self) -> ServiceStats:
        """A point-in-time copy of the counters."""
        with self._lock:
            return replace(self.stats)

    def describe(self) -> Mapping:
        """JSON-ready summary: counters, rates, queue depth, caches."""
        with self._lock:
            info = self.stats.to_dict()
            info["queue_depth"] = len(self._scheduler)
            info["inflight"] = len(self._inflight)
            info["workers"] = len(self._threads)
            info["cache_entries"] = len(self.cache)
            info["plans"] = self.cache.plan_count
            info["plan_hits"] = self.cache.stats.plan_hits
            info["plan_misses"] = self.cache.stats.plan_misses
            if self.store is not None:
                info["store_entries"] = len(self.store)
                info["store_bytes"] = self.store.total_bytes()
                info["store"] = self.store.stats.to_dict()
                if self.store.breaker is not None:
                    info["breaker"] = self.store.breaker.to_dict()
            if self._fault_injector is not None:
                info["faults"] = self._fault_injector.to_dict()
            return info
