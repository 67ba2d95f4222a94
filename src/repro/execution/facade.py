"""``execute()`` — the single entry point of the library.

One call covers the paper's whole experimental loop: build (or accept) a
circuit, push it through a :class:`CompilePipeline`, and run it on any
registered :class:`Backend` — optionally over a parameter sweep, sharded
across worker processes, with results memoised in an in-memory cache.

The target may be:

* a :class:`~repro.circuits.circuit.Circuit`,
* a :class:`~repro.toffoli.spec.ConstructionResult`,
* a registry name from :data:`repro.toffoli.CONSTRUCTIONS` (built with
  the keyword arguments / sweep parameters, e.g. ``num_controls=5``),
* any callable returning one of the above.

Sweeps are mappings of parameter name to an iterable of values; the
cartesian product is executed, and each returned result is tagged with
its sweep point in ``result.params``.  Parameter names matching run
options (``shots``, ``trials``, ``seed``, ``initial``) feed the backend;
everything else feeds the circuit builder.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from itertools import product
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from ..circuits.circuit import Circuit
from ..noise.model import NoiseModel
from ..qudits import Qudit
from ..resilience.deadlines import (
    Deadline,
    JobTimeoutError,
    resolve_deadline,
)
from ..resilience.faults import maybe_inject
from ..sim.state import StateVector
from ..toffoli.registry import build_toffoli
from ..toffoli.spec import ConstructionResult
from .backends import Backend, resolve_backend
from .cache import DEFAULT_CACHE, ResultCache, circuit_fingerprint
from .pipeline import (
    CompilePipeline,
    hardware_pipeline,
    lowering_pipeline,
    optimize_pipeline,
    qutrit_promotion_pipeline,
)
from .pipeline_spec import PIPELINE_SPECS, PipelineSpec
from .results import FidelityResult, RunResult

ExecuteTarget = (
    Circuit
    | ConstructionResult
    | str
    | Callable[..., "Circuit | ConstructionResult"]
)

#: Sweep parameter names routed to the backend run, not the builder.
RUN_PARAMS = frozenset({"shots", "trials", "seed", "initial"})

#: Named pipelines accepted as ``pipeline="..."``.  The ``hardware-*``
#: entries route through the lookahead engine onto a zoo topology sized
#: to the circuit at compile time; the ``-opt`` variants additionally
#: run the rewrite engine before and after routing.
NAMED_PIPELINES: dict[str, Callable[[], CompilePipeline]] = {
    "lowering": lowering_pipeline,
    "qutrit-promotion": qutrit_promotion_pipeline,
    "optimize": optimize_pipeline,
    "hardware-line": lambda: hardware_pipeline("line"),
    "hardware-grid": lambda: hardware_pipeline("grid_2d"),
    "hardware-heavy-hex": lambda: hardware_pipeline("heavy_hex"),
    "hardware-line-opt": lambda: hardware_pipeline("line", optimize=True),
    "hardware-grid-opt": lambda: hardware_pipeline(
        "grid_2d", optimize=True
    ),
    "hardware-heavy-hex-opt": lambda: hardware_pipeline(
        "heavy_hex", optimize=True
    ),
}

#: Same seed-derivation constant as :mod:`repro.sim.parallel`, so facade
#: shards reproduce the existing parallel estimator exactly.
_SEED_STRIDE = 1_000_003


def resolve_pipeline(
    spec: "CompilePipeline | PipelineSpec | str | None",
) -> CompilePipeline | None:
    """Accept a pipeline, a :class:`PipelineSpec`, a name, or None.

    Plain string names are the legacy form, kept as a deprecation shim:
    they warn and resolve through the original factories (so observable
    behaviour — including the reported pipeline name — is unchanged).
    New call sites should pass ``PipelineSpec.from_name(name)`` or a
    hand-built spec.
    """
    if spec is None or isinstance(spec, CompilePipeline):
        return spec
    if isinstance(spec, PipelineSpec):
        return spec.build()
    if isinstance(spec, str):
        if spec in NAMED_PIPELINES or spec in PIPELINE_SPECS:
            warnings.warn(
                f"passing pipeline name strings is deprecated; use "
                f"PipelineSpec.from_name({spec!r})",
                DeprecationWarning,
                stacklevel=2,
            )
            if spec in NAMED_PIPELINES:
                return NAMED_PIPELINES[spec]()
            return PIPELINE_SPECS[spec].build()
        raise KeyError(
            f"unknown pipeline {spec!r}; choose from "
            f"{sorted(set(NAMED_PIPELINES) | set(PIPELINE_SPECS))} or "
            "pass a CompilePipeline / PipelineSpec"
        )
    raise TypeError(
        f"cannot resolve a pipeline from {type(spec).__name__}"
    )


def _builder_takes_decompose(name: str) -> bool:
    """True if the named construction's builder has a decompose flag.

    Builders without one (Wang chain, Lanyon target) already emit
    permutation-level gates.
    """
    from inspect import signature

    from ..toffoli.registry import CONSTRUCTIONS

    if name not in CONSTRUCTIONS:
        return False  # let build_toffoli raise its descriptive KeyError
    return "decompose" in signature(CONSTRUCTIONS[name].builder).parameters


def _build_target(
    target: ExecuteTarget,
    builder_params: Mapping,
    prefer_undecomposed: bool = False,
) -> tuple[Circuit, list[Qudit] | None]:
    """Materialise the target circuit and its preferred wire order.

    ``prefer_undecomposed`` is set for classical-only backends: named
    constructions are built at permutation-gate granularity (the paper's
    linear-time verification path) when the builder supports it and the
    caller did not choose explicitly.
    """
    if isinstance(target, str):
        params = dict(builder_params)
        if (
            prefer_undecomposed
            and "decompose" not in params
            and _builder_takes_decompose(target)
        ):
            params["decompose"] = False
        built: object = build_toffoli(target, **params)
    elif callable(target) and not isinstance(
        target, (Circuit, ConstructionResult)
    ):
        built = target(**dict(builder_params))
    else:
        if builder_params:
            raise TypeError(
                "builder parameters "
                f"{sorted(builder_params)} were given but the target is "
                "already a concrete circuit"
            )
        built = target
    if isinstance(built, ConstructionResult):
        return built.circuit, built.all_wires
    if isinstance(built, Circuit):
        return built, None
    raise TypeError(
        f"cannot execute object of type {type(built).__name__}"
    )


def materialize_target(
    target: ExecuteTarget,
    builder_params: Mapping | None = None,
    *,
    prefer_undecomposed: bool = False,
) -> tuple[Circuit, list[Qudit] | None]:
    """Public form of the facade's target resolution.

    Builds the concrete circuit (and its preferred wire order, when the
    target is a named construction) exactly the way :func:`plan` does
    before compiling it.
    """
    return _build_target(
        target, dict(builder_params or {}),
        prefer_undecomposed=prefer_undecomposed,
    )


def run_identity(
    *,
    fingerprint: str,
    backend: Backend,
    noise_model: NoiseModel | None,
    wires: tuple[Qudit, ...] | None = None,
    initial: "StateVector | tuple[int, ...] | None" = None,
    shots: int | None = None,
    trials: int | None = None,
    seed: int | None = None,
    batch_size: int | None = None,
) -> tuple:
    """Every input of one fully resolved run that can change its result.

    Exists for every run, cacheable or not: the serving layer digests it
    into the coalescing key, so identical in-flight submissions share one
    execution even when the result may not be cached.  A ``StateVector``
    initial has no serialized identity and is keyed by object, so only
    submissions of the very same state coalesce.
    """
    # Backend instances may carry their own noise model (e.g. a
    # TrajectoryBackend constructed directly); key on the model actually
    # used, not just the execute() argument.
    model = getattr(backend, "noise_model", None) or noise_model
    if isinstance(initial, StateVector):
        initial = ("statevector", id(initial))
    return (
        fingerprint,
        backend.name,
        model.name if model is not None else None,
        wires,
        initial,
        shots,
        trials,
        seed,
        # Chunking changes the trajectory RNG stream, so same-seed runs
        # with different batch sizes are distinct results there; other
        # backends never see the knob, so it must not split their keys.
        batch_size if backend.capabilities.supports_trials else None,
    )


def result_cache_key(**run) -> tuple | None:
    """The facade's result-cache key for one fully resolved run.

    Takes the keyword arguments of :func:`run_identity` and returns that
    identity, or None when the run must not be cached: unseeded
    stochastic runs are not reproducible, and ``StateVector`` initials
    have no stable serialized identity.  The serving layer shares this
    function so facade users and service jobs hit the same cache lines.
    """
    stochastic = run["backend"].capabilities.supports_trials or run.get(
        "shots"
    )
    if stochastic and run.get("seed") is None:
        return None
    if isinstance(run.get("initial"), StateVector):
        return None
    return run_identity(**run)


@dataclass(frozen=True)
class RunPlan:
    """One target built, compiled and optimized, ready to run.

    ``circuit`` is what the backend executes and ``wires`` its
    preferred wire order (None when the target names none, or routing
    re-hosted the construction's wires).  ``fingerprint`` is the
    circuit's canonical digest, taken only when a cache is in use.
    ``notes`` are the compile facts :func:`execute` merges into
    ``result.metadata``.
    """

    circuit: Circuit
    wires: tuple[Qudit, ...] | None
    fingerprint: str | None
    notes: Mapping[str, object]


def _plain(value: object) -> tuple:
    """A hashable, type-exact form of plain data (TypeError otherwise).

    Scalars are keyed by type and ``repr``, so ``3``, ``3.0`` and
    ``True`` — equal and equal-hashing in Python — never share a key.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return (type(value).__name__, repr(value))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(_plain(v) for v in value)
    raise TypeError(f"{type(value).__name__} is not plain data")


def _plan_key(
    target: ExecuteTarget,
    builder_params: Mapping,
    prefer_undecomposed: bool,
    pipeline: "CompilePipeline | PipelineSpec | None",
    optimize: object,
) -> tuple | None:
    """The plan-memo key, or None when the inputs cannot be keyed.

    Only a registry name with plain-data builder parameters, a
    :class:`PipelineSpec` (or none) and a declarative ``optimize`` spec
    is keyed.  Callables, concrete circuits, ``CompilePipeline`` and
    ``RewriteEngine`` instances compile on every call.
    """
    if not isinstance(target, str):
        return None
    if pipeline is not None and not isinstance(pipeline, PipelineSpec):
        return None
    try:
        return (
            target,
            tuple(
                sorted((str(k), _plain(v)) for k, v in builder_params.items())
            ),
            prefer_undecomposed,
            pipeline.to_json() if pipeline is not None else None,
            _plain(optimize),
        )
    except TypeError:  # non-plain builder, stage or optimize values
        return None


def plan(
    target: ExecuteTarget,
    builder_params: Mapping | None = None,
    *,
    backend: Backend,
    pipeline: "CompilePipeline | PipelineSpec | str | None" = None,
    optimize: "bool | str | Sequence | object | None" = None,
    cache: ResultCache | None = None,
) -> RunPlan:
    """Build, compile, optimize and fingerprint one target.

    The single path from a request to a runnable circuit, shared by
    :func:`execute` and :meth:`repro.service.JobQueue.submit`.  With a
    ``cache`` the plan is memoised on it, keyed on the target name, the
    builder parameters, the backend's ``classical_circuits_only``
    preference, the pipeline spec and the ``optimize`` spec, so an
    identical request skips straight to the result lookup.  Inputs that
    cannot be keyed (see :func:`_plan_key`) compile on every call.
    Without a cache nothing is memoised and no fingerprint is taken.
    """
    from ..optimize import resolve_engine

    if not isinstance(pipeline, PipelineSpec):
        # Specs stay unbuilt so the memo can key on them; legacy name
        # strings go through the deprecation shim.
        pipeline = resolve_pipeline(pipeline)
    params = dict(builder_params or {})
    prefer_undecomposed = backend.capabilities.classical_circuits_only
    key = None
    if cache is not None:
        key = _plan_key(
            target, params, prefer_undecomposed, pipeline, optimize
        )
        if key is not None:
            memoised = cache.get_plan(key)
            if memoised is not None:
                return memoised

    circuit, wires = _build_target(
        target, params, prefer_undecomposed=prefer_undecomposed
    )
    notes: dict = {}
    compiler = (
        pipeline.build() if isinstance(pipeline, PipelineSpec) else pipeline
    )
    if compiler is not None:
        compiled = compiler.compile(circuit)
        circuit = compiled.circuit
        notes = {
            "pipeline": compiler.name,
            "passes": compiled.pass_names,
            "compiled_depth": compiled.depth,
            "compiled_operations": compiled.num_operations,
        }
        # Routing re-hosts logical wires on physical sites, so any
        # wire order inferred from the construction is stale.
        if set(circuit.all_qudits()) != set(wires or circuit.all_qudits()):
            wires = None
    engine = resolve_engine(optimize)
    if engine is not None:
        circuit, opt_report = engine.run(circuit)
        notes.update(
            optimize_passes=tuple(p.name for p in engine.passes),
            optimize_gates_removed=opt_report.gates_removed,
            optimize_depth_removed=opt_report.depth_removed,
            optimize_iterations=opt_report.iterations,
        )
        if opt_report.verified is not None:
            notes["optimize_verified"] = opt_report.verified
    run_plan = RunPlan(
        circuit=circuit,
        wires=tuple(wires) if wires is not None else None,
        fingerprint=(
            circuit_fingerprint(circuit) if cache is not None else None
        ),
        notes=MappingProxyType(notes),
    )
    if key is not None:
        cache.put_plan(key, run_plan)
    return run_plan


@dataclass(frozen=True)
class _Task:
    """One unit of work, in-process or for the process pool.

    In-process runs execute ``circuit`` directly.  Before a task is
    handed to a worker process, :func:`_serialized` swaps the object
    for its canonical JSON form (``circuit_data``): workers rebuild the
    circuit through the gate registry, so what crosses the process
    boundary is the same wire format ``circuit save/load`` writes to
    disk — not a pickled object graph — and it stays stable across
    refactors of the gate classes.
    """

    circuit: Circuit | None
    backend: str | Backend
    noise_model: NoiseModel | None
    wires: tuple[Qudit, ...] | None
    initial: StateVector | tuple[int, ...] | None
    shots: int | None
    trials: int | None
    seed: int | None
    params: tuple[tuple[str, object], ...]
    #: (point index, shard index) for deterministic reassembly.
    point: int
    shard: int
    #: Canonical circuit digest; filled only when caching is on.
    fingerprint: str | None = None
    #: Serialized form, filled by :func:`_serialized` for pool dispatch.
    circuit_data: str | None = None
    #: Trajectory chunk size (None = auto); only trajectory-capable
    #: backends receive it.
    batch_size: int | None = None


def _serialized(task: _Task) -> _Task:
    """The task with its circuit lowered to the serialized wire form."""
    if task.circuit is None:
        return task
    return replace(
        task, circuit=None, circuit_data=task.circuit.to_json()
    )


def _run_task(task: _Task) -> RunResult:
    backend = resolve_backend(task.backend, task.noise_model)
    circuit = (
        task.circuit
        if task.circuit is not None
        else Circuit.from_json(task.circuit_data)
    )
    run_kwargs = dict(
        wires=list(task.wires) if task.wires is not None else None,
        initial=task.initial,
        shots=task.shots,
        trials=task.trials,
        seed=task.seed,
    )
    # The batch knob only exists on trajectory-capable backends; keep
    # the Backend protocol narrow for everyone else.
    if task.batch_size is not None and backend.capabilities.supports_trials:
        run_kwargs["batch_size"] = task.batch_size
    result = backend.run(circuit, **run_kwargs)
    return result.with_params(dict(task.params))


def _cache_key(task: _Task, backend: Backend) -> tuple | None:
    """A hashable cache key, or None when the run must not be cached."""
    if task.fingerprint is None:
        return None
    return result_cache_key(
        fingerprint=task.fingerprint,
        backend=backend,
        noise_model=task.noise_model,
        wires=task.wires,
        initial=task.initial,
        shots=task.shots,
        trials=task.trials,
        seed=task.seed,
        batch_size=task.batch_size,
    )


def execute(
    target: ExecuteTarget,
    *,
    backend: str | Backend = "statevector",
    pipeline: CompilePipeline | PipelineSpec | str | None = None,
    optimize: "bool | str | Sequence | object | None" = None,
    noise_model: NoiseModel | None = None,
    wires: Sequence[Qudit] | None = None,
    initial: StateVector | Sequence[int] | None = None,
    shots: int | None = None,
    trials: int | None = None,
    seed: int | None = None,
    batch_size: int | None = None,
    sweep: Mapping[str, Iterable] | None = None,
    parallel: bool = False,
    workers: int = 4,
    cache: bool | ResultCache = False,
    timeout: "float | Deadline | None" = None,
    **build_kwargs,
) -> RunResult | list[RunResult]:
    """Compile and run a circuit (or a sweep of circuits) on a backend.

    Returns one :class:`RunResult` without ``sweep``, else a list with
    one result per sweep point (cartesian order).  With ``parallel=True``
    sweep points run across a process pool; on the trajectory backend
    each point's trials are additionally sharded and exactly merged, so
    parallel results match serial runs in distribution for a fixed
    ``seed``.  ``batch_size`` tunes the trajectory backend's
    stacked-trajectory chunking (``None`` auto-sizes; ``1`` forces the
    looped reference engine); other backends ignore it.
    ``cache=True`` memoises deterministic results in the
    process-wide :data:`~repro.execution.cache.DEFAULT_CACHE` (pass a
    :class:`ResultCache` to use your own); entries are keyed on the
    circuit's canonical identity
    (:func:`~repro.execution.cache.circuit_fingerprint`), so two
    structurally equal circuits share a cache line no matter how they
    were built.  The same cache memoises each point's compiled
    :class:`RunPlan` (see :func:`plan`), so a repeated call skips build,
    compile and fingerprint.  Worker processes receive circuits as
    serialized specs (:meth:`Circuit.to_json`) and rebuild them through
    the gate registry.

    ``optimize`` runs the :mod:`repro.optimize` rewrite engine on each
    compiled circuit before execution: ``True`` uses the default pass
    set, a string or sequence names passes (see
    :func:`~repro.optimize.resolve_engine`), and a
    :class:`~repro.optimize.RewriteEngine` passes through.  The cache
    fingerprint is taken from the *optimized* circuit, so an optimized
    run shares cache lines with any structurally equal optimized
    circuit, never with its unoptimized form.

    ``timeout`` is a cooperative budget in seconds (or a
    :class:`~repro.resilience.Deadline`): it is checked between sweep
    tasks and while waiting on process shards, and raises the typed
    :class:`~repro.resilience.JobTimeoutError` when it expires.
    Nothing is killed mid-flight — a single task that overruns still
    completes, and a run that finishes just past its deadline still
    returns (completion wins the race).
    """
    deadline = resolve_deadline(timeout)
    backend_spec = backend
    probe = resolve_backend(backend_spec, noise_model)
    # Note: an empty ResultCache is falsy (len 0), so test identity/type
    # rather than truthiness.
    cache_store: ResultCache | None
    if isinstance(cache, ResultCache):
        cache_store = cache
    else:
        cache_store = DEFAULT_CACHE if cache else None

    # -- expand sweep points -------------------------------------------
    if sweep:
        names = list(sweep)
        points = [
            dict(zip(names, values))
            for values in product(*(list(sweep[n]) for n in names))
        ]
    else:
        points = [{}]

    # -- plan every point up front -------------------------------------
    tasks: list[_Task] = []
    compile_notes: list[Mapping] = []
    for index, point in enumerate(points):
        run_overrides = {k: v for k, v in point.items() if k in RUN_PARAMS}
        builder_params = dict(build_kwargs)
        builder_params.update(
            {k: v for k, v in point.items() if k not in RUN_PARAMS}
        )
        run_plan = plan(
            target, builder_params, backend=probe, pipeline=pipeline,
            optimize=optimize, cache=cache_store,
        )
        compile_notes.append(run_plan.notes)

        point_wires = wires if wires is not None else run_plan.wires
        point_seed = (
            seed
            if seed is None or not sweep
            else seed * _SEED_STRIDE + index
        )
        point_seed = run_overrides.get("seed", point_seed)
        point_initial = run_overrides.get("initial", initial)
        if not isinstance(point_initial, (StateVector, type(None))):
            point_initial = tuple(point_initial)
        tasks.append(
            _Task(
                circuit=run_plan.circuit,
                fingerprint=run_plan.fingerprint,
                backend=backend_spec,
                noise_model=noise_model,
                wires=tuple(point_wires) if point_wires is not None else None,
                initial=point_initial,
                shots=run_overrides.get("shots", shots),
                trials=run_overrides.get("trials", trials),
                seed=point_seed,
                batch_size=batch_size,
                params=tuple(sorted(point.items())),
                point=index,
                shard=0,
            )
        )

    # -- run ------------------------------------------------------------
    results = _run_tasks(
        tasks, probe, parallel=parallel, workers=workers,
        cache=cache_store, deadline=deadline,
    )
    for index, note in enumerate(compile_notes):
        if note:
            results[index] = replace(
                results[index],
                metadata={**results[index].metadata, **note},
            )
    if not sweep:
        return results[0]
    return results


def _shard_tasks(task: _Task, workers: int) -> list[_Task]:
    """Split one trajectory task into per-worker shards (seeded)."""
    from .backends import TrajectoryBackend

    trials = (
        task.trials
        if task.trials is not None
        else TrajectoryBackend.default_trials
    )
    if task.seed is None or workers <= 1 or trials < 2 * workers:
        return [task]
    base, extra = divmod(trials, workers)
    return [
        replace(
            task,
            trials=base + (1 if index < extra else 0),
            seed=task.seed * _SEED_STRIDE + index,
            shard=index,
        )
        for index in range(workers)
    ]


def _run_tasks(
    tasks: list[_Task],
    probe: Backend,
    *,
    parallel: bool,
    workers: int,
    cache: ResultCache | None,
    deadline: Deadline | None = None,
) -> list[RunResult]:
    shards_trials = probe.capabilities.supports_trials
    results: dict[int, RunResult] = {}
    pending: list[_Task] = []
    keys: dict[int, tuple] = {}

    for task in tasks:
        key = _cache_key(task, probe) if cache is not None else None
        if key is not None:
            keys[task.point] = key
            hit = cache.get(key)
            if hit is not None:
                results[task.point] = hit.with_params(dict(task.params))
                continue
        pending.append(task)

    if pending:
        if parallel and shards_trials:
            # Serialize once per task; shards share the JSON string.
            expanded = [
                shard
                for task in map(_serialized, pending)
                for shard in _shard_tasks(task, workers)
            ]
        else:
            expanded = pending
        if parallel and (len(expanded) > 1):
            raw = _run_pool(expanded, workers, deadline)
        else:
            raw = []
            for task in expanded:
                # Cooperative deadline: checked *between* tasks, so a
                # task that overruns still completes.
                if deadline is not None:
                    deadline.check("execute")
                maybe_inject("facade.task")
                raw.append(_run_task(task))

        by_point: dict[int, list[RunResult]] = {}
        for task, result in zip(expanded, raw):
            by_point.setdefault(task.point, []).append(result)
        for task in pending:
            group = by_point[task.point]
            if len(group) == 1:
                merged = group[0]
            else:
                merged = FidelityResult.merge(group)  # trajectory shards
                merged = replace(merged, seed=task.seed)
            results[task.point] = merged
            key = keys.get(task.point)
            if key is not None and cache is not None:
                cache.put(key, merged)

    return [results[index] for index in range(len(tasks))]


def _run_pool(
    expanded: list[_Task],
    workers: int,
    deadline: Deadline | None,
) -> list[RunResult]:
    """Run tasks across a process pool, honouring the deadline while
    waiting on shards.

    The ``facade.task`` chaos site fires in the parent per dispatched
    task (worker processes have no ambient injector).  On expiry,
    not-yet-started shards are cancelled, running ones are left to
    finish in the background (cooperative semantics: nothing is killed
    mid-flight), and the typed :class:`JobTimeoutError` is raised.
    """
    serialized = [_serialized(task) for task in expanded]
    for _ in serialized:
        maybe_inject("facade.task")
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(_run_task, task) for task in serialized]
        raw: list[RunResult] = []
        for future in futures:
            budget = (
                deadline.remaining() if deadline is not None else None
            )
            if budget is not None and budget <= 0.0:
                raise JobTimeoutError(
                    "deadline expired while waiting on process shards"
                )
            try:
                raw.append(future.result(timeout=budget))
            except FuturesTimeoutError:
                raise JobTimeoutError(
                    "deadline expired while waiting on process shards"
                ) from None
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return raw
