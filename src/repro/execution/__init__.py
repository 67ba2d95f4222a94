"""Unified execution layer: backends, compile pipelines, and execute().

This subsystem is the public API of the library.  The engines in
:mod:`repro.sim` stay importable for direct use, but new code should go
through :func:`execute`::

    from repro import execute

    result = execute("qutrit_tree", num_controls=5, backend="classical",
                     initial=(1, 1, 1, 1, 1, 0))
    print(result.values)
"""

from .backends import (
    Backend,
    BackendCapabilities,
    ClassicalBackend,
    DensityMatrixBackend,
    StateVectorBackend,
    TrajectoryBackend,
    available_backends,
    register_backend,
    resolve_backend,
)
from .cache import (
    DEFAULT_CACHE,
    CacheBacking,
    CacheStats,
    ResultCache,
    cache_key_digest,
    cache_key_encoding,
    circuit_fingerprint,
)
from .facade import (
    NAMED_PIPELINES,
    RunPlan,
    execute,
    materialize_target,
    plan,
    resolve_pipeline,
    result_cache_key,
    run_identity,
)
from .passes import (
    ASAPReschedule,
    CompilePass,
    DecomposeToWidth2,
    MergeMoments,
    PromoteQubitsToQutrits,
    RouteToTopology,
    promote_gate,
    transform_operations,
)
from .pipeline import (
    CompiledCircuit,
    CompilePipeline,
    hardware_pipeline,
    lowering_pipeline,
    qutrit_promotion_pipeline,
)
from .pipeline_spec import (
    PIPELINE_SPECS,
    STAGE_KINDS,
    PipelineSpec,
    PipelineStage,
)
from .results import FidelityResult, RunResult

__all__ = [
    "Backend",
    "BackendCapabilities",
    "ClassicalBackend",
    "StateVectorBackend",
    "DensityMatrixBackend",
    "TrajectoryBackend",
    "register_backend",
    "resolve_backend",
    "available_backends",
    "RunResult",
    "FidelityResult",
    "CompilePass",
    "DecomposeToWidth2",
    "PromoteQubitsToQutrits",
    "RouteToTopology",
    "ASAPReschedule",
    "MergeMoments",
    "promote_gate",
    "transform_operations",
    "CompilePipeline",
    "CompiledCircuit",
    "PipelineSpec",
    "PipelineStage",
    "PIPELINE_SPECS",
    "STAGE_KINDS",
    "lowering_pipeline",
    "qutrit_promotion_pipeline",
    "hardware_pipeline",
    "execute",
    "plan",
    "RunPlan",
    "materialize_target",
    "resolve_pipeline",
    "result_cache_key",
    "run_identity",
    "NAMED_PIPELINES",
    "CacheBacking",
    "ResultCache",
    "CacheStats",
    "DEFAULT_CACHE",
    "cache_key_digest",
    "cache_key_encoding",
    "circuit_fingerprint",
]
