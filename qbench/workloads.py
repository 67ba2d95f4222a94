"""The two workloads: seeded rounds, the untraced path, the traced path
and the output checks.

Every workload builds a run from whole rounds.  A round holds a fixed
number of requests of each request class (so every run has the same
class proportions); the seed only changes the order of a round and the
inputs each request carries.  The class mixes are chosen so that the
median rank and the tail rank of a run each fall well inside one class
(see README.md, "Round composition").

The untraced path drives the program only through ``execute``,
``PipelineSpec``, ``JobQueue`` and ``handle_request``.  The traced path
replays the same requests by calling each layer's public function
itself, timing a span around each call.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from repro import PipelineSpec, execute
from repro.execution import ResultCache, resolve_backend
from repro.execution.cache import circuit_fingerprint
from repro.execution.facade import materialize_target, result_cache_key
from repro.noise.presets import ALL_MODELS
from repro.resilience.degradation import DEFAULT_ADMISSION
from repro.service import JobQueue, ResultStore
from repro.service.protocol import handle_request
from repro.service.serialization import result_from_dict, result_to_dict
from repro.sim.kernels import kernel_cache_stats
from repro.toffoli import build_toffoli

from helpers import compose_round, seeded_flags, zipf_counts

PIPELINE_NAME = "hardware-grid-opt"
SPEC = PipelineSpec.from_name(PIPELINE_NAME)

#: Scratch space inside the checkout (stores, span dumps).
WORK_DIR = Path(__file__).resolve().parent / ".work"


@dataclass
class Request:
    """One request of a round: its class plus the seeded inputs."""

    cls: tuple
    params: dict = field(default_factory=dict)


class KeyLog:
    """A cache backing that records every result-cache key it is asked
    about, optionally in front of a real store.  Keys start with the
    compiled circuit's fingerprint, so the untraced path's fingerprints
    can be compared with the traced path's."""

    def __init__(self, store: ResultStore | None = None) -> None:
        self.store = store
        self.keys: set = set()
        self.last_key: tuple | None = None

    def get(self, key):
        self.keys.add(key)
        self.last_key = key
        return self.store.get(key) if self.store is not None else None

    def put(self, key, result) -> bool:
        self.keys.add(key)
        self.last_key = key
        return self.store.put(key, result) if self.store is not None else True


def result_digest(result) -> str:
    """A digest of a result's payload (wires, values, state, estimate).

    ``+ 0.0`` folds negative zeros, which a JSON round trip may flip.
    """
    digest = hashlib.sha256()
    digest.update(repr([(w.index, w.dimension) for w in result.wires]).encode())
    if result.values is not None:
        digest.update(repr(tuple(int(v) for v in result.values)).encode())
    if result.state is not None:
        tensor = np.asarray(result.state.tensor, dtype=np.complex128) + 0.0
        digest.update(np.ascontiguousarray(tensor).tobytes())
    estimate = getattr(result, "estimate", None)
    if estimate is not None:
        digest.update(repr(
            (estimate.trials, estimate.mean_fidelity, estimate.std_error)
        ).encode())
    return digest.hexdigest()


def _recording_cache(record: bool):
    """``cache=`` argument of an untraced execute() call.

    Off in the end-to-end runs.  In the traced run's untraced pass a
    fresh one-entry cache over a :class:`KeyLog` captures the compiled
    circuit's fingerprint without ever serving a hit.
    """
    if not record:
        return False, None
    log = KeyLog()
    return ResultCache(max_entries=1, backing=log), log


def basis_input(built, rng: random.Random) -> dict:
    """wire -> seeded binary value for a construction: random controls,
    a random target, clean ancillas at 0, random borrowed ones."""
    values = {w: rng.randrange(2) for w in built.controls}
    values[built.target] = rng.randrange(2)
    values.update({w: 0 for w in built.clean_ancilla})
    values.update({w: rng.randrange(2) for w in built.borrowed_ancilla})
    return values


def _kernel_entries() -> int:
    return sum(kernel_cache_stats().values())


class Workload:
    """Shared round/loop plumbing; subclasses define the requests."""

    name = ""
    #: request class -> requests of that class per round.
    ROUND: dict = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: request class -> (two-qudit gates, depth) of the circuit run.
        self.compiled: dict = {}

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def make_round(self, index: int) -> list[Request]:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run_request(self, request: Request, record: bool):
        """Untraced: returns (latency_s, output)."""
        raise NotImplementedError

    def trace_request(self, request: Request, tracer):
        """Traced: returns (result, the circuit the engine ran)."""
        raise NotImplementedError

    def check(self, request: Request, output) -> bool:
        raise NotImplementedError

    def run_round(self, requests: list[Request]) -> list:
        return [self.run_request(r, record=False) for r in requests]

    def trace_round(self, requests: list[Request], tracer) -> list:
        """Traced outputs ``(result, fingerprint)``.

        execute() with the cache off never fingerprints, so the traced
        path takes the fingerprint after the request span closes.
        """
        outputs = []
        for request in requests:
            before = _kernel_entries()
            with tracer.request():
                result, circuit = self.trace_request(request, tracer)
            tracer.count("engine.kernel_cache.misses", _kernel_entries() - before)
            outputs.append((result, circuit_fingerprint(circuit)))
        return outputs

    def recorded_fingerprints(self, requests: list[Request]) -> list:
        """Fingerprints of the circuits the untraced path compiles, from
        an untimed re-run of each request with a recording cache."""
        return [self.run_request(r, record=True)[1][1] for r in requests]

    def same(self, untraced, recorded, traced) -> bool:
        """Faithfulness: same compiled fingerprint and the same result."""
        result_a, (result_b, fingerprint) = untraced[0], traced
        return (
            recorded == fingerprint
            and result_digest(result_a) == result_digest(result_b)
        )

    def run_checks(self) -> list[str]:
        """Run-level checks beyond the per-request ones; returns failures."""
        return []

    def queue_wait(self, output) -> float:
        """Seconds a request waited in a queue (only serve-zipf has one)."""
        return 0.0

    def compiled_totals(self) -> tuple[int, int]:
        """(two-qudit gates, depth) summed over one round's classes."""
        return (
            sum(self.compiled[cls][0] for cls in self.ROUND),
            sum(self.compiled[cls][1] for cls in self.ROUND),
        )


def _compile_traced(circuit, tracer):
    """Run each hardware-grid-opt stage as its own span."""
    pipeline = SPEC.build()
    ops_out = {}
    for stage, compile_pass in zip(SPEC.stages, pipeline.passes):
        with tracer.span(f"compile.{stage.kind}"):
            circuit = compile_pass.transform(circuit)
        # IR size after the stage kind's last slot (optimize runs twice).
        ops_out[stage.kind] = circuit.num_operations
        if stage.kind == "route":
            tracer.count("compile.route.swaps", compile_pass.last_routed.swap_count)
        elif stage.kind == "optimize":
            tracer.count(
                "compile.optimize.gates_removed",
                compile_pass.last_report.gates_removed,
            )
    for kind, size in ops_out.items():
        tracer.count(f"compile.{kind}.ops_out", size)
    return circuit


# ---------------------------------------------------------------------------
# fig11-fidelity
# ---------------------------------------------------------------------------

FIG11_CIRCUITS = {
    "QUBIT": "qubit_ancilla_free",
    "QUBIT+ANCILLA": "qubit_one_dirty",
    "QUTRIT": "qutrit_tree",
}


class Fig11Fidelity(Workload):
    """Seeded trajectory runs of the Fig. 11 circuits under the paper's
    noise models, at a small fixed width and trial count."""

    name = "fig11-fidelity"
    WIDTH = 4
    TRIALS = 100
    ROUND = {
        ("QUTRIT", "DRESSED_QUTRIT"): 1,
        ("QUTRIT", "BARE_QUTRIT"): 1,
        ("QUBIT+ANCILLA", "TI_QUBIT"): 1,
        ("QUTRIT", "SC+T1"): 4,
        ("QUBIT", "SC"): 3,
    }
    #: The density cross-check point: tiny, so the exact engine is cheap.
    DENSITY_POINT = ("QUTRIT", "SC", 2, 400, 2019)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._first: dict = {}

    def warmup(self) -> None:
        for cls in self.ROUND:
            label, model = cls
            circuit, wires = materialize_target(
                FIG11_CIRCUITS[label], {"num_controls": self.WIDTH}
            )
            self.compiled[cls] = (circuit.two_qudit_gate_count, circuit.depth)
            resolve_backend("trajectory", ALL_MODELS[model]).run(
                circuit, wires=wires, trials=8, seed=0
            )

    def make_round(self, index: int) -> list[Request]:
        rng = self.rng(index)
        return [
            Request(cls, {"seed": rng.randrange(2 ** 31)})
            for cls in compose_round(self.ROUND, rng)
        ]

    def run_request(self, request, record):
        label, model = request.cls
        cache, log = _recording_cache(record)
        start = time.perf_counter()
        result = execute(
            FIG11_CIRCUITS[label], backend="trajectory",
            noise_model=ALL_MODELS[model], trials=self.TRIALS,
            seed=request.params["seed"], cache=cache, num_controls=self.WIDTH,
        )
        latency = time.perf_counter() - start
        return latency, (result, log.last_key[0] if log else None)

    def trace_request(self, request, tracer):
        label, model = request.cls
        with tracer.span("build"):
            circuit, wires = materialize_target(
                FIG11_CIRCUITS[label], {"num_controls": self.WIDTH}
            )
        tracer.count("build.ops", circuit.num_operations)
        with tracer.span("engine.trajectory"):
            result = resolve_backend("trajectory", ALL_MODELS[model]).run(
                circuit, wires=wires, trials=self.TRIALS,
                seed=request.params["seed"],
            )
        tracer.count("engine.trajectory.trials", self.TRIALS)
        return result, circuit

    def check(self, request, output) -> bool:
        result, _ = output
        self._first.setdefault(request.cls, (request, result))
        return 0.0 <= result.mean_fidelity <= 1.0 and result.trials == self.TRIALS

    def run_checks(self) -> list[str]:
        failures = []
        # A seeded repeat of each class's first request is identical.
        for cls, (request, result) in self._first.items():
            _, (again, _) = self.run_request(request, record=False)
            if result_digest(again) != result_digest(result):
                failures.append(f"seeded repeat of {cls} differs")
        # One small point lies within two sigma of the density backend,
        # averaged over every binary input as the trajectories sample.
        label, model, width, trials, seed = self.DENSITY_POINT
        circuit, wires = materialize_target(
            FIG11_CIRCUITS[label], {"num_controls": width}
        )
        density = resolve_backend("density", ALL_MODELS[model])
        exact = np.mean([
            density.run(circuit, wires=wires, initial=bits).metadata[
                "fidelity_vs_ideal"
            ]
            for bits in product((0, 1), repeat=len(wires))
        ])
        sampled = execute(
            FIG11_CIRCUITS[label], backend="trajectory",
            noise_model=ALL_MODELS[model], trials=trials, seed=seed,
            num_controls=width,
        )
        if abs(sampled.mean_fidelity - exact) > sampled.two_sigma:
            failures.append(
                f"trajectory {sampled.mean_fidelity:.4f} +/- "
                f"{sampled.two_sigma:.4f} vs density {exact:.4f}"
            )
        return failures


# ---------------------------------------------------------------------------
# serve-zipf
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    """One catalog entry: a construction, how it is run, its inputs."""

    target: str
    num_controls: int
    backend: str
    pipeline: bool = False
    model: str | None = None
    trials: int | None = None
    seed: int | None = None
    initial: tuple | None = None

    @property
    def noise_model(self):
        return ALL_MODELS[self.model] if self.model else None


class ServeZipf(Workload):
    """A fixed catalog under Zipf popularity, served by JobQueue over a
    ResultStore; a seeded share goes through the repro-serve/v1 protocol.

    Each round runs a cold phase on a fresh store, then a restart phase:
    a new queue with an empty memory cache over the same store.
    """

    name = "serve-zipf"
    #: Requests per phase; both phases of a round replay the same list.
    PER_PHASE = 40
    ZIPF_EXPONENT = 1.1
    PROTOCOL_SHARE = 4  # one request in four goes through handle_request
    #: Catalog in popularity-rank order: (target, n, backend, pipeline,
    #: noise model, trials).  Inputs and trajectory seeds come from the seed.
    CATALOG = (
        ("qutrit_tree", 6, "statevector", True, None, None),
        ("qubit_one_dirty", 6, "statevector", True, None, None),
        ("qutrit_tree", 8, "classical", False, None, None),
        ("qubit_one_dirty", 4, "statevector", True, None, None),
        ("qutrit_tree", 5, "statevector", False, None, None),
        ("qutrit_tree", 4, "trajectory", False, "SC", 50),
        ("he_tree", 4, "statevector", True, None, None),
        ("qubit_one_dirty", 3, "trajectory", False, "SC+T1", 50),
        ("he_tree", 6, "classical", False, None, None),
        ("qutrit_tree", 3, "trajectory", False, "DRESSED_QUTRIT", 50),
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(f"{self.name}:{seed}:catalog")
        self.entries = []
        for target, n, backend, pipeline, model, trials in self.CATALOG:
            initial = entry_seed = None
            if backend == "trajectory":
                entry_seed = rng.randrange(2 ** 31)
            elif not pipeline:
                built = build_toffoli(target, num_controls=n)
                values = basis_input(built, rng)
                initial = tuple(values[w] for w in built.all_wires)
            self.entries.append(Entry(
                target, n, backend, pipeline, model, trials, entry_seed, initial,
            ))
        counts = zipf_counts(len(self.entries), self.ZIPF_EXPONENT, self.PER_PHASE)
        self.ROUND = {index: count for index, count in enumerate(counts)}
        self.keylog_keys: set = set()
        self._first: dict = {}
        self._stores = 0

    # -- inputs --------------------------------------------------------

    def make_round(self, index: int) -> list[Request]:
        rng = self.rng(index)
        order = compose_round(self.ROUND, rng)
        protocol = seeded_flags(
            len(order), len(order) // self.PROTOCOL_SHARE, rng
        )
        return [
            Request((phase, entry), {"protocol": via})
            for phase in ("cold", "restart")
            for entry, via in zip(order, protocol)
        ]

    def _message(self, entry: Entry) -> dict:
        return {
            "op": "submit", "target": entry.target,
            "build": {"num_controls": entry.num_controls},
            "backend": entry.backend,
            "pipeline": PIPELINE_NAME if entry.pipeline else None,
            "input": list(entry.initial) if entry.initial is not None else None,
            "noise": entry.model, "trials": entry.trials, "seed": entry.seed,
            "wait": True,
        }

    def _submit(self, queue: JobQueue, entry: Entry):
        return queue.submit(
            entry.target, backend=entry.backend,
            pipeline=SPEC if entry.pipeline else None,
            noise_model=entry.noise_model, initial=entry.initial,
            trials=entry.trials, seed=entry.seed,
            num_controls=entry.num_controls,
        )

    # -- set-up --------------------------------------------------------

    def warmup(self) -> None:
        # Runs every entry once through execute() with no cache, which
        # fills the compile and kernel tables but no result cache or
        # store; records the executed circuit's counts per entry.
        for index, entry in enumerate(self.entries):
            probe = resolve_backend(entry.backend, entry.noise_model)
            circuit, _ = materialize_target(
                entry.target, {"num_controls": entry.num_controls},
                prefer_undecomposed=probe.capabilities.classical_circuits_only,
            )
            if entry.pipeline:
                circuit = SPEC.build().compile(circuit).circuit
            self.compiled[index] = (circuit.two_qudit_gate_count, circuit.depth)
            execute(
                entry.target, backend=entry.backend,
                pipeline=SPEC if entry.pipeline else None,
                noise_model=entry.noise_model, initial=entry.initial,
                trials=entry.trials, seed=entry.seed,
                num_controls=entry.num_controls,
            )

    # -- untraced path -------------------------------------------------

    def _store_dir(self, kind: str) -> Path:
        self._stores += 1
        path = WORK_DIR / f"{kind}-{os.getpid()}-{self._stores}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def run_round(self, requests):
        root = self._store_dir("store")
        log = KeyLog(ResultStore(root))
        outputs = []
        try:
            for phase in ("cold", "restart"):
                queue = JobQueue(workers=1, cache=ResultCache(backing=log))
                try:
                    for request in requests:
                        if request.cls[0] == phase:
                            outputs.append(self._serve(queue, request))
                finally:
                    queue.shutdown(wait=True)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        self.keylog_keys |= log.keys
        return outputs

    def _serve(self, queue: JobQueue, request: Request):
        entry = self.entries[request.cls[1]]
        start = time.perf_counter()
        if request.params["protocol"]:
            response = handle_request(queue, self._message(entry))
            latency = time.perf_counter() - start
            job = queue.job(response["job"]) if "job" in response else None
            payload = response
        else:
            job = self._submit(queue, entry)
            payload = job.result()
            latency = time.perf_counter() - start
        return latency, (payload, job)

    @staticmethod
    def _result_of(payload):
        if isinstance(payload, dict):
            if not payload.get("ok"):
                return None
            return result_from_dict(payload["result"])
        return payload

    def queue_wait(self, output) -> float:
        """Seconds the job waited in the queue (0 for cache hits)."""
        _, job = output
        if job is None or job.started_at is None:
            return 0.0
        return job.started_at - job.submitted_at

    # -- traced path ---------------------------------------------------

    def trace_round(self, requests, tracer):
        root = self._store_dir("trace-store")
        store = ResultStore(root)
        outputs = []
        try:
            for phase in ("cold", "restart"):
                memory = ResultCache()
                for request in requests:
                    if request.cls[0] != phase:
                        continue
                    before = _kernel_entries()
                    with tracer.request():
                        outputs.append(
                            self._trace_one(request, tracer, memory, store)
                        )
                    tracer.count(
                        "engine.kernel_cache.misses", _kernel_entries() - before
                    )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return outputs

    def _trace_one(self, request, tracer, memory: ResultCache, store: ResultStore):
        entry = self.entries[request.cls[1]]
        probe = resolve_backend(entry.backend, entry.noise_model)
        with tracer.span("build"):
            circuit, wires = materialize_target(
                entry.target, {"num_controls": entry.num_controls},
                prefer_undecomposed=probe.capabilities.classical_circuits_only,
            )
        tracer.count("build.ops", circuit.num_operations)
        if entry.pipeline:
            circuit = _compile_traced(circuit, tracer)
            if set(circuit.all_qudits()) != set(wires or circuit.all_qudits()):
                wires = None
        wires = tuple(wires) if wires is not None else None
        with tracer.span("fingerprint"):
            fingerprint = circuit_fingerprint(circuit)
        with tracer.span("admission"):
            decision = DEFAULT_ADMISSION.review(
                circuit, probe.capabilities.kind, trials=entry.trials,
                batch_size=None, parallel=False, workers=4,
            )
        if not decision.admitted or decision.downgrades:
            raise RuntimeError(f"admission changed a catalog entry: {decision}")
        key = result_cache_key(
            fingerprint=fingerprint, backend=probe,
            noise_model=entry.noise_model, wires=wires, initial=entry.initial,
            trials=entry.trials, seed=entry.seed,
        )
        with tracer.span("cache.memory"):
            result, _ = memory.get_with_source(key)
        tracer.count("cache.memory.lookups")
        if result is not None:
            tracer.count("cache.memory.hits")
        else:
            with tracer.span("cache.store"):
                result = store.get(key)
                if result is not None:
                    memory.put(key, result)
            tracer.count("cache.store.lookups")
            if result is not None:
                tracer.count("cache.store.hits")
        if result is None:
            with tracer.span(f"engine.{probe.capabilities.kind}"):
                result = resolve_backend(entry.backend, entry.noise_model).run(
                    circuit, wires=list(wires) if wires is not None else None,
                    initial=entry.initial, trials=entry.trials, seed=entry.seed,
                )
            self._count_engine(tracer, probe.capabilities.kind, circuit, entry)
            with tracer.span("store.write"):
                store.put(key, result)
                memory.put(key, result)
            tracer.count("store.writes")
            tracer.count("store.write.bytes", store.path_for(key).stat().st_size)
        if request.params["protocol"]:
            with tracer.span("serialize"):
                result_to_dict(result)
        return result, key

    @staticmethod
    def _count_engine(tracer, kind, circuit, entry):
        if kind == "statevector":
            tracer.count("engine.statevector.ops", circuit.num_operations)
        elif kind == "trajectory":
            tracer.count("engine.trajectory.trials", entry.trials)

    # -- checks --------------------------------------------------------

    def recorded_fingerprints(self, requests):
        """The untraced path's keys are logged while it runs (KeyLog)."""
        return [None] * len(requests)

    def same(self, untraced, recorded, traced) -> bool:
        """Same result, and the traced path's full cache key (which starts
        with the compiled fingerprint) was one the untraced path used."""
        result = self._result_of(untraced[0])
        traced_result, key = traced
        return (
            result is not None
            and key in self.keylog_keys
            and result_digest(result) == result_digest(traced_result)
        )

    def check(self, request, output) -> bool:
        """Every served result equals its entry's first result (so the
        restart phase, served from the store, equals the cold phase)."""
        result = self._result_of(output[0])
        if result is None:
            return False
        digest = result_digest(result)
        first = self._first.setdefault(request.cls[1], digest)
        return digest == first


WORKLOADS = {
    cls.name: cls
    for cls in (Fig11Fidelity, ServeZipf)
}
