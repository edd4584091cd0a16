"""The job model: one pure simulation cell and its content address.

A :class:`SimJob` captures everything that determines a simulation's
outcome — machine key, benchmark name, handler/mechanism spec, run sizes
and seed — and nothing else.  Because every simulator in this repository
is deterministic (see ``tests/test_determinism.py``), two jobs with equal
fields produce equal results, so the canonical serialization of those
fields is a sound content address: :meth:`SimJob.cache_key` hashes the
canonical JSON form together with :data:`SCHEMA_VERSION`.

:func:`execute_job` is the single module-level entry point the scheduler
ships to worker processes; it dispatches on ``SimJob.kind`` and returns a
plain JSON-able dict (what the result cache stores verbatim).
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

#: Bumped whenever job semantics or result layout change; stale cache
#: entries written under another version are invalidated on read.
SCHEMA_VERSION = 1

#: Job kinds understood by :func:`execute_job`.
KIND_BAR = "bar"
KIND_ACCESS_CONTROL = "access_control"
KIND_APP = "app"


def _canonical(obj: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace, no NaN laundering."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _freeze(config: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Sort a config mapping into a hashable tuple of pairs."""
    out = []
    for key in sorted(config):
        value = config[key]
        if isinstance(value, Mapping):
            value = _freeze(value)
        out.append((key, value))
    return tuple(out)


def _thaw(config: Tuple[Tuple[str, Any], ...]) -> Dict[str, Any]:
    return {key: (_thaw(value) if isinstance(value, tuple)
                  and value and isinstance(value[0], tuple) else value)
            for key, value in config}


@dataclass(frozen=True)
class SimJob:
    """One schedulable simulation cell.

    ``config`` holds the kind-specific knobs (bar label, coherence method,
    machine parameter overrides, ...) as a sorted tuple of pairs so the
    job stays hashable and its serialization canonical.
    """

    kind: str
    machine: str
    benchmark: str
    instructions: int
    warmup: int
    seed: int = 0
    config: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)

    # -- constructors --------------------------------------------------------
    @classmethod
    def bar(cls, benchmark: str, machine: str, label: str,
            instructions: int, warmup: int, seed: int = 0,
            policy: str = "lru") -> "SimJob":
        """A figure bar: one (benchmark, machine, informing-config) run.

        *policy* names a replacement-registry entry; the default ``"lru"``
        is deliberately omitted from the config so every pre-registry
        cache key (and golden capture) remains reachable unchanged.
        """
        config: Dict[str, Any] = {"label": label}
        if policy != "lru":
            config["policy"] = policy
        return cls(kind=KIND_BAR, machine=machine, benchmark=benchmark,
                   instructions=instructions, warmup=warmup, seed=seed,
                   config=_freeze(config))

    @classmethod
    def app(cls, experiment: str, benchmark: str, machine: str,
            instructions: int, warmup: int, seed: int = 0,
            policy: str = "lru") -> "SimJob":
        """A §4.1 application-lab run (repro.apps.experiments).

        Same ``policy`` normalization as :meth:`bar`: the default
        ``"lru"`` stays out of the config so a policy sweep and the
        default run key differently only when results can differ.
        """
        config: Dict[str, Any] = {"experiment": experiment}
        if policy != "lru":
            config["policy"] = policy
        return cls(kind=KIND_APP, machine=machine, benchmark=benchmark,
                   instructions=instructions, warmup=warmup, seed=seed,
                   config=_freeze(config))

    @classmethod
    def access_control(cls, workload: str, method: str,
                       machine_params: Mapping[str, Any]) -> "SimJob":
        """A §4.3 coherence run: one (parallel kernel, method, machine)."""
        return cls(kind=KIND_ACCESS_CONTROL, machine="coherence",
                   benchmark=workload, instructions=0, warmup=0, seed=0,
                   config=_freeze({"method": method,
                                   "machine_params": dict(machine_params)}))

    # -- accessors -----------------------------------------------------------
    @property
    def label(self) -> str:
        """Human-readable identity used in telemetry and progress lines."""
        cfg = self.config_dict()
        tag = (cfg.get("label") or cfg.get("method")
               or cfg.get("experiment") or self.kind)
        return f"{self.benchmark}/{self.machine}/{tag}"

    def config_dict(self) -> Dict[str, Any]:
        return _thaw(self.config)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "machine": self.machine,
            "benchmark": self.benchmark,
            "instructions": self.instructions,
            "warmup": self.warmup,
            "seed": self.seed,
            "config": self.config_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimJob":
        return cls(kind=data["kind"], machine=data["machine"],
                   benchmark=data["benchmark"],
                   instructions=data["instructions"], warmup=data["warmup"],
                   seed=data.get("seed", 0),
                   config=_freeze(data.get("config", {})))

    def cache_key(self) -> str:
        """Stable content address of this job (hex SHA-256).

        Derived from the canonical JSON of every outcome-determining field
        plus :data:`SCHEMA_VERSION` and the package version (so simulator
        changes shipped with a version bump can never replay stale
        results); identical fields give identical keys in any process, and
        any field change changes the key.
        """
        from repro import __version__

        payload = dict(self.to_dict(), schema=SCHEMA_VERSION,
                       repro=__version__)
        return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


# -- execution ---------------------------------------------------------------

#: The cell settings of the call running on this thread (see
#: :func:`run_cell`).
_CELL = threading.local()


def run_cell(execute: Callable[[SimJob], Dict[str, Any]], job: SimJob,
             cell: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """``execute(job)`` with *cell* as this thread's cell settings.

    *cell* carries a run's ``backend``, ``sanitize`` and ``trace_dir``
    (the engine resolves them once per run); a bar job passes them to
    :func:`repro.harness.runner.run_bar`.  They hold for this call on
    this thread only, so concurrent runs in one process never see each
    other's settings, and *execute* keeps its one-argument signature.
    """
    previous = getattr(_CELL, "settings", None)
    _CELL.settings = cell
    try:
        return execute(job)
    finally:
        _CELL.settings = previous


def _execute_bar(job: SimJob) -> Dict[str, Any]:
    from dataclasses import asdict

    from repro.harness.runner import bar_config, run_bar

    cfg = job.config_dict()
    cell = getattr(_CELL, "settings", None) or {}
    result = run_bar(job.benchmark, job.machine, bar_config(cfg["label"]),
                     job.instructions, job.warmup, seed=job.seed,
                     policy=cfg.get("policy", "lru"),
                     backend=cell.get("backend"),
                     sanitize=cell.get("sanitize", False),
                     trace_dir=cell.get("trace_dir"))
    return asdict(result)


def _execute_access_control(job: SimJob) -> Dict[str, Any]:
    from repro.coherence import (
        AccessControlMethod,
        CoherenceMachineParams,
        run_access_control_experiment,
    )
    from repro.workloads.parallel import PARALLEL_KERNELS

    cfg = job.config_dict()
    machine = CoherenceMachineParams(**cfg["machine_params"])
    method = AccessControlMethod[cfg["method"]]
    outcome = run_access_control_experiment(
        PARALLEL_KERNELS[job.benchmark], method, machine=machine,
        name=job.benchmark)
    return {
        "workload": job.benchmark,
        "method": method.name,
        "execution_time": outcome.execution_time,
        "remote_invalidations": outcome.remote_invalidations,
    }


def _execute_app(job: SimJob) -> Dict[str, Any]:
    from repro.apps.experiments import run_app_experiment

    cfg = job.config_dict()
    return run_app_experiment(cfg["experiment"], job.benchmark,
                              machine=job.machine,
                              instructions=job.instructions,
                              warmup=job.warmup, seed=job.seed,
                              policy=cfg.get("policy", "lru"))


_EXECUTORS = {
    KIND_BAR: _execute_bar,
    KIND_ACCESS_CONTROL: _execute_access_control,
    KIND_APP: _execute_app,
}


def execute_job(job: SimJob) -> Dict[str, Any]:
    """Run one job to completion and return its JSON-able result dict.

    This is the function the scheduler submits to worker processes; it
    must stay module-level (picklable by reference) and side-effect free
    beyond the simulation itself.
    """
    try:
        executor = _EXECUTORS[job.kind]
    except KeyError:
        raise ValueError(f"unknown job kind {job.kind!r}; "
                         f"expected one of {sorted(_EXECUTORS)}") from None
    # repro.trace: one "sim.execute" span per executed job.  In the
    # serial path this nests under the engine's ambient job span; in a
    # pool worker it nests under the worker tracer _timed_call set up
    # from the job span's traceparent — the cross-process edge of the
    # trace tree.  Yields None (one attribute test) when untraced.
    from repro.trace import job_trace_span

    with job_trace_span("sim.execute", label=job.label, kind=job.kind):
        return executor(job)


def bar_result_from_dict(data: Mapping[str, Any]):
    """Rebuild a :class:`repro.harness.runner.BarResult` from a job result."""
    from repro.harness.runner import BarResult

    return BarResult(**dict(data))
