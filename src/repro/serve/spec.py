"""Typed job-spec validation shared between the gateway and the CLI.

A job spec is the HTTP wire form of one :class:`repro.exec.SimJob`: a
JSON object naming the kind-specific knobs.  :func:`validate_job_spec`
turns an untrusted payload into a ``SimJob`` **through the same
constructors the harness CLI uses** (:meth:`SimJob.bar` /
:meth:`SimJob.access_control`), so an accepted HTTP spec and the
equivalent CLI invocation serialize to the *same* content address —
the cache key is the proof of equivalence, and the service can never
serve a result the harness would not have computed.

Malformed payloads raise :class:`SpecError`, which carries the failing
field and a message and renders as a structured 4xx JSON body — a bad
request must never surface as a traceback.

Spec shapes::

    {"kind": "bar", "benchmark": "compress", "machine": "ooo",
     "label": "S10", "instructions": 30000, "warmup": 15000, "seed": 0}

    {"kind": "access_control", "workload": "migratory",
     "method": "INFORMING", "machine_params": {...}}

``instructions``/``warmup`` default to the harness defaults and
``seed`` to 0, matching ``python -m repro.harness figure2``'s cells.
A bar spec may name a ``backend`` (``"interp"`` | ``"vec"``, see
:mod:`repro.vec`): it is validated — an unknown backend is a 400 —
but deliberately excluded from the SimJob, because backends produce
digit-exact results and the cache key must stay backend-free.
``instructions`` is capped (:data:`MAX_INSTRUCTIONS`), and so are a
bar's handler length (:data:`MAX_HANDLER_INSTRUCTIONS`) and an
access-control machine's processors (:data:`MAX_PROCESSORS`), so one
request cannot wedge a worker shard for hours.  A bar label is
canonical — ASCII digits, no leading zero — so one simulation has one
cache key, and an access-control machine is built here, so a machine
the simulator would refuse is a 400 rather than a failed run.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Mapping, Tuple

from repro.exec.job import KIND_ACCESS_CONTROL, KIND_BAR, SimJob

#: Hard per-request ceiling on simulated instructions (and warmup): the
#: admission layer's guard against a single spec monopolizing a shard.
MAX_INSTRUCTIONS = 2_000_000

#: Longest trap handler a served bar may run: the paper's largest
#: (§4.2.2), and the largest any harness experiment runs (``S100``).
MAX_HANDLER_INSTRUCTIONS = 100

#: Most processors a served access-control machine may have: four times
#: Table 2's 16 (no experiment varies it).
MAX_PROCESSORS = 64

#: A bar label other than ``N``: a kind, then a handler length in ASCII
#: digits with no leading zero.
_BAR_LABEL = re.compile(r"(?:S|U|E|CC)([1-9][0-9]*)")

#: Spec fields accepted per kind (anything else is rejected loudly —
#: a typo like "benchmrk" must not silently fall back to a default).
_BAR_FIELDS = frozenset(
    ["kind", "benchmark", "machine", "label", "instructions", "warmup",
     "seed", "backend", "policy"])
_AC_FIELDS = frozenset(["kind", "workload", "method", "machine_params"])


class SpecError(ValueError):
    """A job spec failed validation; renders as a structured 400."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def to_dict(self) -> Dict[str, Any]:
        return {"error": "invalid_spec", "field": self.field,
                "message": self.message}


def _require_str(payload: Mapping[str, Any], field: str,
                 choices) -> str:
    value = payload.get(field)
    if not isinstance(value, str):
        raise SpecError(field, f"required and must be a string, "
                               f"got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise SpecError(field, f"unknown value {value!r}; expected one of "
                               f"{sorted(choices)}")
    return value


def _optional_int(payload: Mapping[str, Any], field: str, default: int,
                  minimum: int, maximum: int) -> int:
    value = payload.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(field, f"must be an integer, "
                               f"got {type(value).__name__}")
    if not minimum <= value <= maximum:
        raise SpecError(field, f"must be between {minimum} and {maximum}, "
                               f"got {value}")
    return value


def _reject_unknown(payload: Mapping[str, Any], allowed: frozenset) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise SpecError(unknown[0],
                        f"unknown field(s) {unknown}; allowed: "
                        f"{sorted(allowed)}")


def _check_label(label: str) -> None:
    """Accept only canonical labels (``S10``, never ``S010`` or a
    non-ASCII digit: one simulation, one cache key) whose handler is at
    most :data:`MAX_HANDLER_INSTRUCTIONS` long."""
    if label == "N":
        return
    match = _BAR_LABEL.fullmatch(label)
    if match is None:
        raise SpecError("label", f"unknown bar label {label[:32]!r}: "
                                 f"expected "
                                 f"'N', 'S<n>', 'U<n>', 'E<n>' or 'CC<n>' "
                                 f"with n in ASCII digits and no leading "
                                 f"zero")
    digits = match.group(1)
    if (len(digits) > len(str(MAX_HANDLER_INSTRUCTIONS))
            or int(digits) > MAX_HANDLER_INSTRUCTIONS):
        raise SpecError("label", f"handler length exceeds "
                                 f"{MAX_HANDLER_INSTRUCTIONS} instructions")


def _validate_bar(payload: Mapping[str, Any]) -> SimJob:
    from repro.harness.configs import MACHINES
    from repro.harness.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
    from repro.workloads import SPEC92

    _reject_unknown(payload, _BAR_FIELDS)
    benchmark = _require_str(payload, "benchmark", SPEC92)
    machine = _require_str(payload, "machine", MACHINES)
    label = _require_str(payload, "label", None)
    _check_label(label)
    instructions = _optional_int(payload, "instructions",
                                 DEFAULT_INSTRUCTIONS, 1, MAX_INSTRUCTIONS)
    warmup = _optional_int(payload, "warmup", DEFAULT_WARMUP, 0,
                           MAX_INSTRUCTIONS)
    seed = _optional_int(payload, "seed", 0, -(2 ** 31), 2 ** 31)
    if "backend" in payload:
        # Validated for explicitness (a typo'd backend must 400, not be
        # silently dropped) but *never* part of the SimJob: backends are
        # digit-exact, so the job's cache key — the service's identity —
        # is backend-free, and which backend a shard actually runs is
        # the server operator's choice (REPRO_BACKEND).
        from repro.vec import BackendError, resolve_backend

        backend = payload["backend"]
        if not isinstance(backend, str):
            raise SpecError("backend", f"must be a string, got "
                                       f"{type(backend).__name__}")
        try:
            resolve_backend(backend)
        except BackendError as exc:
            raise SpecError("backend", str(exc))
    policy = "lru"
    if "policy" in payload:
        # Unlike backend, the policy changes simulated results, so it IS
        # part of the SimJob (and hence the cache key) — but the default
        # "lru" is normalized away by SimJob.bar, keeping pre-registry
        # keys reachable.
        from repro.memory import available_policies

        policy = _require_str(payload, "policy",
                              set(available_policies()))
    return SimJob.bar(benchmark=benchmark, machine=machine, label=label,
                      instructions=instructions, warmup=warmup, seed=seed,
                      policy=policy)


def _validate_access_control(payload: Mapping[str, Any]) -> SimJob:
    from dataclasses import asdict, fields

    from repro.coherence import (
        TABLE2_MACHINE,
        AccessControlMethod,
        CoherenceMachineParams,
    )
    from repro.workloads.parallel import PARALLEL_KERNELS

    _reject_unknown(payload, _AC_FIELDS)
    workload = _require_str(payload, "workload", PARALLEL_KERNELS)
    method = _require_str(payload, "method",
                          {m.name for m in AccessControlMethod})
    params = payload.get("machine_params", None)
    if params is None:
        machine_params = asdict(TABLE2_MACHINE)
    else:
        if not isinstance(params, Mapping):
            raise SpecError("machine_params",
                            f"must be an object, got "
                            f"{type(params).__name__}")
        known = {f.name for f in fields(CoherenceMachineParams)}
        unknown = sorted(set(params) - known)
        if unknown:
            raise SpecError("machine_params",
                            f"unknown parameter(s) {unknown}; allowed: "
                            f"{sorted(known)}")
        for name, value in params.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise SpecError("machine_params",
                                f"{name} must be an integer, got "
                                f"{type(value).__name__}")
        machine_params = dict(asdict(TABLE2_MACHINE), **params)
    _build_machine(machine_params, AccessControlMethod[method])
    return SimJob.access_control(workload=workload, method=method,
                                 machine_params=machine_params)


def _build_machine(params: Dict[str, int], method) -> None:
    """Build the coherence simulator *params* describe, so a machine it
    would refuse is rejected here.  The divisors are checked first: the
    directory divides by ``coherence_unit`` when built and by
    ``page_size`` on every ECC write."""
    from repro.coherence import CoherenceMachineParams
    from repro.coherence.multiproc import MultiprocessorSim

    if not 1 <= params["processors"] <= MAX_PROCESSORS:
        raise SpecError("machine_params",
                        f"processors must be between 1 and "
                        f"{MAX_PROCESSORS}, got {params['processors']}")
    for name in ("coherence_unit", "page_size"):
        if params[name] < 1:
            raise SpecError("machine_params",
                            f"{name} must be positive, got {params[name]}")
    try:
        MultiprocessorSim(CoherenceMachineParams(**params), method)
    except ValueError as exc:
        raise SpecError("machine_params", str(exc))


_VALIDATORS = {
    KIND_BAR: _validate_bar,
    KIND_ACCESS_CONTROL: _validate_access_control,
}


def validate_job_spec(payload: Any) -> SimJob:
    """Validate an untrusted spec payload into a :class:`SimJob`.

    Raises:
        SpecError: naming the offending field, for any malformed spec.
    """
    if not isinstance(payload, Mapping):
        raise SpecError("spec", f"job spec must be a JSON object, got "
                                f"{type(payload).__name__}")
    kind = payload.get("kind", KIND_BAR)
    if not isinstance(kind, str) or kind not in _VALIDATORS:
        raise SpecError("kind", f"unknown kind {kind!r}; expected one of "
                                f"{sorted(_VALIDATORS)}")
    return _VALIDATORS[kind](payload)


def job_to_spec(job: SimJob) -> Dict[str, Any]:
    """The wire spec for *job* — the inverse of :func:`validate_job_spec`.

    Round-trip guarantee (tested property):
    ``validate_job_spec(job_to_spec(j)).cache_key() == j.cache_key()``
    for every job the validator accepts.
    """
    cfg = job.config_dict()
    if job.kind == KIND_BAR:
        spec = {"kind": KIND_BAR, "benchmark": job.benchmark,
                "machine": job.machine, "label": cfg["label"],
                "instructions": job.instructions, "warmup": job.warmup,
                "seed": job.seed}
        if "policy" in cfg:
            spec["policy"] = cfg["policy"]
        return spec
    return {"kind": KIND_ACCESS_CONTROL, "workload": job.benchmark,
            "method": cfg["method"],
            "machine_params": cfg["machine_params"]}
