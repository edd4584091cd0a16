"""Workload models.

The paper evaluates on fourteen SPEC92 benchmarks compiled for a MIPS
machine; those binaries (and a trace-capable machine to run them) are not
reproducible here, so this package provides seeded synthetic models that
reproduce each benchmark's *role* in the evaluation: its reference density,
cache behaviour against the two Table 1 hierarchies, branch predictability
and instruction-level parallelism.  See DESIGN.md §2 for the substitution
argument and :mod:`repro.workloads.spec92` for the per-benchmark parameters.

:mod:`repro.workloads.parallel` provides the shared-memory kernels for the
Section 4.3 coherence case study, :mod:`repro.workloads.wrongpath` the
wrong-path streams of the §3.3 MSHR experiment, and
:mod:`repro.workloads.characterize` the ``characterize`` command's
profiles; no cell of a grid runs them, so the package does not import
them.
"""

from repro.workloads.patterns import (
    AccessPattern,
    ConflictPattern,
    MixedPattern,
    PointerChasePattern,
    RandomPattern,
    SequentialPattern,
)
from repro.workloads.synthetic import SyntheticWorkload, WorkloadSpec
from repro.workloads.spec92 import (
    FIGURE2_BENCHMARKS,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    SPEC92,
    spec92_workload,
)

__all__ = [
    "AccessPattern",
    "SequentialPattern",
    "RandomPattern",
    "ConflictPattern",
    "PointerChasePattern",
    "MixedPattern",
    "SyntheticWorkload",
    "WorkloadSpec",
    "SPEC92",
    "INT_BENCHMARKS",
    "FP_BENCHMARKS",
    "FIGURE2_BENCHMARKS",
    "spec92_workload",
]
