"""Software techniques built on informing memory operations (Section 4.1).

* :mod:`repro.apps.monitoring` — miss counting and per-static-reference
  miss-rate profiling (the HMMS95 tool: a ~10-instruction hash-table
  handler keyed on the MHRR return address).
* :mod:`repro.apps.prefetching` — software-controlled prefetching: handlers
  that launch prefetches only when the code is actually missing, plus
  profile-guided static prefetch insertion.
* :mod:`repro.apps.multithreading` — software context-switch-on-miss
  multithreading (coarse-grained timing model; the paper describes but
  does not evaluate this client).
* :mod:`repro.apps.sampling` — duty-cycled profiling, the §4.2.2 remedy
  for expensive handlers.
* :mod:`repro.apps.page_remap` — conflict-driven page recoloring, the
  operating-system client from the paper's introduction.
* :mod:`repro.apps.bypass` — adaptive cache bypass: the miss handler
  classifies streaming references and routes their fills around the L1.
* :mod:`repro.apps.experiments` — the application lab: the registry of
  named, cacheable experiments behind ``python -m repro.harness apps``.
"""

from repro.apps.monitoring import MissCounter, MissProfile, MissProfiler
from repro.apps.prefetching import (
    AdaptivePrefetcher,
    insert_static_prefetches,
)
from repro.apps.multithreading import (
    MultithreadingResult,
    simulate_multithreading,
)
from repro.apps.sampling import SamplingController, SamplingProfiler
from repro.apps.page_remap import PageConflictAnalyzer, remap_stream
from repro.apps.bypass import AdaptiveBypassController
from repro.apps.experiments import APP_EXPERIMENTS, run_app_experiment

__all__ = [
    "APP_EXPERIMENTS",
    "AdaptiveBypassController",
    "run_app_experiment",
    "MissCounter",
    "MissProfiler",
    "MissProfile",
    "AdaptivePrefetcher",
    "insert_static_prefetches",
    "MultithreadingResult",
    "simulate_multithreading",
    "SamplingController",
    "SamplingProfiler",
    "PageConflictAnalyzer",
    "remap_stream",
]
