"""repro.obs — cycle-stamped event tracing and metrics for the simulators.

The observability layer the paper's premise implies the simulator itself
should have: informing operations give *software* memory-performance
feedback; ``repro.obs`` gives the *experimenter* the same per-reference
visibility.  An :class:`~repro.obs.observer.Observer` is a
:class:`repro.probe.Probe`, attached to a core on either backend like the
:mod:`repro.sanitize` sanitizer — one ``if probe is not None`` identity
test per hook site when off — and records cycle-stamped structured
events (cache hits/misses/fills/evictions, MSHR lifetimes, informing
trap entry/exit), counter and histogram metrics, per-set conflict heat,
and the MSHR occupancy high-water timeline.  Exporters serialize traces as
JSONL or Chrome ``trace_event`` JSON; ``python -m repro.harness
report`` renders the text report.

Enable per-cell with ``run_bar(..., observe=Observer())`` or
``run_bar(..., trace_dir=DIR)``, or for a whole harness invocation
(pool workers included) with ``--trace-events DIR``
(``ExecOptions(trace_events=DIR)``): every simulated bar cell then
writes ``<benchmark>_<machine>_<label>.events.jsonl`` +
``*.metrics.json`` under ``DIR``.

Observation is strictly read-only: traced runs are bit-exact with
untraced ones, and a cell's metrics are equal on both backends (CI
replays the golden ``figure2 --quick`` grid under tracing on each).

The package re-exports the event, export and metrics helpers that every
importer uses (the gateway's ``/metrics`` among them); the observer and
the report live in :mod:`repro.obs.observer` and :mod:`repro.obs.report`.
"""

from __future__ import annotations

import os

from repro.obs.events import EVENT_KINDS, make_event
from repro.obs.export import (
    chrome_trace,
    parse_openmetrics,
    read_jsonl,
    to_openmetrics,
    write_chrome_trace,
    write_jsonl,
    write_openmetrics,
    write_run_artifacts,
)
from repro.obs.metrics import Counter, Histogram, Registry, top_n

__all__ = [
    "EVENT_KINDS",
    "Counter",
    "Histogram",
    "Registry",
    "chrome_trace",
    "job_trace_path",
    "make_event",
    "parse_openmetrics",
    "read_jsonl",
    "to_openmetrics",
    "top_n",
    "write_chrome_trace",
    "write_jsonl",
    "write_openmetrics",
    "write_run_artifacts",
]


def job_trace_path(directory: str, label: str) -> str:
    """The ``*.events.jsonl`` path a job labelled *label* writes under
    *directory* (slashes in the label become underscores)."""
    return os.path.join(directory,
                        label.replace("/", "_") + ".events.jsonl")
