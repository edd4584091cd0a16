"""The run manifest store: one ``manifest.json`` per grid run.

A manifest freezes everything a later comparison needs about one
:class:`repro.exec.JobRunner` invocation — provenance (git sha, CLI
argv, seed, machine fingerprint, config digest), the run's aggregate
counts, and a per-cell record holding each job's identity, wall time,
cache state and *simulated* result subset.  Simulated numbers are
deterministic, so two manifests of the same config/seed must agree
digit-for-digit; wall times are noise and get statistical treatment
instead (see :mod:`repro.perf.compare`).

A manifest is a fold over the run's records (:func:`fold_manifest`):
the journal header gives provenance and the run's ``settings``
(backend, sanitize, trace_events, trace_sample), ``run_start`` the grid,
``job_*`` records each cell's outcome and ``run_end`` the status and
counts.  The engine folds its in-memory records at run end, so a run
whose journal appends failed still gets a complete manifest.

Layout: ``<runs_root>/<run_id>/manifest.json`` next to the run's
``journal.jsonl``, with ``runs_root`` defaulting to ``results/runs``
(override with ``REPRO_RUNS_DIR`` or the CLI's ``--manifest-dir``).  Run
ids are ``<UTC stamp>-<experiment>-<pid>-<seq>``: sortable, unique within
and across processes, and human-greppable.  Writes are atomic (tmp +
rename), like every baseline file in this repo.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.durable.journal import atomic_write_json

#: Manifest layout version; compare/load reject versions they don't know.
MANIFEST_SCHEMA = 1
#: Discriminator so sniffing code can tell a manifest from a BENCH file.
MANIFEST_KIND = "run_manifest"

ENV_RUNS_DIR = "REPRO_RUNS_DIR"
DEFAULT_RUNS_ROOT = os.path.join("results", "runs")

_run_seq = itertools.count()


def runs_root(explicit: Optional[str] = None) -> str:
    """The manifest root: *explicit*, ``REPRO_RUNS_DIR``, or the default."""
    return (explicit or os.environ.get(ENV_RUNS_DIR, "").strip()
            or DEFAULT_RUNS_ROOT)


def new_run_id(experiment: Optional[str] = None) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    tag = (experiment or "run").replace("/", "_")
    return f"{stamp}-{tag}-{os.getpid()}-{next(_run_seq)}"


def machine_fingerprint() -> Dict[str, Any]:
    """Where this run happened: enough to explain wall-time deltas."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count(),
        "hostname": platform.node(),
    }


def config_digest(keys: Iterable[str]) -> str:
    """One hex digest over the whole grid's content addresses (cache keys).

    Two runs with equal digests simulated the exact same cells (same
    benchmarks, machines, bars, run lengths, seeds and code version), so
    their simulated stats are directly comparable.
    """
    digest = hashlib.sha256()
    for key in sorted(keys):
        digest.update(key.encode("ascii"))
    return digest.hexdigest()


def _metrics_digest(directory: Optional[str], label: str) -> Optional[str]:
    """Digest of the cell's repro.obs metrics.json under the run's
    ``--trace-events`` *directory*, when one was written."""
    if not directory:
        return None
    path = os.path.join(directory,
                        label.replace("/", "_") + ".metrics.json")
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _fold_cells(records: List[Dict[str, Any]],
                trace_dir: Optional[str]) -> List[Dict[str, Any]]:
    """Fold a run's records into per-cell records, in grid order."""
    from repro.exec import SimJob

    grid: List[Dict[str, Any]] = []
    finished: Dict[str, Dict[str, Any]] = {}
    violations = set()
    drained = set()
    attempts: Dict[str, int] = {}
    for record in records:
        rec, key = record.get("rec"), record.get("key")
        if rec == "run_start":
            grid = record.get("jobs") or []
        elif rec == "job_finish":
            finished[key] = record
        elif rec == "job_fail" and record.get("violation") is not None:
            violations.add(key)
        elif rec == "job_drained":
            drained.add(key)
        if key is not None:
            attempts[key] = max(attempts.get(key, 0),
                                record.get("attempt") or 0)
    cells = []
    for entry in grid:
        key, job = entry["key"], SimJob.from_dict(entry["job"])
        done = finished.get(key) or {}
        status, sim = "unfinished", None
        if done:
            status, sim = "ok", done.get("sim")
        elif key in violations:
            status, sim = "invariant_violation", {
                "status": "invariant_violation"}
        elif key in drained:
            status = "drained"
        cells.append({
            "label": job.label,
            "key": key[:16],
            "kind": job.kind,
            "benchmark": job.benchmark,
            "machine": job.machine,
            "status": status,
            "cache": done.get("cache"),
            "wall": done.get("wall"),
            # The cell's repro.obs event trace (runs under --trace-events
            # only); ``harness explain <run_id>`` reads it back.
            "trace": done.get("trace"),
            "attempts": attempts.get(key, 0),
            "sim": sim,
            "metrics_digest": _metrics_digest(trace_dir, job.label),
        })
    return cells


def fold_manifest(records: List[Dict[str, Any]],
                  journal=None) -> Dict[str, Any]:
    """The manifest dict of one run, folded from its records.

    *journal* is the :class:`repro.durable.RunJournal` the records went
    to, if any: the manifest links its path (when anything reached the
    disk) and counts its failed appends.
    """
    head = records[0]
    end = next((r for r in reversed(records) if r.get("rec") == "run_end"),
               {})
    grid = next((r.get("jobs") or [] for r in records
                 if r.get("rec") == "run_start"), [])
    stats = dict(end.get("stats") or {})
    if journal is not None:
        stats["journal_errors"] = journal.errors
    return {
        "kind": MANIFEST_KIND,
        "schema": MANIFEST_SCHEMA,
        "run_id": head.get("run_id"),
        "experiment": head.get("experiment"),
        "argv": head.get("argv"),
        "seed": head.get("seed"),
        "git_sha": head.get("git_sha"),
        "written": time.time(),
        "machine": machine_fingerprint(),
        "config_digest": config_digest(entry["key"] for entry in grid),
        "workers": head.get("workers"),
        "cache_enabled": head.get("cache"),
        "journal_path": (journal.path if journal is not None
                         and journal.records_written else None),
        "resumed_from": head.get("resumed_from"),
        "settings": head.get("settings"),
        "status": end.get("status", "unfinished"),
        "error": end.get("error"),
        "stats": stats,
        "cells": _fold_cells(
            records, (head.get("settings") or {}).get("trace_events")),
    }


def write_run_manifest(directory: Optional[str],
                       records: List[Dict[str, Any]],
                       journal=None) -> str:
    """Fold *records* and write ``<directory>/<run_id>/manifest.json``;
    return its path."""
    manifest = fold_manifest(records, journal=journal)
    run_dir = os.path.join(runs_root(directory), manifest["run_id"])
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, "manifest.json")
    atomic_write_json(path, manifest)
    return path


class ManifestError(ValueError):
    """A manifest could not be located or read, or has an unknown
    schema."""


def resolve_manifest_path(ref: str,
                          root: Optional[str] = None) -> Optional[str]:
    """Resolve *ref* (run id, run dir, or manifest path) to a file path."""
    candidates = [
        ref,
        os.path.join(ref, "manifest.json"),
        os.path.join(runs_root(root), ref, "manifest.json"),
    ]
    for candidate in candidates:
        if os.path.isfile(candidate):
            return candidate
    return None


def load_manifest(ref: str, root: Optional[str] = None) -> Dict[str, Any]:
    """Load and validate a manifest by run id, directory or file path."""
    path = resolve_manifest_path(ref, root)
    if path is None:
        raise ManifestError(
            f"no manifest found for {ref!r} (tried the path itself, "
            f"<ref>/manifest.json, and {runs_root(root)}/<ref>/manifest.json)")
    return read_manifest(path)


def read_manifest(path: str) -> Dict[str, Any]:
    """Load and validate the manifest file at *path*: ManifestError for
    one that cannot be read, is not a UTF-8 JSON object, or has
    ``cells`` that are not a list of objects."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ManifestError(f"cannot read {path}: {exc.strerror}")
    except (ValueError, RecursionError) as exc:
        # ValueError: not UTF-8 or not JSON, or a NUL in the path.
        raise ManifestError(f"{path} is not a JSON manifest: {exc}")
    if not isinstance(data, dict) or data.get("kind") != MANIFEST_KIND:
        raise ManifestError(f"{path} is not a run manifest")
    if data.get("schema") != MANIFEST_SCHEMA:
        raise ManifestError(
            f"{path} has manifest schema {data.get('schema')!r}; this "
            f"build understands schema {MANIFEST_SCHEMA} — regenerate the "
            f"run or upgrade")
    cells = data.get("cells", [])
    if not isinstance(cells, list) or not all(
            isinstance(cell, dict) for cell in cells):
        raise ManifestError(f"{path}: 'cells' is not a list of objects")
    return data


def list_runs(root: Optional[str] = None) -> List[str]:
    """Run ids under the manifest root, oldest first (ids sort by time)."""
    base = runs_root(root)
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return []
    return [entry for entry in entries
            if os.path.isfile(os.path.join(base, entry, "manifest.json"))]
