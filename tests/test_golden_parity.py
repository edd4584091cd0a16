"""Cycle-exactness regression: every run mode against one golden capture.

``results/golden/figure2_quick.json`` holds the full 130-bar
``figure2 --quick`` export captured *before* the hot-path optimization
pass (seed commit lineage).  The simulators are deterministic, so every
optimization since must reproduce those statistics exactly — integers
equal, floats bit-for-bit.  Any mismatch means an "optimization" changed
machine behaviour, which is a correctness bug here no matter how much
faster it is.

The second backend and every instrument must leave each cell bit-identical
too, so this file is the one golden check, run in seven modes.  A mode runs
its cells through a serial, cache-less :class:`repro.exec.JobRunner`, the
way ``figure2`` does, with its settings on top of the default options:

* ``default`` — none: the interp backend with nothing attached;
* ``vec`` — ``backend="vec"``: the flat replay kernels;
* ``sanitize`` — ``sanitize=True``: the invariant sanitizer on every cell;
* ``obs`` — ``trace_events=DIR``: the event observer, writing each cell's
  trace and metrics under DIR;
* ``trace`` — ``trace_sample=1.0``: span tracing on every cell;
* ``vec-sanitize`` and ``vec-obs`` — the two instruments on the vec
  backend.  ``test_obs_metrics_match_across_backends`` also requires each
  cell's ``.metrics.json`` to be equal in the ``obs`` and ``vec-obs`` runs.

``test_golden_parity`` diffs every exported field but ``normalized`` for
each (mode, cell); default-mode cases keep the bare cell id.
``test_mode_took_effect`` fails a mode whose setting did not take hold
(and the default mode if any instrument did), so a mode that quietly runs
the default path cannot pass.

The default run re-simulates a 13-cell subset spanning every label, both
machines, and a spread of benchmarks.  Set ``REPRO_GOLDEN_FULL=1`` to
re-simulate all 130 golden cells in every mode.

Regenerating the golden (ONLY after an intentional behaviour change, e.g.
a timing-model fix — never to make an optimization pass):

    PYTHONPATH=src python -m repro.harness figure2 --quick --jobs 1 \
        --no-cache --no-manifest --json results/golden/figure2_quick.json
"""

import json
import os
from typing import NamedTuple

import pytest

from repro.exec import ExecOptions, JobRunner, SimJob
from repro.harness.__main__ import dispatch
from repro.harness.export import _BAR_FIELDS
from repro.sanitize.invariants import Sanitizer
from repro.vec import BACKEND_ENV

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "results", "golden", "figure2_quick.json")

#: figure2 --quick run lengths (DEFAULT_INSTRUCTIONS // 4 and
#: DEFAULT_WARMUP // 4 at capture time; pinned here so later changes to
#: the defaults cannot silently shift what this test simulates).
QUICK_INSTRUCTIONS = 7_500
QUICK_WARMUP = 3_750

#: Fields compared exactly.  ``normalized`` is excluded: it is computed
#: against the benchmark's N bar during figure assembly, not per cell.
COMPARED_FIELDS = [f for f in _BAR_FIELDS if f != "normalized"]

#: Default subset: every label at least twice, both machines, and a mix of
#: low-miss (ora), mid (compress, espresso), and high-miss (swm256,
#: tomcatv) benchmarks.
DEFAULT_CELLS = [
    ("compress", "ooo", "N"),
    ("compress", "inorder", "N"),
    ("compress", "ooo", "U10"),
    ("swm256", "ooo", "N"),
    ("hydro2d", "inorder", "S10"),
    ("mdljsp2", "ooo", "U1"),
    ("ora", "inorder", "N"),
    ("ora", "ooo", "S1"),
    ("espresso", "ooo", "S10"),
    ("espresso", "inorder", "U1"),
    ("tomcatv", "inorder", "U10"),
    ("tomcatv", "ooo", "S1"),
    ("alvinn", "inorder", "S1"),
]

MODES = ("default", "vec", "sanitize", "obs", "trace", "vec-sanitize",
         "vec-obs")


def _settings(mode, trace_dir):
    """The :class:`ExecOptions` settings *mode* adds to the default."""
    return {"default": {},
            "vec": {"backend": "vec"},
            "sanitize": {"sanitize": True},
            "obs": {"trace_events": trace_dir},
            "trace": {"trace_sample": 1.0},
            "vec-sanitize": {"backend": "vec", "sanitize": True},
            "vec-obs": {"backend": "vec", "trace_events": trace_dir}}[mode]


def _load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["bars"]


def _golden_index():
    return {(row["benchmark"], row["machine"], row["label"]): row
            for row in _load_golden()}


def _cells():
    if os.environ.get("REPRO_GOLDEN_FULL") == "1":
        return [(row["benchmark"], row["machine"], row["label"])
                for row in _load_golden()]
    return DEFAULT_CELLS


class ModeRun(NamedTuple):
    results: dict       # cell -> result dict
    records: list       # the run's records (JobRunner.records)
    attached: int       # Sanitizer.attach calls during the run
    trace_dir: str      # where the obs mode writes; absent otherwise


def _run_mode(mode, cells, workdir):
    """Run *cells* in *mode* through one JobRunner, counting the
    sanitizer attaches (``jobs=1`` runs every cell in this process)."""
    trace_dir = str(workdir / "traces")
    runner = JobRunner(ExecOptions(cache=False,
                                   **_settings(mode, trace_dir)))
    jobs = [SimJob.bar(benchmark=benchmark, machine=machine, label=label,
                       instructions=QUICK_INSTRUCTIONS, warmup=QUICK_WARMUP)
            for benchmark, machine, label in cells]
    attached = 0
    attach = Sanitizer.attach

    def counting_attach(self, core):
        nonlocal attached
        attached += 1
        return attach(self, core)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Sanitizer, "attach", counting_attach)
        # The default mode must be the default path, whatever the shell
        # exports.
        patch.delenv(BACKEND_ENV, raising=False)
        results = runner.run(jobs)
    return ModeRun(dict(zip(cells, results)), runner.records, attached,
                   trace_dir)


@pytest.fixture(scope="module")
def mode_run(tmp_path_factory):
    """``mode_run(mode)``: that mode's run of the cells, made once."""
    runs = {}

    def get(mode):
        if mode not in runs:
            runs[mode] = _run_mode(mode, _cells(),
                                   tmp_path_factory.mktemp(mode))
        return runs[mode]
    return get


def _case_id(mode, cell):
    cell_id = "-".join(cell)
    return cell_id if mode == "default" else f"{mode}-{cell_id}"


_CASES = [(mode, cell) for mode in MODES for cell in _cells()]


@pytest.mark.parametrize("mode,cell", _CASES,
                         ids=[_case_id(*case) for case in _CASES])
def test_golden_parity(mode, cell, mode_run):
    golden = _golden_index()[cell]
    result = mode_run(mode).results[cell]
    mismatches = {
        field: (result[field], golden[field])
        for field in COMPARED_FIELDS
        if result[field] != golden[field]
    }
    assert not mismatches, (
        f"{mode}: {'/'.join(cell)} diverged from the golden capture "
        f"(got, want): {mismatches}")


@pytest.mark.parametrize("mode", MODES)
def test_mode_took_effect(mode, mode_run, tmp_path):
    """Each mode's setting reached every cell, and no other one did."""
    run = mode_run(mode)
    stems = ["_".join(cell) for cell in run.results]
    finishes = [r for r in run.records if r["rec"] == "job_finish"]
    span_ids = {r["span_id"] for r in run.records if r["rec"] == "span"}
    got = {
        "backends": {r["backend"] for r in finishes},
        "sanitized cells": run.attached,
        "trace files": (sorted(os.listdir(run.trace_dir))
                        if os.path.isdir(run.trace_dir) else []),
        "traced cells": sum(r.get("span") in span_ids for r in finishes),
    }
    want = {
        "backends": {"vec" if mode.startswith("vec") else "interp"},
        "sanitized cells": len(stems) if mode.endswith("sanitize") else 0,
        "trace files": (sorted(stem + suffix for stem in stems
                               for suffix in (".events.jsonl",
                                              ".metrics.json"))
                        if mode.endswith("obs") else []),
        "traced cells": len(stems) if mode == "trace" else 0,
    }
    assert got == want
    if mode.endswith("obs"):
        # A written trace renders through the report CLI.
        trace = os.path.join(run.trace_dir, stems[0] + ".events.jsonl")
        chrome = tmp_path / "cell.chrome.json"
        assert dispatch(["report", "--trace-file", trace,
                         "--chrome", str(chrome)]) == 0
        assert json.loads(chrome.read_text())["traceEvents"]


def test_obs_metrics_match_across_backends(mode_run):
    """The observer records the same metrics on vec as on interp."""
    interp, vec = mode_run("obs"), mode_run("vec-obs")
    for cell in interp.results:
        name = "_".join(cell) + ".metrics.json"
        with open(os.path.join(interp.trace_dir, name)) as fh:
            want = json.load(fh)
        with open(os.path.join(vec.trace_dir, name)) as fh:
            assert json.load(fh) == want, name


def test_golden_capture_shape():
    """The capture itself: full 130-bar grid, no duplicates, all fields."""
    rows = _load_golden()
    assert len(rows) == 130
    keys = {(r["benchmark"], r["machine"], r["label"]) for r in rows}
    assert len(keys) == 130
    labels = {r["label"] for r in rows}
    assert labels == {"N", "S1", "U1", "S10", "U10"}
    assert {r["machine"] for r in rows} == {"ooo", "inorder"}
    for row in rows:
        for field in _BAR_FIELDS:
            assert field in row


def test_default_subset_exists_in_golden():
    """Guard the hand-picked subset against golden regeneration drift."""
    index = _golden_index()
    for cell in DEFAULT_CELLS:
        assert cell in index, f"default parity cell {cell} not in golden"
