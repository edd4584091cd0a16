"""One configuration path: a run's settings ride in its ExecOptions.

Every cell of a run gets the run's backend, sanitizer switch and
``--trace-events`` directory as call arguments — inline, in a pool
worker, or in one of several runners sharing a process — and nothing
is written to ``os.environ``.  The journal header and the manifest
record the settings, and ``harness resume`` runs the rest of a grid
under them.
"""

import json
import os
import sys
import threading

import pytest

from repro.durable import read_records
from repro.durable.resume import resume_main
from repro.exec import CollectingSink, ExecOptions, JobRunner, SimJob
from repro.harness.runner import bar_config, run_bar
from repro.obs import job_trace_path
from repro.sanitize import InvariantViolation
from repro.sanitize.invariants import Sanitizer
from repro.trace import clear_ambient
from repro.vec import BACKEND_ENV, BackendError


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    clear_ambient()
    yield
    clear_ambient()


def bar_jobs(labels=("N", "S1", "S10")):
    return [SimJob.bar(benchmark="compress", machine="inorder", label=label,
                       instructions=600, warmup=200) for label in labels]


def finished(sink):
    return [event for event in sink.events if event.event == "finished"]


def trace_file(directory, job):
    return job_trace_path(str(directory), job.label)


# -- runners in one process ---------------------------------------------------

def test_each_runner_keeps_its_own_backend():
    before = dict(os.environ)
    vec_sink, interp_sink = CollectingSink(), CollectingSink()
    vec = JobRunner(ExecOptions(cache=False, backend="vec"),
                    sinks=[vec_sink])
    interp = JobRunner(ExecOptions(cache=False, backend="interp"),
                       sinks=[interp_sink])
    vec.run(bar_jobs())
    interp.run(bar_jobs())
    assert [e.backend for e in finished(vec_sink)] == ["vec"] * 3
    assert [e.backend for e in finished(interp_sink)] == ["interp"] * 3
    assert dict(os.environ) == before


def test_concurrent_runners_keep_separate_settings(tmp_path):
    """A sampled vec run, an untraced interp run and a sanitized,
    observed run, started together on three threads, each get their own
    settings and span tree."""
    traces = tmp_path / "traces"
    options = {
        "vec": ExecOptions(cache=False, backend="vec", trace_sample=1.0),
        "interp": ExecOptions(cache=False, backend="interp"),
        # Both instruments on the vec backend.
        "checked": ExecOptions(cache=False, backend="vec", sanitize=True,
                               trace_events=str(traces)),
    }
    sinks = {name: CollectingSink() for name in options}
    runners = {name: JobRunner(options[name], sinks=[sinks[name]])
               for name in options}
    barrier = threading.Barrier(len(runners))
    errors = []

    def run(name):
        try:
            barrier.wait(timeout=30)
            runners[name].run(bar_jobs())
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(name,))
               for name in runners]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert [e.backend for e in finished(sinks["vec"])] == ["vec"] * 3
    assert [e.backend for e in finished(sinks["interp"])] == ["interp"] * 3
    assert [e.backend for e in finished(sinks["checked"])] == ["vec"] * 3
    spans = [r for r in runners["vec"].records if r["rec"] == "span"]
    assert len({span["trace_id"] for span in spans}) == 1
    replays = [span for span in spans if span["name"] == "replay"]
    assert len(replays) == 3
    assert all(span["attrs"]["backend"] == "vec" for span in replays)
    for name in ("interp", "checked"):
        assert not [r for r in runners[name].records if r["rec"] == "span"]
    stems = [job.label.replace("/", "_") for job in bar_jobs()]
    assert sorted(os.listdir(traces)) == sorted(
        stem + ext for stem in stems
        for ext in (".events.jsonl", ".metrics.json"))


# -- pool workers -------------------------------------------------------------

def test_pool_workers_run_sanitized(monkeypatch):
    def refuse(self, core):
        raise InvariantViolation("test.sanitizer_attached", "core", 0,
                                 "a sanitizer reached the cell")

    monkeypatch.setattr(Sanitizer, "attach", refuse)  # before the fork
    runner = JobRunner(ExecOptions(jobs=2, cache=False, sanitize=True))
    results = runner.run(bar_jobs(("N", "S10")))
    assert [r["status"] for r in results] == ["invariant_violation"] * 2
    assert {r["violation"]["invariant"] for r in results} == {
        "test.sanitizer_attached"}


def test_pool_workers_write_traces(tmp_path):
    sink = CollectingSink()
    jobs = bar_jobs(("N", "S10"))
    runner = JobRunner(ExecOptions(jobs=2, cache=False,
                                   trace_events=str(tmp_path)),
                       sinks=[sink])
    runner.run(jobs)
    expected = sorted(trace_file(tmp_path, job) for job in jobs)
    assert sorted(e.trace for e in finished(sink)) == expected
    assert all(os.path.exists(path) for path in expected)
    assert all(e.backend == "interp" for e in finished(sink))


def test_run_bar_observes_when_given_a_trace_dir(tmp_path):
    run_bar("compress", "inorder", bar_config("N"), 600, 200,
            trace_dir=str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == [
        "compress_inorder_N.events.jsonl", "compress_inorder_N.metrics.json"]


# -- the record of a run ------------------------------------------------------

def test_header_and_manifest_record_the_settings(tmp_path, monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "vec")  # resolved once, as the run opens
    traces = str(tmp_path / "traces")
    runner = JobRunner(ExecOptions(cache=False, sanitize=True,
                                   trace_events=traces,
                                   manifest_dir=str(tmp_path / "runs")))
    runner.run(bar_jobs(("N",)))
    want = {"backend": "vec", "sanitize": True, "trace_events": traces,
            "trace_sample": 0.0}
    records, _, _ = read_records(runner.last_journal)
    assert records[0]["settings"] == want
    with open(runner.last_manifest) as fh:
        manifest = json.load(fh)
    assert manifest["settings"] == want
    assert manifest["cells"][0]["metrics_digest"]


def test_resume_restores_the_run_settings(tmp_path, monkeypatch, capsys):
    runs, traces = tmp_path / "runs", tmp_path / "traces"
    jobs = bar_jobs(("N", "S10"))
    first = JobRunner(ExecOptions(cache=False, manifest_dir=str(runs),
                                  journal_fsync="off", sanitize=True,
                                  trace_events=str(traces)))
    first.run(jobs)
    # Cut the journal after run_start: the run died before any cell
    # finished, and its traces are gone with it.
    with open(first.last_journal) as fh:
        lines = fh.readlines()
    start = next(index for index, line in enumerate(lines)
                 if '"rec":"run_start"' in line)
    with open(first.last_journal, "w") as fh:
        fh.writelines(lines[:start + 1])
    for path in traces.iterdir():
        path.unlink()

    attached = []
    real_attach = Sanitizer.attach
    monkeypatch.setattr(Sanitizer, "attach", lambda self, core: (
        attached.append(self), real_attach(self, core))[1])
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert resume_main([first.last_run_id, "--runs-root", str(runs),
                        "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "2 re-executed, 0 failed" in out
    assert len(attached) == 2
    assert all(os.path.exists(trace_file(traces, job)) for job in jobs)
    resumed = next(line.split(": ", 1)[1] for line in out.splitlines()
                   if line.startswith("run manifest: "))
    with open(first.last_manifest) as fh:
        original = json.load(fh)
    with open(resumed) as fh:
        assert json.load(fh)["settings"] == original["settings"]


# -- the command lines --------------------------------------------------------

def test_harness_flags_reach_every_cell(tmp_path, capsys, monkeypatch):
    from repro.harness.__main__ import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    before = dict(os.environ)
    traces = tmp_path / "traces"
    assert main(["figure2", "--quick", "--benchmarks", "compress",
                 "--no-cache", "--sanitize",
                 "--trace-events", str(traces),
                 "--manifest-dir", str(tmp_path / "runs")]) == 0
    assert dict(os.environ) == before
    manifest_path = next(line.split(": ", 1)[1]
                         for line in capsys.readouterr().out.splitlines()
                         if line.startswith("run manifest: "))
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    assert manifest["settings"] == {"backend": "interp", "sanitize": True,
                                    "trace_events": str(traces),
                                    "trace_sample": 0.0}
    assert len(manifest["cells"]) == 10
    assert all(os.path.exists(cell["trace"]) for cell in manifest["cells"])


@pytest.mark.parametrize("rate", ["5", "-1", "nan"])
def test_serve_rejects_an_out_of_range_trace_sample(rate, capsys):
    from repro.serve.cli import build_parser, main, options_from_args

    with pytest.raises(ValueError, match=r"--trace-sample must be in"):
        options_from_args(build_parser().parse_args(["--trace-sample", rate]))
    with pytest.raises(SystemExit) as excinfo:
        main(["--trace-sample", rate])
    assert excinfo.value.code == 2
    assert "--trace-sample must be in [0, 1]" in capsys.readouterr().err


def test_serve_rejects_an_unknown_backend_at_boot(tmp_path, monkeypatch,
                                                  capsys):
    from repro.serve.cli import main
    from repro.serve.gateway import Gateway, ServeOptions

    monkeypatch.setenv(BACKEND_ENV, "turbo")
    with pytest.raises(BackendError, match="unknown backend 'turbo'"):
        Gateway(ServeOptions(cache_dir=str(tmp_path)))
    with pytest.raises(SystemExit) as excinfo:
        main(["--port", "0", "--cache-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "REPRO_BACKEND: unknown backend 'turbo'" in capsys.readouterr().err
