"""Scheduler behaviour: ordering, parallel equivalence, retries, timeout,
telemetry."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.durable import read_records
from repro.exec import (
    CollectingSink,
    ExecOptions,
    JobFailedError,
    JobRunner,
    JobTimeoutError,
    SimJob,
    TransientJobError,
)

# -- pluggable payloads (module-level: picklable by reference) ---------------


def echo_execute(job):
    return {"label": job.label, "seed": job.seed}


def flaky_execute(job):
    """Fail with a transient error until the shared counter reaches the
    threshold encoded in the job; cross-process state lives in a file
    whose path rides in the job's benchmark field."""
    counter_path, threshold = job.benchmark, job.seed
    try:
        with open(counter_path) as fh:
            count = int(fh.read() or "0")
    except FileNotFoundError:
        count = 0
    count += 1
    with open(counter_path, "w") as fh:
        fh.write(str(count))
    if count <= threshold:
        raise TransientJobError(f"flaky attempt {count}")
    return {"attempts": count}


def fatal_execute(job):
    raise ValueError("this payload is broken")


def slow_execute(job):
    time.sleep(job.seed)
    return {"slept": job.seed}


def make_job(name="a", seed=0):
    return SimJob.bar(benchmark=name, machine="m", label="L",
                      instructions=1, warmup=0, seed=seed)


def fast_options(**overrides):
    fields = dict(jobs=1, cache=False, backoff=0.01)
    fields.update(overrides)
    return ExecOptions(**fields)


# -- ordering and equivalence ------------------------------------------------


class TestOrdering:
    def test_results_in_job_order_serial(self):
        jobs = [make_job(name) for name in "abcde"]
        results = JobRunner(fast_options(), execute=echo_execute).run(jobs)
        assert [r["label"] for r in results] == [j.label for j in jobs]

    def test_results_in_job_order_parallel(self):
        jobs = [make_job(name) for name in "abcde"]
        results = JobRunner(fast_options(jobs=3),
                            execute=echo_execute).run(jobs)
        assert [r["label"] for r in results] == [j.label for j in jobs]


class TestParallelEquivalence:
    def test_small_figure_grid_identical(self):
        """jobs=4 must reproduce the serial grid bit-for-bit."""
        from repro.harness.export import figure_to_dict
        from repro.harness.runner import run_figure

        serial = run_figure(
            "equiv", ["ora"], ["ooo", "inorder"], ["N", "S10"], 2000, 500,
            engine=JobRunner(fast_options()))
        parallel = run_figure(
            "equiv", ["ora"], ["ooo", "inorder"], ["N", "S10"], 2000, 500,
            engine=JobRunner(fast_options(jobs=4)))
        assert figure_to_dict(serial) == figure_to_dict(parallel)


# -- retries -----------------------------------------------------------------


class TestRetries:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_failure_retried_until_success(self, tmp_path, jobs):
        counter = tmp_path / "count"
        job = SimJob.bar(benchmark=str(counter), machine="m", label="L",
                         instructions=1, warmup=0, seed=2)  # fail twice
        runner = JobRunner(
            fast_options(jobs=jobs, retries=2,
                         manifest_dir=str(tmp_path / "runs")),
            execute=flaky_execute)
        results = runner.run([job])
        assert results[0] == {"attempts": 3}
        assert runner.stats.retries == 2
        records, _, _ = read_records(runner.last_journal)
        retried = [r for r in records if r["rec"] == "job_retry"]
        assert len(retried) == 2
        assert all("flaky attempt" in r["error"] for r in retried)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_budget_exhausted_fails_run(self, tmp_path, jobs):
        counter = tmp_path / "count"
        job = SimJob.bar(benchmark=str(counter), machine="m", label="L",
                         instructions=1, warmup=0, seed=99)  # never succeeds
        runner = JobRunner(fast_options(jobs=jobs, retries=1),
                           execute=flaky_execute)
        with pytest.raises(JobFailedError, match="failed after 2 attempt"):
            runner.run([job])
        assert runner.stats.failed == 1

    def test_non_transient_error_fails_immediately(self):
        runner = JobRunner(fast_options(retries=5), execute=fatal_execute)
        with pytest.raises(JobFailedError, match="this payload is broken"):
            runner.run([make_job()])
        assert runner.stats.retries == 0


# -- timeout -----------------------------------------------------------------


class TestTimeout:
    def test_parallel_timeout_aborts_with_clear_message(self):
        job = make_job(seed=30)  # would sleep 30s
        runner = JobRunner(fast_options(jobs=2, timeout=0.3),
                           execute=slow_execute)
        start = time.monotonic()
        with pytest.raises(JobTimeoutError, match="per-job timeout"):
            runner.run([job])
        assert time.monotonic() - start < 10  # aborted, not hung

    def test_serial_timeout_detected_post_hoc(self):
        job = make_job(seed=0.2)
        runner = JobRunner(fast_options(timeout=0.05),
                           execute=slow_execute)
        with pytest.raises(JobTimeoutError, match="serial mode"):
            runner.run([job])

    def test_fast_jobs_pass_under_timeout(self):
        runner = JobRunner(fast_options(jobs=2, timeout=30),
                           execute=echo_execute)
        assert len(runner.run([make_job("a"), make_job("b")])) == 2


# -- telemetry ---------------------------------------------------------------


class TestTelemetry:
    def test_event_sequence_per_job(self):
        sink = CollectingSink()
        runner = JobRunner(fast_options(), execute=echo_execute,
                           sinks=[sink])
        runner.run([make_job()])
        assert sink.names() == ["queued", "started", "finished"]
        finished = sink.events[-1]
        assert finished.cache == "off"
        assert finished.wall is not None and finished.wall >= 0

    def test_cache_hit_event_and_stats(self, tmp_path):
        sink = CollectingSink()
        options = fast_options(cache=True, cache_dir=str(tmp_path))
        JobRunner(options, execute=echo_execute).run([make_job()])
        warm = JobRunner(fast_options(cache=True, cache_dir=str(tmp_path)),
                         execute=echo_execute, sinks=[sink])
        warm.run([make_job()])
        assert sink.names() == ["queued", "cache_hit", "finished"]
        assert warm.stats.cache_hits == 1
        assert warm.stats.cache_hit_rate == 1.0

    def test_stats_accumulate_across_runs(self):
        runner = JobRunner(fast_options(), execute=echo_execute)
        runner.run([make_job("a")])
        runner.run([make_job("b")])
        assert runner.stats.jobs == 2
        assert runner.stats.finished == 2

    def test_summary_mentions_jobs_and_cache(self):
        runner = JobRunner(fast_options(), execute=echo_execute)
        runner.run([make_job()])
        summary = runner.stats.summary()
        assert "jobs" in summary and "cache" in summary and "wall" in summary

    def test_run_journal_is_parseable(self, tmp_path):
        runner = JobRunner(fast_options(jobs=2,
                                        manifest_dir=str(tmp_path)),
                           execute=echo_execute)
        runner.run([make_job("a"), make_job("b")])
        records, bad, _ = read_records(runner.last_journal)
        assert bad == 0 and records == runner.records
        header, records = records[0], records[1:]
        assert header["rec"] == "journal_header"
        assert [r["rec"] for r in records[:1] + records[-1:]] == [
            "run_start", "run_end"]
        jobs = records[1:-1]
        assert {r["rec"] for r in jobs} == {"job_start", "job_finish"}
        assert all(set(r) >= {"rec", "key", "label", "attempt", "ts"}
                   for r in jobs)
        finished = [r for r in jobs if r["rec"] == "job_finish"]
        assert all(r["wall"] >= 0 and r["cache"] == "off"
                   and r["sim"] == {"label": r["label"], "seed": 0}
                   for r in finished)
        assert records[-1]["stats"]["finished"] == 2

    def test_run_journal_leads_with_schema_header(self, tmp_path):
        from repro.durable import JOURNAL_SCHEMA

        runner = JobRunner(
            fast_options(manifest_dir=str(tmp_path),
                         run_meta={"experiment": "exp-x",
                                   "argv": ["exp-x", "--quick"],
                                   "seed": 7}),
            execute=echo_execute)
        runner.run([make_job("a"), make_job("b")])
        header = read_records(runner.last_journal)[0][0]
        assert header["rec"] == "journal_header"
        assert header["kind"] == "exec_run"
        assert header["schema"] == JOURNAL_SCHEMA
        assert header["run_id"] == runner.last_run_id
        assert header["experiment"] == "exp-x"
        assert header["argv"] == ["exp-x", "--quick"]
        assert header["seed"] == 7
        assert header["jobs"] == 2
        assert header["workers"] == 1
        assert "git_sha" in header and "started" in header

    def test_each_grid_writes_its_own_journal(self, tmp_path):
        """A multi-grid experiment (several run() calls through one
        runner) is several runs: each has its own id and journal, and
        the runner's counts still accumulate across them."""
        runner = JobRunner(fast_options(manifest_dir=str(tmp_path)),
                           execute=echo_execute)
        runner.run([make_job("a")])
        first = runner.last_journal
        runner.run([make_job("b")])
        assert runner.last_journal != first
        labels = [{r["label"] for r in read_records(path)[0]
                   if r["rec"] == "job_finish"}
                  for path in (first, runner.last_journal)]
        assert labels == [{"a/m/L"}, {"b/m/L"}]
        assert runner.stats.finished == 2

    def test_records_kept_in_memory_without_a_run_dir(self):
        runner = JobRunner(fast_options(), execute=echo_execute)
        runner.run([make_job("a")])
        assert runner.last_journal is None
        assert [r["rec"] for r in runner.records] == [
            "journal_header", "run_start", "job_start", "job_finish",
            "run_end"]

    def test_sinks_see_each_event_before_its_record(self, tmp_path):
        """The journal append of a job boundary follows every sink's
        view of it (the benchmark times hits and misses at its sinks)."""
        seen = []

        class Probe:
            def emit(self, event):
                seen.append(("event", event.event, len(runner.records)))

            def record(self, record):
                seen.append(("record", record["rec"], len(runner.records)))

        runner = JobRunner(fast_options(manifest_dir=str(tmp_path)),
                           execute=echo_execute, sinks=[Probe()])
        runner.run([make_job("a")])
        kinds = [(kind, name) for kind, name, _ in seen]
        assert kinds.index(("event", "started")) < kinds.index(
            ("record", "job_start"))
        assert kinds.index(("event", "finished")) < kinds.index(
            ("record", "job_finish"))
        finished = next(n for kind, name, n in seen
                        if (kind, name) == ("event", "finished"))
        assert runner.records[finished]["rec"] == "job_finish"


class TestAtomicWrite:
    def test_write_is_atomic(self, tmp_path):
        """No tmp droppings, and the target parses, after a write."""
        from repro.exec import atomic_write_json

        path = tmp_path / "snapshot.json"
        atomic_write_json(path, {"schema": 1})
        atomic_write_json(path, {"schema": 2})
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name.endswith(".tmp")]
        assert leftovers == []
        assert json.loads(path.read_text())["schema"] == 2


class TestGitSha:
    """Journal headers, manifests and ``/healthz`` name the commit of
    the code that ran, wherever the run was started from."""

    SRC = str(Path(__file__).resolve().parents[1] / "src")

    def sha_from(self, cwd):
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.exec.telemetry import git_sha; print(git_sha())"],
            cwd=cwd, env=dict(os.environ, PYTHONPATH=self.SRC),
            capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    def test_the_working_directory_is_not_the_build(self, tmp_path):
        other = tmp_path / "other-checkout"
        other.mkdir()
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
               "-c", "init.defaultBranch=main", "-C", str(other)]
        subprocess.run(git + ["init", "-q"], check=True)
        subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"],
                       check=True)
        other_sha = subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                                   capture_output=True,
                                   text=True).stdout.strip()
        own = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=os.path.join(self.SRC, "repro"),
                             capture_output=True, text=True)
        want = own.stdout.strip() if own.returncode == 0 else "None"
        assert self.sha_from(other) == want != other_sha
        assert self.sha_from(tmp_path) == want
