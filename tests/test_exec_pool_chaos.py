"""Process-pool chaos: dead workers, transient worker faults, and
in-simulation invariant violations arriving through the pool."""

import json
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.durable import read_records
from repro.exec import CollectingSink, ExecOptions, JobRunner, SimJob
from repro.sanitize import InvariantViolation
from repro.sanitize.chaos import CHAOS_DIR_ENV, chaos_execute


def make_job(name, seed=0):
    return SimJob.bar(benchmark=name, machine="m", label=f"L-{name}",
                      instructions=1, warmup=0, seed=seed)


def options(**overrides):
    overrides.setdefault("jobs", 1)
    overrides.setdefault("cache", False)
    overrides.setdefault("backoff", 0.01)
    return ExecOptions(**overrides)


class TestWorkerDeath:
    def test_sigkilled_worker_falls_back_to_serial(self):
        """A SIGKILLed worker (the OOM-kill shape) poisons the pool; the
        runner must finish every job anyway, on the serial path."""
        jobs = [make_job("ok-a"), make_job("kill-1"), make_job("ok-b"),
                make_job("ok-c")]
        sink = CollectingSink()
        runner = JobRunner(options(jobs=2), execute=chaos_execute,
                           sinks=[sink])
        results = runner.run(jobs)

        assert all(r is not None for r in results)
        assert [r["label"] for r in results] == [j.label for j in jobs]
        assert runner.stats.pool_breaks == 1
        assert "pool_broken" in sink.names()
        assert runner.stats.finished == len(jobs)

    def test_pool_broken_event_in_trace(self, tmp_path):
        jobs = [make_job("kill-1"), make_job("ok-a")]
        runner = JobRunner(options(jobs=2, manifest_dir=str(tmp_path)),
                           execute=chaos_execute)
        runner.run(jobs)
        records, _, _ = read_records(runner.last_journal)
        broken = [r for r in records if r["rec"] == "pool_broken"]
        assert len(broken) == 1
        assert "BrokenProcessPool" in broken[0]["error"]

    def test_pool_broken_at_submission_falls_back(self, monkeypatch):
        """A worker that dies before the last job is submitted makes
        ``submit`` itself raise; the grid still finishes serially."""
        real_submit = ProcessPoolExecutor.submit
        calls = []

        def submit(pool, *args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise BrokenProcessPool("worker died before submission")
            return real_submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        jobs = [make_job("ok-a"), make_job("ok-b"), make_job("ok-c")]
        sink = CollectingSink()
        runner = JobRunner(options(jobs=2), execute=chaos_execute,
                           sinks=[sink])
        results = runner.run(jobs)
        assert [r["label"] for r in results] == [j.label for j in jobs]
        assert runner.stats.pool_breaks == 1
        assert sink.names().count("pool_broken") == 1

    def test_serial_mode_never_breaks(self):
        """The kill payload only fires inside a pool worker: jobs=1 runs
        in the parent and must complete normally."""
        runner = JobRunner(options(jobs=1), execute=chaos_execute)
        results = runner.run([make_job("kill-1"), make_job("ok-a")])
        assert [r["ok"] for r in results] == [True, True]
        assert runner.stats.pool_breaks == 0


class TestTransientWorkerFault:
    def test_flaky_worker_retried_in_pool(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path))
        sink = CollectingSink()
        jobs = [make_job("flaky-once-a"), make_job("ok-a")]
        runner = JobRunner(options(jobs=2), execute=chaos_execute,
                           sinks=[sink])
        results = runner.run(jobs)
        assert [r["ok"] for r in results] == [True, True]
        assert runner.stats.retries == 1
        assert "retried" in sink.names()

    def test_retry_budget_survives_pool_fallback(self, tmp_path,
                                                 monkeypatch):
        """Attempt counts carry into the serial fallback: a job that was
        already flaky in the pool still succeeds within budget."""
        monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path))
        jobs = [make_job("kill-1"), make_job("flaky-once-b"),
                make_job("ok-a")]
        runner = JobRunner(options(jobs=2, retries=2),
                           execute=chaos_execute)
        results = runner.run(jobs)
        assert all(r is not None for r in results)
        assert runner.stats.pool_breaks == 1


class TestViolationThroughTheGrid:
    @pytest.mark.parametrize("jobs_opt", [1, 2])
    def test_violation_becomes_structured_record(self, jobs_opt):
        """An InvariantViolation in one cell must not abort the grid: it
        becomes a per-job failure record and the rest of the results
        arrive intact — serial and parallel alike."""
        sink = CollectingSink()
        jobs = [make_job("ok-a"), make_job("violate-1"), make_job("ok-b")]
        runner = JobRunner(options(jobs=jobs_opt), execute=chaos_execute,
                           sinks=[sink])
        results = runner.run(jobs)

        assert results[0]["ok"] and results[2]["ok"]
        record = results[1]
        assert record["status"] == "invariant_violation"
        assert record["violation"]["invariant"] == "mshr.no_leaked_entries"
        assert record["violation"]["cycle"] == 1234
        assert record["violation"]["snapshot"]["mshr_id"] == 3
        assert record["job"]["benchmark"] == "violate-1"
        assert runner.stats.violations == 1
        assert runner.stats.failed == 1

        failed = [e for e in sink.events if e.event == "failed"]
        assert len(failed) == 1
        assert failed[0].violation["invariant"] == "mshr.no_leaked_entries"

    def test_violation_survives_the_pool_boundary(self):
        """The violation pickles across the worker boundary with its
        structured fields intact (``__reduce__``), so the parallel path
        sees a real InvariantViolation, not a bare RuntimeError."""
        sink = CollectingSink()
        runner = JobRunner(options(jobs=2), execute=chaos_execute,
                           sinks=[sink])
        results = runner.run([make_job("violate-1"), make_job("ok-a")])
        assert results[0]["status"] == "invariant_violation"
        assert results[0]["violation"]["component"] == "MSHR"
        assert results[1]["ok"]

    def test_violation_record_is_json_serializable(self):
        runner = JobRunner(options(), execute=chaos_execute)
        results = runner.run([make_job("violate-1")])
        json.dumps(results[0])  # the grid export path must not choke
