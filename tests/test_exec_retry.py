"""Retry semantics: backoff doubling, budget caps, attempt carryover.

The contract under test: a job gets at most ``1 + retries`` attempts
*total* — across pool and serial execution, and across an interrupted
run and its resume — with exponential backoff between attempts.
"""

import os
import signal
import time
from types import SimpleNamespace

import pytest

from repro.exec import (
    ExecOptions,
    JobFailedError,
    JobRunner,
    SimJob,
    TransientJobError,
)

# -- pluggable payloads (module-level: picklable by reference) ---------------


def _bump_counter(path) -> int:
    count = 0
    if os.path.exists(path):
        with open(path) as fh:
            count = int(fh.read())
    count += 1
    with open(path, "w") as fh:
        fh.write(str(count))
    return count


def counting_transient(job):
    """Always-transient payload; ``<benchmark>.runs`` counts attempts."""
    _bump_counter(job.benchmark + ".runs")
    raise TransientJobError("chaos: never succeeds")


def transient_then_worker_death(job):
    """First call: transient fault.  Second call (in a pool worker):
    SIGKILL, breaking the pool mid-retry.  Later (serial fallback)
    calls: transient again.  Exercises attempt carryover across the
    pool-broken boundary."""
    import multiprocessing

    count = _bump_counter(job.benchmark + ".runs")
    in_pool = multiprocessing.parent_process() is not None
    if count >= 2 and in_pool:
        os.kill(os.getpid(), signal.SIGKILL)
    raise TransientJobError(f"chaos: transient fault #{count}")


def scratch_job(base):
    return SimJob.bar(benchmark=str(base), machine="m", label="L",
                      instructions=1, warmup=0, seed=0)


def runs_count(base) -> int:
    with open(str(base) + ".runs") as fh:
        return int(fh.read())


def options(**overrides):
    fields = dict(jobs=1, cache=False, backoff=0.01)
    fields.update(overrides)
    return ExecOptions(**fields)


class TestBackoff:
    def test_backoff_doubles_per_retry(self, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep",
                            lambda seconds: sleeps.append(seconds))
        runner = JobRunner(options(retries=3, backoff=0.25),
                           execute=counting_transient)
        with pytest.raises(JobFailedError, match="after 4 attempt"):
            runner.run([scratch_job(tmp_path / "j")])
        assert sleeps == [0.25, 0.5, 1.0]

    def test_zero_retries_never_sleeps(self, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep",
                            lambda seconds: sleeps.append(seconds))
        runner = JobRunner(options(retries=0), execute=counting_transient)
        with pytest.raises(JobFailedError, match="after 1 attempt"):
            runner.run([scratch_job(tmp_path / "j")])
        assert sleeps == []


class TestBudgetCapsTotalAttempts:
    @pytest.mark.parametrize("jobs_opt", [1, 2])
    def test_exactly_budget_many_attempts(self, tmp_path, jobs_opt):
        job = scratch_job(tmp_path / "j")
        runner = JobRunner(options(jobs=jobs_opt, retries=2),
                           execute=counting_transient)
        with pytest.raises(JobFailedError, match="after 3 attempt"):
            runner.run([job])
        assert runs_count(tmp_path / "j") == 3  # 1 + retries, no more

    @pytest.mark.parametrize("jobs_opt", [1, 2])
    def test_seeded_attempts_shrink_the_budget(self, tmp_path, jobs_opt):
        """run(resume=...) accepts any object with completed/attempts;
        attempts already spent in a prior (journaled) run count against
        the budget, so a resume grants one more try here, not three."""
        job = scratch_job(tmp_path / "j")
        prior = SimpleNamespace(cells={job.cache_key(): {
            "status": "running", "attempts": 2}})
        runner = JobRunner(options(jobs=jobs_opt, retries=2),
                           execute=counting_transient)
        with pytest.raises(JobFailedError, match="after 3 attempt"):
            runner.run([job], resume=prior)
        assert runs_count(tmp_path / "j") == 1

    def test_carryover_across_pool_broken_fallback(self, tmp_path):
        """A retry already spent in the pool still counts after the pool
        breaks: transient (pool) -> SIGKILL mid-retry -> the serial
        fallback resumes at attempt 1 and the budget allows exactly two
        more calls, not three."""
        job = scratch_job(tmp_path / "j")
        runner = JobRunner(options(jobs=2, retries=2),
                           execute=transient_then_worker_death)
        with pytest.raises(JobFailedError, match="after 3 attempt"):
            runner.run([job])
        assert runner.stats.pool_breaks == 1
        # pool attempt 0 (transient), pool attempt 1 (killed mid-call,
        # counted before the kill), serial attempts 1 and 2.
        assert runs_count(tmp_path / "j") == 4
