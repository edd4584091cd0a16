"""Graceful shutdown: request_drain, DRAINED telemetry, signals,
manifest status."""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.exec import (
    DRAINED,
    CollectingSink,
    ExecOptions,
    JobRunner,
    SimJob,
)


def echo_execute(job):
    return {"label": job.label, "seed": job.seed}


def slow_execute(job):
    time.sleep(job.seed)
    return {"slept": job.seed}


def make_job(name="a", seed=0):
    return SimJob.bar(benchmark=name, machine="m", label="L",
                      instructions=1, warmup=0, seed=seed)


class TestSerialDrain:
    def test_drain_mid_grid_keeps_finished_work(self):
        runner = JobRunner(ExecOptions(jobs=1, cache=False))

        def draining_execute(job):
            if job.benchmark == "b":
                runner.request_drain()
            return {"label": job.label, "benchmark": job.benchmark}

        runner.execute = draining_execute
        collector = CollectingSink()
        runner.extra_sinks.append(collector)
        jobs = [make_job(name) for name in "abcd"]
        results = runner.run(jobs)

        # a and b finished (the drain request lands while b is in
        # flight, and in-flight work completes); c and d were given up.
        assert results[0] is not None and results[1] is not None
        assert results[2] is None and results[3] is None
        drained = [e for e in collector.events if e.event == DRAINED]
        assert len(drained) == 2
        assert runner.stats.drained == 2
        assert runner.stats.as_dict()["drained"] == 2

    def test_drain_is_sticky_across_grids(self):
        runner = JobRunner(ExecOptions(jobs=1, cache=False),
                           execute=echo_execute)
        runner.request_drain()
        results = runner.run([make_job("a"), make_job("b")])
        assert results == [None, None]
        assert runner.draining

    def test_drained_run_writes_manifest_with_status(self, tmp_path):
        runner = JobRunner(ExecOptions(jobs=1, cache=False,
                                       manifest_dir=str(tmp_path),
                                       run_meta={"experiment": "t"}))

        def draining_execute(job):
            runner.request_drain()
            return {"label": job.label}

        runner.execute = draining_execute
        runner.run([make_job("a"), make_job("b")])
        assert runner.last_manifest is not None
        with open(runner.last_manifest) as fh:
            manifest = json.load(fh)
        assert manifest["status"] == "drained"
        states = {c["label"]: c["status"] for c in manifest["cells"]}
        assert sorted(states.values()) == ["drained", "ok"]


class TestParallelDrain:
    def test_drain_keeps_completed_futures(self):
        runner = JobRunner(ExecOptions(jobs=2, cache=False, retries=0),
                           execute=slow_execute)
        collector = CollectingSink()
        runner.extra_sinks.append(collector)
        # Far more jobs than the 2-worker pool can buffer (workers plus
        # its small prefetch queue), so a drain arriving while the first
        # job is still collecting must leave a tail to cancel.
        jobs = [SimJob.bar(benchmark=f"j{i}", machine="m", label="L",
                           instructions=1, warmup=0, seed=0.15)
                for i in range(12)]
        timer = threading.Timer(0.02, runner.request_drain)
        timer.start()
        try:
            results = runner.run(jobs)
        finally:
            timer.cancel()
        finished = [r for r in results if r is not None]
        drained = [e for e in collector.events if e.event == DRAINED]
        # In-flight work completed and was recorded; the queued tail was
        # given up with a drained event per job.
        assert finished and drained
        assert len(finished) + len(drained) == len(jobs)
        assert all(r == {"slept": 0.15} for r in finished)


class TestSignals:
    def test_sigterm_requests_drain(self):
        runner = JobRunner(ExecOptions(jobs=1, cache=False,
                                       install_signal_handlers=True))

        def signalling_execute(job):
            if job.benchmark == "a":
                signal.raise_signal(signal.SIGTERM)
            return {"label": job.label}

        runner.execute = signalling_execute
        results = runner.run([make_job(n) for n in "abc"])
        assert results[0] is not None
        assert results[1] is None and results[2] is None
        assert runner.draining

    def test_handlers_restored_after_run(self):
        before = signal.getsignal(signal.SIGTERM)
        runner = JobRunner(ExecOptions(jobs=1, cache=False,
                                       install_signal_handlers=True),
                           execute=echo_execute)
        runner.run([make_job("a")])
        assert signal.getsignal(signal.SIGTERM) is before

    def test_handlers_untouched_by_default(self):
        before = signal.getsignal(signal.SIGTERM)

        def asserting_execute(job):
            assert signal.getsignal(signal.SIGTERM) is before
            return {"ok": True}

        runner = JobRunner(ExecOptions(jobs=1, cache=False),
                           execute=asserting_execute)
        results = runner.run([make_job("a")])
        assert results[0] == {"ok": True}

    def test_second_signal_raises_keyboard_interrupt(self):
        runner = JobRunner(ExecOptions(jobs=1, cache=False,
                                       install_signal_handlers=True))

        def double_signal(job):
            signal.raise_signal(signal.SIGINT)
            signal.raise_signal(signal.SIGINT)
            return {"label": job.label}

        runner.execute = double_signal
        with pytest.raises(KeyboardInterrupt):
            runner.run([make_job("a"), make_job("b")])


def session_pids(session: int):
    """Live (not zombie) pids whose session id is *session*."""
    pids = set()
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # it ended while we looked
        if fields[0] != "Z" and int(fields[3]) == session:
            pids.add(int(name))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_pool_workers_end_with_their_parent(tmp_path):
    """A SIGKILLed CLI grid leaves no pool worker behind, although each
    was forked with the drain handler installed."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    grid = subprocess.Popen(
        [sys.executable, "-m", "repro.harness", "figure2", "--quick",
         "--jobs", "2", "--no-cache", "--no-manifest"],
        env=env, cwd=str(tmp_path), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        workers = set()
        while len(workers) < 2 and time.monotonic() < deadline:
            assert grid.poll() is None, "the grid ended before its pool"
            workers = session_pids(grid.pid) - {grid.pid}
            time.sleep(0.05)
        assert len(workers) >= 2, "no pool workers appeared"
        os.kill(grid.pid, signal.SIGKILL)
        grid.wait(10)
        deadline = time.monotonic() + 5
        while workers and time.monotonic() < deadline:
            workers &= session_pids(grid.pid)
            time.sleep(0.05)
        assert not workers, f"workers {sorted(workers)} outlived the parent"
    finally:
        try:
            os.killpg(grid.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if grid.poll() is None:
            grid.wait(10)
