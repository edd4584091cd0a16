"""Kill-and-resume: a journaled grid continues exactly where it died."""

import os

import pytest

from repro.durable import read_records
from repro.durable.resume import JournalError, load_run_state, resume_main
from repro.exec import ExecOptions, JobFailedError, JobRunner, SimJob
from repro.perf import RunRecord
from repro.sanitize.chaos import flip_byte

# -- pluggable payloads (module-level: picklable by reference) ---------------


def tracking_execute(job):
    """Count executions in ``<benchmark>.runs``; a ``<benchmark>.boom``
    sentinel file makes the cell fatally fail (the benchmark field
    carries a scratch path, the same trick the engine tests use)."""
    base = job.benchmark
    if os.path.exists(base + ".boom"):
        raise ValueError("chaos: fatal cell")
    count_path = base + ".runs"
    runs = 0
    if os.path.exists(count_path):
        with open(count_path) as fh:
            runs = int(fh.read())
    runs += 1
    with open(count_path, "w") as fh:
        fh.write(str(runs))
    return {"label": job.label, "cell": os.path.basename(base),
            "runs": runs}


def always_transient(job):
    from repro.exec import TransientJobError

    count_path = job.benchmark + ".runs"
    runs = 0
    if os.path.exists(count_path):
        with open(count_path) as fh:
            runs = int(fh.read())
    with open(count_path, "w") as fh:
        fh.write(str(runs + 1))
    raise TransientJobError("chaos: never succeeds")


def scratch_job(base, label="L"):
    return SimJob.bar(benchmark=str(base), machine="m", label=label,
                      instructions=1, warmup=0, seed=0)


def runs_count(base) -> int:
    path = str(base) + ".runs"
    if not os.path.exists(path):
        return 0
    with open(path) as fh:
        return int(fh.read())


@pytest.fixture
def roots(tmp_path):
    return {"cache": str(tmp_path / "cache"),
            "runs": str(tmp_path / "runs"),
            "scratch": tmp_path}


def options(roots, **overrides):
    fields = dict(jobs=1, cache=True, cache_dir=roots["cache"],
                  manifest_dir=roots["runs"], backoff=0.01,
                  journal_fsync="off")
    fields.update(overrides)
    return ExecOptions(**fields)


def finished(state):
    """The keys of the cells the folded journal saw finish."""
    return {key for key, cell in state.cells.items()
            if cell["status"] == "ok"}


def interrupted_run(roots, names=("a", "b", "c", "d"), boom="c"):
    """Run a grid that dies at cell *boom*; returns (jobs, run_id)."""
    jobs = [scratch_job(roots["scratch"] / name, label=name)
            for name in names]
    (roots["scratch"] / f"{boom}.boom").write_text("armed")
    runner = JobRunner(options(roots), execute=tracking_execute)
    with pytest.raises(JobFailedError):
        runner.run(jobs)
    (roots["scratch"] / f"{boom}.boom").unlink()
    assert runner.last_run_id and runner.last_journal
    return jobs, runner.last_run_id


class TestLoadRunState:
    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no run journal"):
            load_run_state("no-such-run", str(tmp_path))

    def test_folds_completion_state(self, roots):
        jobs, run_id = interrupted_run(roots)
        state = load_run_state(run_id, roots["runs"])
        assert state.run_id == run_id
        keys = [entry["key"] for entry in state.grid]
        assert keys == [job.cache_key() for job in jobs]
        done = {jobs[0].cache_key(), jobs[1].cache_key()}
        assert finished(state) == done
        # The fatal cell failed (with its error); the last never started.
        assert [state.cells[key]["status"] for key in keys] == [
            "ok", "ok", "failed", "queued"]
        assert "chaos: fatal cell" in state.cells[keys[2]]["error"]
        assert state.status == "failed"
        assert not state.distrusted
        rebuilt = state.jobs()
        assert [j.cache_key() for j in rebuilt] == keys

    def test_torn_tail_trusted_prefix(self, roots):
        from repro.sanitize.chaos import truncate_tail

        jobs, run_id = interrupted_run(roots)
        path = os.path.join(roots["runs"], run_id, "journal.jsonl")
        truncate_tail(path, 10)
        state = load_run_state(run_id, roots["runs"])
        assert state.distrusted >= 1
        assert state.grid  # the grid announcement is intact

    def test_grid_entry_without_machine_is_a_named_error(self, roots,
                                                         capsys):
        from repro.durable import frame

        _, run_id = interrupted_run(roots)
        path = os.path.join(roots["runs"], run_id, "journal.jsonl")
        records, _, _ = read_records(path)
        del records[1]["jobs"][0]["job"]["machine"]
        with open(path, "w") as fh:
            fh.write("".join(frame(record) for record in records))
        assert resume_main([run_id, "--runs-root", roots["runs"]]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2: run_start.jobs[0].job.machine is missing" in err

    def test_unknown_backend_in_the_header_is_a_named_error(self, roots,
                                                            capsys):
        from repro.durable import frame

        _, run_id = interrupted_run(roots)
        path = os.path.join(roots["runs"], run_id, "journal.jsonl")
        records, _, _ = read_records(path)
        records[0]["settings"]["backend"] = "turbo"
        with open(path, "w") as fh:
            fh.write("".join(frame(record) for record in records))
        assert resume_main([run_id, "--runs-root", roots["runs"]]) == 2
        err = capsys.readouterr().err
        assert "journal_header.settings.backend" in err
        assert "unknown backend 'turbo'" in err

    def test_resume_cli_rejects_headerless_file(self, tmp_path, capsys):
        bogus = tmp_path / "journal.jsonl"
        bogus.write_text("deadbeef not a journal\n")
        assert resume_main([str(bogus)]) == 2
        assert "header" in capsys.readouterr().err


class TestResumeEngine:
    def test_completed_cells_replay_not_rerun(self, roots):
        jobs, run_id = interrupted_run(roots)
        state = load_run_state(run_id, roots["runs"])
        resumed = JobRunner(options(roots), execute=tracking_execute)
        results = resumed.run(state.jobs(), resume=state)
        assert resumed.stats.replayed == 2
        assert resumed.stats.executed == 2
        assert resumed.stats.finished == 4
        # a and b ran exactly once, ever — the resume replayed them.
        assert runs_count(roots["scratch"] / "a") == 1
        assert runs_count(roots["scratch"] / "b") == 1
        assert runs_count(roots["scratch"] / "c") == 1
        # Digit-exact vs a never-interrupted run of the same grid.
        fresh = [{"label": j.label,
                  "cell": os.path.basename(j.benchmark), "runs": 1}
                 for j in jobs]
        assert results == fresh

    def test_resumed_journal_links_and_is_replayable(self, roots):
        _, run_id = interrupted_run(roots)
        state = load_run_state(run_id, roots["runs"])
        resumed = JobRunner(
            options(roots, run_meta={"resumed_from": run_id}),
            execute=tracking_execute)
        resumed.run(state.jobs(), resume=state)
        # The resumed run wrote its own journal under its own run id...
        assert resumed.last_run_id != run_id
        records, _, truncated = read_records(resumed.last_journal)
        assert not truncated
        recs = [r["rec"] for r in records]
        assert recs.count("job_finish") == 4
        # ... and its header links back to the run it continued.
        record = RunRecord.load(resumed.last_journal)
        assert record.head["resumed_from"] == run_id
        assert record.stats["replayed"] == 2
        # Resuming the resume replays everything: the grid is complete.
        again = JobRunner(options(roots), execute=tracking_execute)
        state2 = load_run_state(resumed.last_run_id, roots["runs"])
        again.run(state2.jobs(), resume=state2)
        assert again.stats.replayed == 4 and again.stats.executed == 0

    def test_torn_and_flipped_journal_still_resumes(self, roots):
        """The trusted prefix is the plan: a flipped byte in b's finish
        distrusts it and everything after, so only a replays — but b's
        result is still in the cache, so it is a hit, not a re-run."""
        from repro.sanitize.chaos import truncate_tail

        jobs, run_id = interrupted_run(roots)
        path = os.path.join(roots["runs"], run_id, "journal.jsonl")
        truncate_tail(path, 10)  # tear run_end
        with open(path) as fh:
            lines = fh.readlines()
        second = [i for i, line in enumerate(lines)
                  if '"rec":"job_finish"' in line][1]
        flip_byte(path, sum(len(line) for line in lines[:second]) + 20)
        state = load_run_state(run_id, roots["runs"])
        assert state.distrusted == len(lines) - second
        assert finished(state) == {jobs[0].cache_key()}
        resumed = JobRunner(options(roots), execute=tracking_execute)
        results = resumed.run(state.jobs(), resume=state)
        assert (resumed.stats.replayed, resumed.stats.cache_hits,
                resumed.stats.executed) == (1, 1, 2)
        assert runs_count(roots["scratch"] / "b") == 1
        assert [r["runs"] for r in results] == [1, 1, 1, 1]

    def test_journal_written_before_this_change_still_resumes(self,
                                                              roots):
        """Record changes are additive: a journal without ts, walls,
        sim subsets, spans or run_end counts still folds and resumes."""
        jobs, run_id = interrupted_run(roots)
        path = os.path.join(roots["runs"], run_id, "journal.jsonl")
        records, _, _ = read_records(path)
        legacy_fields = {"rec", "kind", "schema", "run_id", "experiment",
                         "argv", "seed", "workers", "jobs", "started",
                         "key", "label", "attempt", "cache", "error",
                         "status", "finished"}
        from repro.durable import frame

        with open(path, "w") as fh:
            fh.write("".join(
                frame({k: v for k, v in r.items() if k in legacy_fields})
                for r in records))
        state = load_run_state(run_id, roots["runs"])
        assert finished(state) == {jobs[0].cache_key(),
                                   jobs[1].cache_key()}
        resumed = JobRunner(options(roots), execute=tracking_execute)
        resumed.run(state.jobs(), resume=state)
        assert resumed.stats.replayed == 2 and resumed.stats.executed == 2

    def test_corrupt_cache_entry_forces_rerun(self, roots):
        jobs, run_id = interrupted_run(roots)
        state = load_run_state(run_id, roots["runs"])
        resumed = JobRunner(options(roots), execute=tracking_execute)
        # Rot cell a's cached result: the journal says finished, but the
        # journal is a skip-list hint, never a source of results.
        entry = resumed.cache.path_for(jobs[0].cache_key())
        flip_byte(str(entry))
        results = resumed.run(state.jobs(), resume=state)
        assert resumed.stats.replayed == 1  # only b
        assert resumed.stats.executed == 3
        assert resumed.cache.stats.corrupt == 1
        assert runs_count(roots["scratch"] / "a") == 2
        assert results[0]["runs"] == 2  # honest re-execution, no stale lie

    @pytest.mark.parametrize("jobs_opt", [1, 2])
    def test_attempt_carryover_bounds_retry_budget(self, roots, jobs_opt):
        job = scratch_job(roots["scratch"] / "flaky")
        original = JobRunner(options(roots, retries=2),
                             execute=always_transient)
        with pytest.raises(JobFailedError, match="after 3 attempt"):
            original.run([job])
        assert runs_count(roots["scratch"] / "flaky") == 3
        state = load_run_state(original.last_run_id, roots["runs"])
        assert state.cells[job.cache_key()]["attempts"] == 2
        # The resume carries attempt counts: the budget spans both runs,
        # so only one more attempt happens — not three fresh ones.
        resumed = JobRunner(options(roots, retries=2, jobs=jobs_opt),
                            execute=always_transient)
        with pytest.raises(JobFailedError, match="after 3 attempt"):
            resumed.run(state.jobs(), resume=state)
        assert runs_count(roots["scratch"] / "flaky") == 4


class TestResumeCli:
    """End-to-end over the real simulator: ``harness resume <run_id>``."""

    def grid(self):
        return [SimJob.bar(benchmark="ora", machine=machine, label=label,
                           instructions=800, warmup=200, seed=0)
                for machine in ("inorder", "ooo")
                for label in ("N", "S10")]

    def test_resume_after_kill_is_digit_exact(self, roots, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", roots["cache"])
        jobs = self.grid()
        full = JobRunner(options(roots, run_meta={"experiment": "grid"}))
        baseline = full.run(jobs)
        run_id = full.last_run_id

        # Forge the kill: keep the journal prefix up to the second
        # cell's finish, drop the victims' cache entries so the resume
        # has real work to do.
        journal = os.path.join(roots["runs"], run_id, "journal.jsonl")
        with open(journal) as fh:
            lines = fh.readlines()
        finishes = [i for i, line in enumerate(lines)
                    if '"rec":"job_finish"' in line]
        with open(journal, "w") as fh:
            fh.writelines(lines[:finishes[1] + 1])
        cache = full.cache
        for victim in jobs[2:]:
            os.unlink(cache.path_for(victim.cache_key()))

        exit_code = resume_main([run_id, "--runs-root", roots["runs"],
                                 "--quiet"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert f"resumed {run_id}: 2 cell(s) replayed" in out
        assert "2 re-executed, 0 failed" in out
        # Digit-exact: every cell's cached result now matches the
        # uninterrupted baseline.
        for job, expected in zip(jobs, baseline):
            assert cache.get(job) == expected

    def test_no_cache_run_resumes_without_the_cache(self, roots,
                                                    monkeypatch, capsys):
        """A ``--no-cache`` run's resume neither reads nor writes the
        cache, even where another run left an entry for its cell."""
        from repro.exec import ResultCache

        monkeypatch.setenv("REPRO_CACHE_DIR", roots["cache"])
        jobs = self.grid()[:2]
        first = JobRunner(options(roots, cache=False))
        baseline = first.run(jobs)
        run_id = first.last_run_id
        journal = os.path.join(roots["runs"], run_id, "journal.jsonl")
        with open(journal) as fh:
            lines = fh.readlines()
        finish = next(i for i, line in enumerate(lines)
                      if '"rec":"job_finish"' in line)
        with open(journal, "w") as fh:
            fh.writelines(lines[:finish + 1])
        cache = ResultCache(roots["cache"])
        cache.put(jobs[1], baseline[1])  # another run's entry
        entries = sorted(p.name for p in cache.root.rglob("*.json"))

        exit_code = resume_main([run_id, "--runs-root", roots["runs"],
                                 "--quiet"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "cache       0 hits" in out
        assert "2 re-executed, 0 failed" in out
        assert sorted(p.name for p in cache.root.rglob("*.json")) == \
            entries
        assert load_run_state(run_id, roots["runs"]).cache is False

    def test_resume_respects_backend_flag(self, roots, monkeypatch,
                                          capsys):
        from repro.vec import BACKEND_ENV

        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", roots["cache"])
        jobs = self.grid()[:2]
        full = JobRunner(options(roots))
        baseline = full.run(jobs)
        run_id = full.last_run_id
        # Kill after the first finish; the second cell re-runs on vec.
        journal = os.path.join(roots["runs"], run_id, "journal.jsonl")
        with open(journal) as fh:
            lines = fh.readlines()
        finish = next(i for i, line in enumerate(lines)
                      if '"rec":"job_finish"' in line)
        with open(journal, "w") as fh:
            fh.writelines(lines[:finish + 1])
        os.unlink(full.cache.path_for(jobs[1].cache_key()))

        exit_code = resume_main([run_id, "--runs-root", roots["runs"],
                                 "--backend", "vec", "--quiet"])
        assert exit_code == 0
        assert "1 re-executed" in capsys.readouterr().out
        assert full.cache.get(jobs[1]) == baseline[1]  # digit-exact
