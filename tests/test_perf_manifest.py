"""The run record: the engine writes one journal, one resolver finds it
and one fold reads it."""

import json
import os

import pytest

from repro.durable import frame
from repro.exec import ExecOptions, JobRunner, SimJob
from repro.perf import (
    JournalError,
    RunRecord,
    config_digest,
    journal_path_for,
    machine_fingerprint,
    new_run_id,
    runs_root,
)


def echo_execute(job):
    return {"label": job.label, "seed": job.seed}


def make_job(name="a", seed=0):
    return SimJob.bar(benchmark=name, machine="m", label="L",
                      instructions=1, warmup=0, seed=seed)


def run_with_manifest(tmp_path, jobs=None, **options):
    runner = JobRunner(
        ExecOptions(jobs=1, cache=False, manifest_dir=str(tmp_path),
                    run_meta={"experiment": "exp-test",
                              "argv": ["exp-test"], "seed": 3},
                    **options),
        execute=echo_execute)
    results = runner.run(jobs if jobs is not None
                         else [make_job("a"), make_job("b")])
    return runner, results


def folded(runner):
    return RunRecord.load(runner.last_journal)


class TestEngineHook:
    def test_run_writes_only_its_journal(self, tmp_path):
        runner, _ = run_with_manifest(tmp_path)
        run_dir = os.path.dirname(runner.last_journal)
        assert os.listdir(run_dir) == ["journal.jsonl"]
        assert os.listdir(tmp_path) == [runner.last_run_id]
        run = folded(runner)
        assert run.run_id == runner.last_run_id
        assert run.head["experiment"] == "exp-test"
        assert run.head["argv"] == ["exp-test"]
        assert run.head["seed"] == 3
        assert run.status == "ok"
        assert run.head["workers"] == 1
        assert run.stats["finished"] == 2
        assert run.distrusted == 0 and run.problem is None

    def test_manifest_cells_carry_walls_and_sim_stats(self, tmp_path):
        runner, results = run_with_manifest(tmp_path)
        cells = list(folded(runner).cells.values())
        assert [c["label"] for c in cells] == ["a/m/L", "b/m/L"]
        for cell, result, job in zip(cells, results,
                                     [make_job("a"), make_job("b")]):
            assert cell["status"] == "ok"
            assert cell["cache"] == "off"
            assert cell["wall"] is not None and cell["wall"] >= 0
            assert cell["sim"] == result
            assert cell["key"] == job.cache_key()

    def test_manifest_records_machine_and_config_digest(self, tmp_path):
        runner, _ = run_with_manifest(tmp_path)
        run = folded(runner)
        fingerprint = run.head["machine"]
        assert set(fingerprint) >= {"platform", "python", "cpus"}
        keys = [make_job("a").cache_key(), make_job("b").cache_key()]
        assert run.config_digest == config_digest(keys)
        # Order-independent: the digest sorts the content addresses.
        assert config_digest(list(reversed(keys))) == config_digest(keys)

    def test_failed_run_still_writes_manifest(self, tmp_path):
        """A cell that failed without a sanitizer violation is
        ``failed`` and carries its error: one status, whoever reads."""
        def boom(job):
            raise ValueError("broken payload")

        runner = JobRunner(
            ExecOptions(jobs=1, cache=False, retries=0,
                        manifest_dir=str(tmp_path)),
            execute=boom)
        with pytest.raises(Exception):
            runner.run([make_job("a")])
        run = folded(runner)
        assert run.status == "failed"
        assert "JobFailedError" in run.error
        [cell] = run.cells.values()
        assert cell["status"] == "failed"
        assert cell["error"] == "ValueError: broken payload"
        assert run.as_dict()["cells"][0]["status"] == "failed"

    def test_no_manifest_dir_means_no_write(self, tmp_path):
        runner = JobRunner(ExecOptions(jobs=1, cache=False),
                           execute=echo_execute)
        runner.run([make_job("a")])
        assert runner.last_journal is None
        assert list(tmp_path.iterdir()) == []

    def test_each_run_gets_its_own_manifest(self, tmp_path):
        runner, _ = run_with_manifest(tmp_path)
        first = runner.last_journal
        runner.run([make_job("c")])
        assert runner.last_journal != first
        assert len(os.listdir(tmp_path)) == 2


class TestFold:
    """Every reader folds the run's journal through one RunRecord."""

    def test_fold_of_the_journal_matches_the_runs_own_records(self,
                                                              tmp_path):
        from repro.durable import read_records

        runner, _ = run_with_manifest(tmp_path)
        records, bad, _ = read_records(runner.last_journal)
        assert bad == 0 and records == runner.records
        in_memory = RunRecord()
        in_memory.feed_text("".join(frame(r) for r in runner.records))
        assert in_memory.as_dict() == folded(runner).as_dict()

    def test_enospc_journal_still_gets_a_complete_manifest(self, tmp_path):
        """A journal that fills the disk mid-run stops appending, and is
        rewritten whole from the run's records at its end."""
        from repro.durable import RunJournal, read_records
        from repro.sanitize.chaos import arm_journal_enospc

        real_init = RunJournal.__init__

        def armed_init(journal, *args, **kwargs):
            real_init(journal, *args, **kwargs)
            arm_journal_enospc(journal, after=2)  # header + run_start

        RunJournal.__init__ = armed_init
        try:
            with pytest.warns(RuntimeWarning, match="not writable"):
                runner, results = run_with_manifest(tmp_path)
        finally:
            RunJournal.__init__ = real_init
        run = folded(runner)
        assert run.status == "ok"
        assert [cell["sim"] for cell in run.cells.values()] == results
        assert run.stats["finished"] == 2
        assert run.stats["journal_errors"] == 1
        assert runner.stats.journal_errors == 1
        records, bad, _ = read_records(runner.last_journal)
        assert bad == 0 and records == runner.records
        run_dir = os.path.dirname(runner.last_journal)
        assert os.listdir(run_dir) == ["journal.jsonl"]


class TestResolution:
    def test_load_by_run_id_dir_and_path(self, tmp_path):
        runner, _ = run_with_manifest(tmp_path)
        path = runner.last_journal
        run_dir = os.path.dirname(path)
        run_id = os.path.basename(run_dir)
        assert journal_path_for(path) == path
        assert journal_path_for(run_dir) == path
        assert journal_path_for(run_id, str(tmp_path)) == path
        assert RunRecord.load(path).run_id == run_id

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        with pytest.raises(JournalError) as err:
            journal_path_for("no-such-run", str(tmp_path))
        assert "no run journal found" in str(err.value)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(frame({"rec": "journal_header", "kind": "exec_run",
                               "schema": 999}))
        with pytest.raises(JournalError) as err:
            RunRecord.load(str(path))
        assert "schema 999" in str(err.value)
        assert f"{path}:1:" in str(err.value)

    @pytest.mark.parametrize("damage", ["cut", "list", "latin-1"])
    def test_damaged_manifest_is_a_named_error(self, tmp_path, damage):
        """A journal without an intact header is a JournalError for the
        readers that need one (compare, resume)."""
        runner, _ = run_with_manifest(tmp_path)
        path = runner.last_journal
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write({"cut": data[:100], "list": b"[1, 2]",
                      "latin-1": data.replace(b"exp-test", b"\xe9")}[damage])
        run = RunRecord.load(path)
        assert run.header is None and run.distrusted >= 1
        with pytest.raises(JournalError) as err:
            run.require_grid()
        assert path in str(err.value)

    def test_non_manifest_json_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(frame({"rec": "journal_header", "kind": "serve",
                               "schema": 1}))
        with pytest.raises(JournalError, match="not an engine run"):
            RunRecord.load(str(path))

    def test_runs_root_prefers_explicit_then_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNS_DIR", raising=False)
        assert runs_root() == os.path.join("results", "runs")
        monkeypatch.setenv("REPRO_RUNS_DIR", "/elsewhere")
        assert runs_root() == "/elsewhere"
        assert runs_root("/explicit") == "/explicit"


class TestIds:
    def test_run_ids_are_unique_and_tagged(self):
        first, second = new_run_id("figure2"), new_run_id("figure2")
        assert first != second
        assert "figure2" in first

    def test_fingerprint_is_jsonable(self):
        json.dumps(machine_fingerprint())

    @pytest.mark.parametrize("job", [
        SimJob.bar("compress", "ooo", "S10", 1, 0, policy="rrip"),
        SimJob.app("prefetch_schedule", "ora", "ooo", 1, 0),
        SimJob.access_control("ocean", "ECC", {"processors": 4})])
    def test_fold_labels_cells_as_the_engine_does(self, job):
        run = RunRecord()
        run.feed_text(frame({"rec": "run_start", "ts": 0.0, "jobs": [
            {"key": job.cache_key(), "job": job.to_dict()}]}))
        assert [c["label"] for c in run.cells.values()] == [job.label]
