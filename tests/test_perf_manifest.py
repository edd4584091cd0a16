"""Run-manifest store: engine hook, layout, provenance, resolution."""

import json
import os

import pytest

from repro.exec import ExecOptions, JobRunner, SimJob
from repro.perf import (
    MANIFEST_SCHEMA,
    ManifestError,
    config_digest,
    list_runs,
    load_manifest,
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


class TestEngineHook:
    def test_run_writes_manifest_json(self, tmp_path):
        runner, _ = run_with_manifest(tmp_path)
        assert runner.last_manifest is not None
        assert runner.last_manifest.endswith(os.path.join("", "manifest.json"))
        manifest = json.loads(open(runner.last_manifest).read())
        assert manifest["kind"] == "run_manifest"
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["experiment"] == "exp-test"
        assert manifest["argv"] == ["exp-test"]
        assert manifest["seed"] == 3
        assert manifest["status"] == "ok"
        assert manifest["workers"] == 1
        assert manifest["stats"]["finished"] == 2

    def test_manifest_cells_carry_walls_and_sim_stats(self, tmp_path):
        runner, results = run_with_manifest(tmp_path)
        manifest = json.loads(open(runner.last_manifest).read())
        cells = manifest["cells"]
        assert [c["label"] for c in cells] == ["a/m/L", "b/m/L"]
        for cell, result in zip(cells, results):
            assert cell["status"] == "ok"
            assert cell["cache"] == "off"
            assert cell["wall"] is not None and cell["wall"] >= 0
            assert cell["sim"] == result
            assert len(cell["key"]) == 16

    def test_manifest_records_machine_and_config_digest(self, tmp_path):
        runner, _ = run_with_manifest(tmp_path)
        manifest = json.loads(open(runner.last_manifest).read())
        fingerprint = manifest["machine"]
        assert set(fingerprint) >= {"platform", "python", "cpus"}
        keys = [make_job("a").cache_key(), make_job("b").cache_key()]
        assert manifest["config_digest"] == config_digest(keys)
        # Order-independent: the digest sorts the content addresses.
        assert config_digest(list(reversed(keys))) == config_digest(keys)

    def test_failed_run_still_writes_manifest(self, tmp_path):
        def boom(job):
            raise ValueError("broken payload")

        runner = JobRunner(
            ExecOptions(jobs=1, cache=False, retries=0,
                        manifest_dir=str(tmp_path)),
            execute=boom)
        with pytest.raises(Exception):
            runner.run([make_job("a")])
        manifest = json.loads(open(runner.last_manifest).read())
        assert manifest["status"] == "failed"
        assert "JobFailedError" in manifest["error"]
        assert manifest["cells"][0]["status"] == "unfinished"

    def test_no_manifest_dir_means_no_write(self, tmp_path):
        runner = JobRunner(ExecOptions(jobs=1, cache=False),
                           execute=echo_execute)
        runner.run([make_job("a")])
        assert runner.last_manifest is None
        assert list(tmp_path.iterdir()) == []

    def test_each_run_gets_its_own_manifest(self, tmp_path):
        runner, _ = run_with_manifest(tmp_path)
        first = runner.last_manifest
        runner.run([make_job("c")])
        assert runner.last_manifest != first
        assert len(list_runs(str(tmp_path))) == 2


class TestFold:
    """The manifest is a fold over the run's records."""

    def test_fold_of_the_journal_matches_the_written_manifest(self,
                                                              tmp_path):
        from repro.durable import read_records
        from repro.perf import fold_manifest

        runner, _ = run_with_manifest(tmp_path)
        with open(runner.last_manifest) as fh:
            written = json.load(fh)
        records, bad, _ = read_records(runner.last_journal)
        assert bad == 0 and records == runner.records
        folded = fold_manifest(records)
        for field in ("run_id", "experiment", "argv", "seed", "git_sha",
                      "config_digest", "status", "cells"):
            assert folded[field] == written[field], field

    def test_enospc_journal_still_gets_a_complete_manifest(self, tmp_path):
        """A journal that fills the disk mid-run loses its tail, but the
        manifest is folded from memory and stays complete."""
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
        with open(runner.last_manifest) as fh:
            manifest = json.load(fh)
        assert manifest["status"] == "ok"
        assert [cell["sim"] for cell in manifest["cells"]] == results
        assert manifest["stats"]["finished"] == 2
        assert manifest["stats"]["journal_errors"] == 1
        assert runner.stats.journal_errors == 1
        records, _, _ = read_records(manifest["journal_path"])
        assert [r["rec"] for r in records] == ["journal_header",
                                               "run_start"]


class TestResolution:
    def test_load_by_run_id_dir_and_path(self, tmp_path):
        runner, _ = run_with_manifest(tmp_path)
        path = runner.last_manifest
        run_dir = os.path.dirname(path)
        run_id = os.path.basename(run_dir)
        by_path = load_manifest(path)
        assert load_manifest(run_dir) == by_path
        assert load_manifest(run_id, root=str(tmp_path)) == by_path
        assert by_path["run_id"] == run_id

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        with pytest.raises(ManifestError) as err:
            load_manifest("no-such-run", root=str(tmp_path))
        assert "no manifest found" in str(err.value)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(
            {"kind": "run_manifest", "schema": 999}))
        with pytest.raises(ManifestError) as err:
            load_manifest(str(path))
        assert "schema 999" in str(err.value)

    @pytest.mark.parametrize("damage", ["cut", "list", "latin-1"])
    def test_damaged_manifest_is_a_named_error(self, tmp_path, damage):
        """A file that is not a UTF-8 JSON object is a ManifestError."""
        runner, _ = run_with_manifest(tmp_path)
        path = runner.last_manifest
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write({"cut": data[:300], "list": b"[1, 2]",
                      "latin-1": data.replace(b"exp-test", b"\xe9")}[damage])
        with pytest.raises(ManifestError) as err:
            load_manifest(path)
        assert path in str(err.value)

    def test_non_manifest_json_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ManifestError):
            load_manifest(str(path))

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
