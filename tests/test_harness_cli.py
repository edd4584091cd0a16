"""Integration tests for the CLI entry point (quick mode)."""

import json

import pytest

from repro.harness.__main__ import main


class TestCLITables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "out-of-order" in out and "in-order" in out
        assert "2MB" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "900 cycles" in out
        assert "33-cycle lookup" in out


class TestCLIExperiments:
    def test_figure2_subset_with_json(self, capsys, tmp_path):
        path = tmp_path / "f2.json"
        assert main(["figure2", "--quick", "--benchmarks", "espresso",
                     "--json", str(path), "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "espresso" in out
        data = json.loads(path.read_text())
        assert data["name"] == "figure2"
        labels = {bar["label"] for bar in data["bars"]}
        assert labels == {"N", "S1", "U1", "S10", "U10"}

    def test_characterize(self, capsys):
        assert main(["characterize", "--quick",
                     "--benchmarks", "ora"]) == 0
        out = capsys.readouterr().out
        assert "memory fraction" in out

    def test_handler100_quick(self, capsys):
        assert main(["handler100", "--quick", "--no-cache"]) == 0
        assert "S100" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure9"])

    @pytest.mark.parametrize("argv,named", [
        (["figure2", "--quick", "--benchmarks", "x.json"], "espresso"),
        (["characterize", "--quick", "--benchmarks", "nope"], "espresso"),
        (["figure4", "--benchmarks", "nope"], "read_mostly"),
        (["sensitivity", "--benchmarks", "compress"], "read_mostly"),
        (["figure3", "--quick", "--benchmarks", "su2cor"], "figure3"),
    ], ids=["figure2", "characterize", "figure4", "sensitivity", "figure3"])
    def test_bad_benchmarks_rejected_before_running(self, argv, named,
                                                    capsys):
        """Unknown names, and the flag on an experiment that runs a
        fixed set, are usage errors that list what is valid."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--no-cache", "--no-manifest"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--benchmarks" in err and named in err


class TestCLIEngineFlags:
    F2 = ["figure2", "--quick", "--benchmarks", "espresso"]

    def run_json(self, args, tmp_path, name="out.json"):
        path = tmp_path / name
        assert main(args + ["--json", str(path)]) == 0
        return json.loads(path.read_text())

    def test_jobs_parallel_matches_serial(self, capsys, tmp_path):
        serial = self.run_json(
            self.F2 + ["--jobs", "1", "--no-cache"],
            tmp_path, "serial.json")
        parallel = self.run_json(
            self.F2 + ["--jobs", "4", "--no-cache"],
            tmp_path, "parallel.json")
        assert serial == parallel
        capsys.readouterr()

    def test_cache_round_trip_reports_hits(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(self.F2) == 0
        cold = capsys.readouterr().out
        assert "0 hits" in cold
        assert main(self.F2) == 0
        warm = capsys.readouterr().out
        assert "10 hits / 0 misses (100% hit rate)" in warm

    def test_seed_flag_changes_results(self, capsys, tmp_path):
        base = self.run_json(
            self.F2 + ["--no-cache"], tmp_path, "s0.json")
        seeded = self.run_json(
            self.F2 + ["--no-cache", "--seed", "9"],
            tmp_path, "s9.json")
        assert base != seeded
        capsys.readouterr()

    def test_seed_rejected_for_non_workload_experiments(self):
        with pytest.raises(SystemExit):
            main(["table1", "--seed", "5"])

    def test_run_journal_written(self, capsys, tmp_path, monkeypatch):
        from repro.durable import read_records

        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        assert main(self.F2 + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        journals = list(runs.glob("*/journal.jsonl"))
        assert len(journals) == 1
        # Announced as the run starts, so a second terminal can attach
        # ``watch --follow`` before the figure is done.
        assert f"run journal: {journals[0]}" in out
        assert out.index("run journal:") < out.index("Figure 2")
        records, bad, _ = read_records(str(journals[0]))
        header, records = records[0], records[1:]
        assert bad == 0
        assert header["experiment"] == "figure2"
        assert {r["rec"] for r in records} == {"run_start", "job_start",
                                               "job_finish", "run_end"}

    def test_trace_flag_is_gone(self):
        with pytest.raises(SystemExit):
            main(self.F2 + ["--no-cache", "--trace", "t.jsonl"])

    def test_manifest_written_by_default(self, capsys, tmp_path,
                                         monkeypatch):
        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        assert main(self.F2 + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "run manifest:" in out
        manifests = list(runs.glob("*/manifest.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["experiment"] == "figure2"
        assert manifest["argv"][0] == "figure2"
        assert len(manifest["cells"]) == 10

    def test_no_manifest_flag_suppresses_write(self, capsys, tmp_path,
                                               monkeypatch):
        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        assert main(self.F2 + ["--no-cache", "--no-manifest"]) == 0
        out = capsys.readouterr().out
        assert "run manifest:" not in out
        assert not runs.exists()

    def test_bench_flags_are_gone(self, capsys, tmp_path, monkeypatch):
        """A figure run writes no timing file into the working directory,
        and the flag that used to skip it is an error."""
        monkeypatch.chdir(tmp_path)
        assert main(self.F2 + ["--no-cache"]) == 0
        assert list(tmp_path.rglob("BENCH_*")) == []
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(self.F2 + ["--no-cache", "--no-bench"])
        assert exit_info.value.code == 2

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(self.F2 + ["--jobs", "0"])


class TestCLIJsonEverywhere:
    """--json must work (not silently no-op) for every experiment."""

    def test_handler100_json(self, capsys, tmp_path):
        path = tmp_path / "h100.json"
        assert main(["handler100", "--quick", "--no-cache",
                     "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert {bar["label"] for bar in data["bars"]} == {"N", "S100"}
        capsys.readouterr()

    def test_cc_vs_trap_json(self, capsys, tmp_path):
        path = tmp_path / "cc.json"
        assert main(["cc-vs-trap", "--quick", "--no-cache",
                     "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert {bar["label"] for bar in data["bars"]} == {"N", "CC1", "U1"}
        capsys.readouterr()

    def test_branch_vs_exception_json(self, capsys, tmp_path):
        path = tmp_path / "bve.json"
        assert main(["branch-vs-exception", "--quick", "--no-cache",
                     "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert "E10" in {bar["label"] for bar in data["bars"]}
        capsys.readouterr()

    def test_table1_json(self, capsys, tmp_path):
        path = tmp_path / "t1.json"
        assert main(["table1", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["ooo"]["core"]["issue_width"] == 4
        capsys.readouterr()

    def test_table2_json(self, capsys, tmp_path):
        path = tmp_path / "t2.json"
        assert main(["table2", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["machine"]["message_latency"] == 900
        assert "INFORMING" in data["method_costs"]
        capsys.readouterr()

    def test_sensitivity_json(self, capsys, tmp_path):
        path = tmp_path / "sens.json"
        assert main(["sensitivity", "--no-cache",
                     "--benchmarks", "read_mostly",
                     "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert len(data["points"]) >= 4
        assert {"message_latency", "l1_size", "reference_checking",
                "ecc"} <= set(data["points"][0])
        capsys.readouterr()

    def test_characterize_json(self, capsys, tmp_path):
        path = tmp_path / "char.json"
        assert main(["characterize", "--quick", "--benchmarks", "ora",
                     "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["ora"]["instructions"] == 10_000
        assert 0.0 < data["ora"]["mem_fraction"] < 1.0
        capsys.readouterr()
