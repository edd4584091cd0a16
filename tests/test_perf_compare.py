"""Cross-run comparison: digit-exact sim diffing, bootstrap walls, CLI."""

import json

import pytest

from repro.durable import frame, header_record
from repro.exec import SimJob
from repro.perf import RunRecord
from repro.perf.compare import (
    bootstrap_ci,
    classify_ratio,
    compare_bench,
    compare_main,
    compare_runs,
)


def run_records(walls, sims=None, run_id="run", benchmark="compress",
                key="k", digests=None):
    """The journal records of a finished run with controlled cells."""
    keys = [f"{key}{index:015d}" for index in range(len(walls))]
    jobs = [SimJob.bar(benchmark=benchmark, machine="ooo",
                       label=f"S{index}", instructions=1, warmup=0)
            for index in range(len(walls))]
    records = [header_record("exec_run", run_id=run_id,
                             experiment="figure2", seed=0, workers=1,
                             jobs=len(walls), ts=0.0),
               {"rec": "run_start", "ts": 0.0,
                "jobs": [{"key": k, "job": job.to_dict()}
                         for k, job in zip(keys, jobs)]}]
    for index, (k, job, wall) in enumerate(zip(keys, jobs, walls)):
        finish = {"rec": "job_finish", "key": k, "label": job.label,
                  "ts": 1.0, "attempt": 0, "wall": wall, "cache": "miss",
                  "sim": (sims[index] if sims is not None
                          else {"cycles": 100 + index})}
        if digests is not None:
            finish["metrics_digest"] = digests[index]
        records.append(finish)
    records.append({"rec": "run_end", "ts": 2.0, "status": "ok",
                    "stats": {}})
    return records


def fold(records):
    run = RunRecord()
    run.feed_text("".join(frame(record) for record in records))
    run.close()
    return run


def make_run(walls, **fields):
    """A folded, finished run with controlled cells."""
    return fold(run_records(walls, **fields))


def write_run(root, run_id, records):
    """Write *records* as ``<root>/<run_id>/journal.jsonl``."""
    directory = root / run_id
    directory.mkdir(parents=True)
    path = directory / "journal.jsonl"
    path.write_text("".join(frame(record) for record in records))
    return str(path)


class TestBootstrap:
    def test_deterministic_for_a_seed(self):
        samples = [1.0, 1.1, 0.9, 1.05, 0.95]
        assert bootstrap_ci(samples, seed=7) == bootstrap_ci(samples, seed=7)

    def test_single_sample_degenerates_to_point(self):
        assert bootstrap_ci([1.2]) == (1.2, 1.2, 1.2)

    def test_ci_brackets_the_mean(self):
        mean, lo, hi = bootstrap_ci([0.9, 1.0, 1.1, 1.0, 0.95, 1.05])
        assert lo <= mean <= hi

    def test_classify_no_change_when_ci_straddles_one(self):
        assert classify_ratio(1.05, 0.97, 1.12) == "no change"
        assert classify_ratio(1.5, 1.4, 1.6) == "regression"
        assert classify_ratio(1.15, 1.12, 1.18) == "warn"
        assert classify_ratio(0.8, 0.75, 0.85) == "faster"
        assert classify_ratio(1.05, 1.02, 1.08) == "slower (within threshold)"


class TestManifestMode:
    def test_identical_runs_are_digit_exact_no_change(self):
        a = make_run([0.5, 0.5, 0.5, 0.5], run_id="a")
        b = make_run([0.51, 0.49, 0.5, 0.505], run_id="b")
        report = compare_runs(a, b)
        assert report["sim_drift"] == []
        assert report["compared_cells"] == 4
        assert report["wall"]["overall"]["verdict"] == "no change"
        assert report["verdict"] == "ok"

    def test_sim_drift_is_a_correctness_alarm(self):
        a = make_run([0.5, 0.5])
        b = make_run([0.5, 0.5], sims=[{"cycles": 100}, {"cycles": 999}])
        report = compare_runs(a, b)
        assert report["verdict"] == "sim drift"
        assert report["sim_drift"] == [
            {"label": "compress/ooo/S1", "field": "cycles",
             "a": 101, "b": 999}]

    def test_uniform_slowdown_is_a_regression(self):
        a = make_run([0.5] * 6)
        b = make_run([0.7] * 6)  # 1.4x across every cell
        report = compare_runs(a, b)
        assert report["wall"]["overall"]["verdict"] == "regression"
        assert report["verdict"] == "regression"

    def test_cache_hits_are_excluded_from_wall_stats(self):
        a, b = run_records([0.5, 0.5]), run_records([0.5, 0.5])
        for records in (a, b):
            records[2].update(cache="hit", wall=0.0)
        report = compare_runs(fold(a), fold(b))
        assert report["wall"]["overall"]["cells"] == 1

    def test_differing_config_digests_are_noted(self):
        a = make_run([0.5], key="one")
        b = make_run([0.5], key="two")
        report = compare_runs(a, b)
        assert any("config digests differ" in note
                   for note in report["notes"])

    def test_per_benchmark_grouping(self):
        a = make_run([0.5, 0.5])
        b = make_run([0.5, 0.5])
        report = compare_runs(a, b)
        assert set(report["wall"]["benchmarks"]) == {"compress"}

    def test_unfinished_cells_of_a_killed_run_are_noted(self):
        killed = run_records([0.5, 0.5, 0.5])[:3]  # one finish, no end
        report = compare_runs(make_run([0.5, 0.5, 0.5]), fold(killed))
        assert report["verdict"] == "ok"
        assert report["compared_cells"] == 1
        assert any("2 cell(s) not finished in B (2 queued"
                   in note for note in report["notes"])


class TestBenchMode:
    def test_hotpath_style_thresholds(self):
        a = {"schema": 1, "microbenchmarks": {
            "timings": {"fast": 0.10, "slow": 0.10, "warn": 0.10}}}
        b = {"schema": 1, "microbenchmarks": {
            "timings": {"fast": 0.09, "slow": 0.20, "warn": 0.115}}}
        report = compare_bench(a, b)
        verdicts = {row["name"]: row["verdict"]
                    for row in report["timings"]}
        assert verdicts == {"micro/fast": "faster",
                            "micro/slow": "regression",
                            "micro/warn": "warn"}
        assert report["verdict"] == "regression"

    def test_missing_names_are_noted_not_fatal(self):
        a = {"schema": 1, "microbenchmarks": {"timings": {"x": 1.0}}}
        b = {"schema": 1, "microbenchmarks": {"timings": {"y": 1.0}}}
        report = compare_bench(a, b)
        assert report["timings"] == []
        assert len(report["notes"]) == 2


class TestTraceDirMode:
    """A ``--trace-events`` run's cells carry the digest of their
    metrics.json; run mode compares it digit-exact, like ``sim``."""

    def test_identical_dirs_are_exact(self):
        a = make_run([0.5], digests=["d" * 64])
        b = make_run([0.5], digests=["d" * 64])
        report = compare_runs(a, b)
        assert report["verdict"] == "ok"
        assert report["compared_cells"] == 1

    def test_metric_drift_detected(self):
        a = make_run([0.5, 0.5], digests=["d" * 64, "e" * 64])
        b = make_run([0.5, 0.5], digests=["d" * 64, "f" * 64])
        report = compare_runs(a, b)
        assert report["verdict"] == "sim drift"
        assert report["sim_drift"] == [
            {"label": "compress/ooo/S1", "field": "metrics_digest",
             "a": "e" * 64, "b": "f" * 64}]
        # One side untraced: nothing to compare, no drift.
        report = compare_runs(a, make_run([0.5, 0.5]))
        assert report["verdict"] == "ok"


class TestCLI:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_manifest_compare_exit_codes_and_json(self, tmp_path, capsys):
        a = write_run(tmp_path, "a", run_records([0.5, 0.5], run_id="a"))
        b = write_run(tmp_path, "b", run_records([0.5, 0.5], run_id="b"))
        assert compare_main([a, b, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "ok"
        assert report["sim_drift"] == []
        # Run ids under --runs-root and run directories resolve alike.
        assert compare_main(["a", str(tmp_path / "b"), "--json",
                             "--runs-root", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out) == report

    def test_sim_drift_fails_the_cli(self, tmp_path, capsys):
        a = write_run(tmp_path, "a", run_records([0.5]))
        drifted = run_records([0.5], sims=[{"cycles": 42}])
        b = write_run(tmp_path, "b", drifted)
        assert compare_main([a, b]) == 1
        assert "DRIFTING" in capsys.readouterr().out

    def test_a_failed_cell_is_a_note_not_drift(self, tmp_path, capsys):
        """A cell that failed without a sanitizer violation (an
        exception, a serial timeout) is ``failed`` in the one fold, so
        compare notes it instead of calling its missing stats drift."""
        a = write_run(tmp_path, "a", run_records([0.5, 0.5], run_id="a"))
        records = run_records([0.5, 0.5], run_id="b")
        records[3] = {"rec": "job_fail", "key": records[3]["key"],
                      "label": records[3]["label"], "ts": 1.0,
                      "attempt": 0, "error": "timeout"}
        records[-1].update(status="failed", error="JobTimeoutError: slow")
        b = write_run(tmp_path, "b", records)
        assert compare_main([a, b, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["verdict"], report["sim_drift"]) == ("ok", [])
        assert report["compared_cells"] == 1
        assert any("1 cell(s) not finished in B (1 failed"
                   in note for note in report["notes"])

    def test_bench_compare_via_cli(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", {
            "schema": 1, "microbenchmarks": {"timings": {"x": 0.1}}})
        b = self._write(tmp_path, "b.json", {
            "schema": 1, "microbenchmarks": {"timings": {"x": 0.3}}})
        assert compare_main([a, b]) == 1
        out = capsys.readouterr().out
        assert "regression" in out
        assert compare_main([a, b, "--fail-above", "100"]) == 0
        capsys.readouterr()

    def test_mixed_modes_rejected(self, tmp_path, capsys):
        a = write_run(tmp_path, "a", run_records([0.5]))
        b = self._write(tmp_path, "b.json", {
            "schema": 1, "microbenchmarks": {"timings": {"x": 0.1}}})
        assert compare_main([a, b]) == 2
        assert "cannot compare" in capsys.readouterr().out

    def test_unknown_manifest_schema_is_exit_2(self, tmp_path, capsys):
        records = run_records([0.5])
        records[0]["schema"] = 999
        bad = write_run(tmp_path, "bad", records)
        good = write_run(tmp_path, "good", run_records([0.5]))
        assert compare_main([bad, good]) == 2
        assert "schema 999" in capsys.readouterr().out

    def test_damaged_manifest_is_exit_2(self, tmp_path, capsys):
        """Exit 1 means a regression; a journal cut inside its header is
        a named error."""
        for run_id in ("a", "b"):
            write_run(tmp_path, run_id, run_records([0.5, 0.5],
                                                    run_id=run_id))
        cut = tmp_path / "b" / "journal.jsonl"
        cut.write_bytes(cut.read_bytes()[:40])
        assert compare_main(["a", "b", "--runs-root", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("compare: error: ")
        assert f"{cut} does not lead with an intact" in out

    def test_manifest_with_string_cells_is_exit_2(self, tmp_path, capsys):
        for run_id in ("a", "b"):
            records = run_records([0.5], run_id=run_id)
            if run_id == "b":
                records[1]["jobs"] = "damaged"
            write_run(tmp_path, run_id, records)
        assert compare_main(["a", "b", "--runs-root", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("compare: error: ")
        assert "journal.jsonl:2: run_start.jobs is not a list" in out

    def test_bench_against_a_json_list_is_exit_2(self, tmp_path, capsys):
        bench = self._write(tmp_path, "bench.json", {
            "schema": 1, "microbenchmarks": {"timings": {"x": 0.1}}})
        listed = self._write(tmp_path, "list.json", [1, 2])
        assert compare_main([bench, listed]) == 2
        out = capsys.readouterr().out
        assert out.startswith("compare: error: ")
        assert "list.json is not a JSON object" in out

    def test_bench_with_a_list_of_microbenchmarks_is_exit_2(self, tmp_path,
                                                             capsys):
        good = self._write(tmp_path, "good.json", {
            "schema": 1, "microbenchmarks": {"timings": {"x": 0.1}}})
        bad = self._write(tmp_path, "bad.json", {
            "schema": 1, "microbenchmarks": [{"x": 0.1}]})
        assert compare_main([good, bad]) == 2
        out = capsys.readouterr().out
        assert out.startswith("compare: error: ")
        assert "bad.json: microbenchmarks is not an object" in out

    def test_bench_with_a_string_timing_is_exit_2(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.json", {
            "schema": 1, "microbenchmarks": {"timings": {"x": 0.1}}})
        bad = self._write(tmp_path, "bad.json", {
            "schema": 1, "microbenchmarks": {"timings": {"x": "0.1"}}})
        assert compare_main([bad, good]) == 2
        out = capsys.readouterr().out
        assert out.startswith("compare: error: ")
        assert ("bad.json: microbenchmarks.timings.x is '0.1', not a "
                "number of seconds") in out

    def test_bench_with_no_shared_timing_is_exit_2(self, tmp_path, capsys):
        """Exit 1 means a regression; a gate that compared nothing says
        so and does not pass."""
        good = self._write(tmp_path, "good.json", {
            "schema": 1, "microbenchmarks": {"timings": {"x": 0.1}}})
        empty = self._write(tmp_path, "empty.json", {
            "schema": 1, "microbenchmarks": {"timings": {}}})
        assert compare_main([good, empty, "--fail-above", "1.25"]) == 2
        out = capsys.readouterr().out
        assert "no timing is present in both snapshots" in out
        assert "verdict: NOTHING COMPARED" in out

    def test_trace_dir_mode_via_cli(self, tmp_path, capsys):
        """Traced runs compare their metrics digests through the run
        mode; ``--trace-dir`` is gone."""
        digests = ["d" * 64]
        a = write_run(tmp_path, "a", run_records([0.5], digests=digests))
        b = write_run(tmp_path, "b", run_records([0.5], digests=digests))
        assert compare_main([a, b]) == 0
        assert "digit-exact" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            compare_main([a, b, "--trace-dir"])
        assert exc.value.code == 2
