"""Cross-run comparison: digit-exact sim diffing, bootstrap walls, CLI."""

import json

from repro.perf.compare import (
    bootstrap_ci,
    classify_ratio,
    compare_bench,
    compare_main,
    compare_manifests,
    compare_trace_dirs,
)
from repro.perf.manifest import MANIFEST_KIND, MANIFEST_SCHEMA


def make_manifest(walls, sims=None, run_id="run", benchmark="compress",
                  config_digest="cfg"):
    """A minimal but schema-valid manifest with controlled cells."""
    cells = []
    for index, wall in enumerate(walls):
        sim = (sims[index] if sims is not None
               else {"cycles": 100 + index})
        cells.append({
            "label": f"{benchmark}/ooo/S{index}",
            "key": f"k{index:015d}",
            "kind": "bar",
            "benchmark": benchmark,
            "machine": "ooo",
            "status": "ok",
            "cache": "miss",
            "wall": wall,
            "attempts": 0,
            "sim": sim,
            "metrics_digest": None,
        })
    return {
        "kind": MANIFEST_KIND, "schema": MANIFEST_SCHEMA,
        "run_id": run_id, "experiment": "figure2", "argv": None,
        "seed": 0, "git_sha": None, "written": 0.0, "machine": {},
        "config_digest": config_digest, "workers": 1,
        "cache_enabled": False, "telemetry_path": None, "status": "ok",
        "error": None, "stats": {}, "cells": cells,
    }


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
        a = make_manifest([0.5, 0.5, 0.5, 0.5], run_id="a")
        b = make_manifest([0.51, 0.49, 0.5, 0.505], run_id="b")
        report = compare_manifests(a, b)
        assert report["sim_drift"] == []
        assert report["compared_cells"] == 4
        assert report["wall"]["overall"]["verdict"] == "no change"
        assert report["verdict"] == "ok"

    def test_sim_drift_is_a_correctness_alarm(self):
        a = make_manifest([0.5, 0.5])
        b = make_manifest([0.5, 0.5],
                          sims=[{"cycles": 100}, {"cycles": 999}])
        report = compare_manifests(a, b)
        assert report["verdict"] == "sim drift"
        assert report["sim_drift"] == [
            {"label": "compress/ooo/S1", "field": "cycles",
             "a": 101, "b": 999}]

    def test_uniform_slowdown_is_a_regression(self):
        a = make_manifest([0.5] * 6)
        b = make_manifest([0.7] * 6)  # 1.4x across every cell
        report = compare_manifests(a, b)
        assert report["wall"]["overall"]["verdict"] == "regression"
        assert report["verdict"] == "regression"

    def test_cache_hits_are_excluded_from_wall_stats(self):
        a = make_manifest([0.5, 0.5])
        b = make_manifest([0.5, 0.5])
        a["cells"][0]["cache"] = b["cells"][0]["cache"] = "hit"
        a["cells"][0]["wall"] = b["cells"][0]["wall"] = 0.0
        report = compare_manifests(a, b)
        assert report["wall"]["overall"]["cells"] == 1

    def test_differing_config_digests_are_noted(self):
        a = make_manifest([0.5], config_digest="one")
        b = make_manifest([0.5], config_digest="two")
        report = compare_manifests(a, b)
        assert any("config digests differ" in note
                   for note in report["notes"])

    def test_per_benchmark_grouping(self):
        a = make_manifest([0.5, 0.5])
        b = make_manifest([0.5, 0.5])
        report = compare_manifests(a, b)
        assert set(report["wall"]["benchmarks"]) == {"compress"}


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
    def _write_metrics(self, directory, stem, payload):
        directory.mkdir(exist_ok=True)
        (directory / f"{stem}.metrics.json").write_text(json.dumps(payload))

    def test_identical_dirs_are_exact(self, tmp_path):
        payload = {"metrics": {"counters": {"l1.hit": 5}}, "events": 9}
        self._write_metrics(tmp_path / "a", "cell", payload)
        self._write_metrics(tmp_path / "b", "cell", payload)
        report = compare_trace_dirs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert report["verdict"] == "ok"
        assert report["compared_cells"] == 1

    def test_metric_drift_detected(self, tmp_path):
        self._write_metrics(tmp_path / "a", "cell",
                            {"metrics": {"counters": {"l1.hit": 5}}})
        self._write_metrics(tmp_path / "b", "cell",
                            {"metrics": {"counters": {"l1.hit": 6}}})
        report = compare_trace_dirs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert report["verdict"] == "sim drift"
        assert report["sim_drift"][0]["field"] == "metrics"


class TestCLI:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_manifest_compare_exit_codes_and_json(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", make_manifest([0.5, 0.5]))
        b = self._write(tmp_path, "b.json", make_manifest([0.5, 0.5]))
        assert compare_main([a, b, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "ok"
        assert report["sim_drift"] == []

    def test_sim_drift_fails_the_cli(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", make_manifest([0.5]))
        drifted = make_manifest([0.5], sims=[{"cycles": 42}])
        b = self._write(tmp_path, "b.json", drifted)
        assert compare_main([a, b]) == 1
        assert "DRIFTING" in capsys.readouterr().out

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
        a = self._write(tmp_path, "a.json", make_manifest([0.5]))
        b = self._write(tmp_path, "b.json", {
            "schema": 1, "microbenchmarks": {"timings": {"x": 0.1}}})
        assert compare_main([a, b]) == 2
        assert "cannot compare" in capsys.readouterr().out

    def test_unknown_manifest_schema_is_exit_2(self, tmp_path, capsys):
        bad = self._write(tmp_path, "bad.json",
                          {"kind": MANIFEST_KIND, "schema": 999})
        good = self._write(tmp_path, "good.json", make_manifest([0.5]))
        assert compare_main([bad, good]) == 2
        assert "schema 999" in capsys.readouterr().out

    def test_damaged_manifest_is_exit_2(self, tmp_path, capsys):
        """Exit 1 means a regression; a cut manifest is a named error."""
        for run_id in ("a", "b"):
            (tmp_path / run_id).mkdir()
            (tmp_path / run_id / "manifest.json").write_text(
                json.dumps(make_manifest([0.5, 0.5], run_id=run_id)))
        cut = tmp_path / "b" / "manifest.json"
        cut.write_bytes(cut.read_bytes()[:300])
        assert compare_main(["a", "b", "--runs-root", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("compare: error: ")
        assert "manifest.json is not a JSON manifest" in out

    def test_manifest_with_string_cells_is_exit_2(self, tmp_path, capsys):
        for run_id in ("a", "b"):
            (tmp_path / run_id).mkdir()
            manifest = make_manifest([0.5], run_id=run_id)
            if run_id == "b":
                manifest["cells"] = "damaged"
            (tmp_path / run_id / "manifest.json").write_text(
                json.dumps(manifest))
        assert compare_main(["a", "b", "--runs-root", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("compare: error: ")
        assert "'cells' is not a list of objects" in out

    def test_bench_against_a_json_list_is_exit_2(self, tmp_path, capsys):
        bench = self._write(tmp_path, "bench.json", {
            "schema": 1, "microbenchmarks": {"timings": {"x": 0.1}}})
        listed = self._write(tmp_path, "list.json", [1, 2])
        assert compare_main([bench, listed]) == 2
        out = capsys.readouterr().out
        assert out.startswith("compare: error: ")
        assert "list.json is not a JSON object" in out

    def test_trace_dir_mode_via_cli(self, tmp_path, capsys):
        for side in ("a", "b"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "cell.metrics.json").write_text(
                json.dumps({"metrics": {"counters": {}}}))
        assert compare_main([str(tmp_path / "a"), str(tmp_path / "b"),
                             "--trace-dir"]) == 0
        assert "digit-exact" in capsys.readouterr().out
