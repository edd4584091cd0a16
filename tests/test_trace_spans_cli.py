"""``harness spans``: tree reconstruction, critical path, self time,
anomalies, resolution, --check and the exports."""

import json

import pytest

from repro.durable import frame
from repro.harness.spans_cli import (
    analyze,
    build_tree,
    critical_path,
    find_anomalies,
    group_by_trace,
    percentile,
    run_checks,
    self_times,
    spans_main,
)

TRACE = "ab" * 16


def span(span_id, name, start, end, parent=None, pid=1, trace=TRACE,
         **attrs):
    record = {"rec": "span", "ts": end, "trace_id": trace,
              "span_id": span_id, "name": name, "start": start,
              "end": end, "status": "ok", "pid": pid}
    if parent:
        record["parent_id"] = parent
    if attrs:
        record["attrs"] = attrs
    return record


def write_spans(path, records):
    """Write *records* as a crc-framed journal (as the engine does)."""
    with open(path, "w") as fh:
        fh.write("".join(frame(record) for record in records))
    return str(path)


def request_shaped_records():
    """A serve-shaped trace: http.request -> dispatch -> run -> jobs."""
    return [
        # Root's parent lives in the client process: never flushed here.
        span("r0", "http.request", 0.0, 10.0, parent="cccccccccccccccc"),
        span("p1", "request.parse", 0.1, 0.2, parent="r0"),
        span("d1", "dispatch", 0.5, 9.5, parent="r0"),
        span("e1", "run", 0.6, 9.4, parent="d1", pid=2),
        # two overlapping pool jobs: only the longer is critical
        span("j1", "job", 1.0, 5.0, parent="e1", pid=2, label="a",
             mode="pool"),
        span("j2", "job", 1.0, 9.0, parent="e1", pid=2, label="b",
             mode="pool"),
        span("s2", "sim.execute", 1.2, 8.8, parent="j2", pid=3,
             label="b"),
    ]


class TestTreeAndPath:
    def test_foreign_parent_makes_the_span_a_root(self):
        tree = build_tree(request_shaped_records())
        assert [r["span_id"] for r in tree["roots"]] == ["r0"]
        assert [k["span_id"] for k in tree["children"]["r0"]] == \
            ["p1", "d1"]

    def test_critical_path_telescopes_to_root_duration(self):
        tree = build_tree(request_shaped_records())
        path = critical_path(tree, tree["roots"][0])
        total = sum(hop["self"] for hop in path)
        assert total == pytest.approx(10.0)
        names = [hop["record"]["name"] for hop in path]
        # The fully-overlapped short job never makes it; the longer one
        # (and the pre-dispatch parse, which held its own window) do.
        assert names.count("job") == 1
        assert "request.parse" in names
        critical_job = [hop["record"] for hop in path
                        if hop["record"]["name"] == "job"]
        assert critical_job[0]["span_id"] == "j2"

    def test_deep_chain_attribution(self):
        records = [
            span("a", "outer", 0.0, 10.0),
            span("b", "mid", 1.0, 9.0, parent="a"),
            span("c", "inner", 2.0, 8.0, parent="b"),
        ]
        tree = build_tree(records)
        path = critical_path(tree, tree["roots"][0])
        contrib = {hop["record"]["name"]: hop["self"] for hop in path}
        assert contrib["outer"] == pytest.approx(2.0)
        assert contrib["mid"] == pytest.approx(2.0)
        assert contrib["inner"] == pytest.approx(6.0)

    def test_self_time_subtracts_children_interval_union(self):
        records = [
            span("a", "outer", 0.0, 10.0),
            # overlapping children: union is [1, 6], not 5 + 3
            span("b", "kid", 1.0, 5.0, parent="a"),
            span("c", "kid", 3.0, 6.0, parent="a"),
        ]
        table = self_times(build_tree(records))
        assert table["outer"]["self"] == pytest.approx(5.0)
        assert table["kid"]["total"] == pytest.approx(7.0)
        assert table["kid"]["count"] == 2


class TestAnomalies:
    def test_percentile_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
        assert percentile([5.0], 0.99) == 5.0
        assert percentile([], 0.5) == 0.0

    def test_small_groups_are_never_flagged(self):
        records = [span(f"s{i}", "job", 0.0, 1.0 + i) for i in range(5)]
        assert find_anomalies(records) == []

    def test_outlier_beyond_p99_is_flagged(self):
        records = [span(f"s{i}", "job", 0.0, 0.010) for i in range(11)]
        records.append(span("slow", "job", 0.0, 5.0, label="worst"))
        flagged = find_anomalies(records)
        assert [f["span_id"] for f in flagged] == ["slow"]
        assert flagged[0]["label"] == "worst"
        assert flagged[0]["duration"] > flagged[0]["p99"]


class TestChecks:
    def test_connected_multi_process_trace_passes(self):
        analysis = analyze(request_shaped_records())
        analysis.pop("_tree")
        assert run_checks(analysis, expect_processes=3, wall=10.0,
                          tolerance=0.1) == []

    def test_disconnected_trace_fails(self):
        records = request_shaped_records()
        records.append(span("x9", "orphan", 0.0, 1.0,
                            parent="ffffffffffffffff"))
        analysis = analyze(records)
        analysis.pop("_tree")
        failures = run_checks(analysis, 1, None, 0.5)
        assert any("roots" in f for f in failures)

    def test_process_count_and_wall_violations(self):
        analysis = analyze(request_shaped_records())
        analysis.pop("_tree")
        failures = run_checks(analysis, expect_processes=4, wall=100.0,
                              tolerance=0.1)
        assert len(failures) == 2


class TestCli:
    def test_run_id_resolution_and_check(self, tmp_path, monkeypatch,
                                         capsys):
        from repro.exec import ExecOptions, JobRunner, SimJob

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        runner = JobRunner(ExecOptions(
            cache=False, trace_sample=1.0,
            manifest_dir=str(tmp_path / "runs")))
        runner.run([SimJob.bar(benchmark="compress", machine="ooo",
                               label="S10", instructions=800, warmup=200,
                               seed=0)])
        assert spans_main([runner.last_run_id, "--check"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "manifest cross-check" in out
        assert "checks passed" in out

    def test_run_directory_resolves_to_its_run_journal(self, tmp_path,
                                                       capsys):
        import os

        from repro.exec import ExecOptions, JobRunner, SimJob

        runner = JobRunner(ExecOptions(
            cache=False, trace_sample=1.0,
            manifest_dir=str(tmp_path / "runs")))
        runner.run([SimJob.bar(benchmark="compress", machine="ooo",
                               label="S10", instructions=800, warmup=200,
                               seed=0)])
        run_dir = os.path.dirname(runner.last_journal)
        assert spans_main([run_dir, "--check"]) == 0
        out = capsys.readouterr().out
        assert f"{runner.last_journal} (run {runner.last_run_id})" in out
        assert "manifest cross-check: 1 cell(s), 0 suspect" in out

    def test_json_and_exports(self, tmp_path, capsys):
        path = write_spans(tmp_path / "journal.jsonl",
                           request_shaped_records())
        chrome = tmp_path / "chrome.json"
        assert spans_main([path, "--json", "--chrome", str(chrome)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_id"] == TRACE
        assert payload["spans"] == 7
        assert payload["connected"] is True
        assert payload["critical_path"]
        assert len(json.loads(chrome.read_text())["traceEvents"]) == 7
        with pytest.raises(SystemExit) as exc:  # --otlp is not an option
            spans_main([path, "--otlp", str(tmp_path / "otlp.json")])
        assert exc.value.code == 2

    def test_largest_trace_wins_and_trace_id_selects(self, tmp_path,
                                                     capsys):
        records = request_shaped_records()
        other = "cd" * 16
        records.append(span("z1", "http.request", 0.0, 1.0, trace=other))
        path = write_spans(tmp_path / "journal.jsonl", records)
        assert spans_main([path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["trace_id"] == TRACE
        assert spans_main([path, "--json", "--trace-id", other]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_id"] == other
        assert payload["spans"] == 1

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert spans_main(["no-such-run"]) == 2
        assert "spans:" in capsys.readouterr().err
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert spans_main([str(empty)]) == 2

    def test_torn_and_flipped_journal_analyses_intact_prefix(self,
                                                             tmp_path,
                                                             capsys):
        """The journal's one reader: spans after a flipped byte are
        distrusted (and counted); the prefix before it is analyzed."""
        from repro.sanitize.chaos import flip_byte, truncate_tail

        path = write_spans(tmp_path / "journal.jsonl",
                           request_shaped_records())
        truncate_tail(path, 5)
        with open(path) as fh:
            lines = fh.readlines()
        flip_byte(path, sum(len(line) for line in lines[:4]) + 30)
        assert spans_main([path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] == 4  # http.request .. run
        assert payload["bad_lines"] == 3
        assert spans_main([path]) == 0
        assert "distrusted 3 line(s)" in capsys.readouterr().out

    def test_a_span_field_of_the_wrong_type_is_distrusted(self, tmp_path,
                                                          capsys):
        records = request_shaped_records()
        records[4]["start"] = "zero"
        path = write_spans(tmp_path / "journal.jsonl", records)
        assert spans_main([path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["spans"], payload["bad_lines"]) == (4, 3)
        assert spans_main([path]) == 0
        out = capsys.readouterr().out
        assert f"{path}:5: span.start is not a finite number" in out

    def test_nothing_intact_exits_2(self, tmp_path, capsys):
        from repro.sanitize.chaos import flip_byte

        path = write_spans(tmp_path / "journal.jsonl",
                           request_shaped_records())
        flip_byte(path, 20)  # the very first record
        assert spans_main([path]) == 2
        err = capsys.readouterr().err
        assert "no intact span records" in err
        assert "7 distrusted" in err

    def test_check_failure_exits_1(self, tmp_path, capsys):
        records = request_shaped_records()
        records.append(span("x9", "orphan", 0.0, 1.0,
                            parent="ffffffffffffffff"))
        path = write_spans(tmp_path / "journal.jsonl", records)
        assert spans_main([path, "--check"]) == 1
        assert "CHECK FAILED" in capsys.readouterr().err
