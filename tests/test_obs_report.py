"""End-to-end tests for traces, the report layer and the harness wiring.

The contract under test: the event stream an :class:`Observer` captures
reconciles *exactly* with the simulator's own aggregate counters, the
``report`` subcommand reproduces a cell's miss breakdown from its trace
alone, and the exec engine surfaces per-job trace paths.
"""

import json
import os

import pytest

from repro.harness.runner import bar_config, run_bar
from repro.obs import events as ev
from repro.obs import read_jsonl
from repro.obs.observer import Observer
from repro.obs.report import render_report, report_main, summarize
from repro.workloads import spec92_workload

from .helpers import make_inorder, make_ooo, small_hierarchy, trap_config


def _run_traced(make_core, informing=None, instructions=4000, warmup=2000):
    core = make_core(hierarchy=small_hierarchy(), informing=informing)
    obs = Observer(trace=True)
    obs.attach(core)
    stream = spec92_workload("compress").stream(
        8 * (instructions + warmup) + 50_000)
    stats = core.run(stream, max_app_insts=instructions + warmup,
                     warmup_insts=warmup)
    return core, obs, stats


class TestReconciliation:
    """Event counts must equal the hierarchy/core aggregate counters."""

    @pytest.mark.parametrize("make_core", [make_inorder, make_ooo],
                             ids=["inorder", "ooo"])
    def test_counts_match_memstats(self, make_core):
        core, obs, _ = _run_traced(make_core, informing=trap_config(10))
        mem = core.hierarchy.stats
        counts = obs.counts()
        assert counts.get(ev.L1_HIT, 0) == mem.l1_hits
        assert counts.get(ev.L1_MISS, 0) == mem.l1_misses
        assert counts.get(ev.L1_MERGE, 0) == mem.l1_secondary_misses
        assert counts.get("l2.hit", 0) == mem.l2_hits
        assert counts.get("l2.miss", 0) == mem.l2_misses
        assert counts.get(ev.TRAP_FIRE, 0) == core.engine.invocations
        # Each event kind shows up once per counter increment in the trace.
        for kind in (ev.L1_HIT, ev.L1_MISS, ev.L1_MERGE, ev.TRAP_FIRE):
            assert counts.get(kind, 0) == \
                sum(1 for e in obs.events if e["kind"] == kind)

    @pytest.mark.parametrize("make_core", [make_inorder, make_ooo],
                             ids=["inorder", "ooo"])
    def test_summary_miss_rate_matches_simulator(self, make_core):
        core, obs, _ = _run_traced(make_core)
        summary = summarize(obs.events)
        mem = core.hierarchy.stats
        assert summary["accesses"] == mem.l1_accesses
        assert summary["miss_rate"] == pytest.approx(mem.l1_miss_rate)
        assert summary["l2_hits"] + summary["mem_misses"] == mem.l1_misses

    def test_trap_returns_track_fires(self):
        core, obs, _ = _run_traced(make_inorder, informing=trap_config(10))
        counts = obs.counts()
        assert counts[ev.TRAP_FIRE] > 0
        # A handler run can straddle the warm-up boundary or the end of
        # the run, so returns match fires within one.
        assert abs(counts[ev.TRAP_RETURN] - counts[ev.TRAP_FIRE]) <= 1

    def test_access_events_are_cycle_ordered(self):
        # Event stamps are absolute core cycles (fills are stamped at their
        # data-arrival cycle, so the full stream interleaves), but the
        # access-outcome events follow simulation time monotonically.
        _, obs, _ = _run_traced(make_ooo)
        assert obs.events, "traced run produced no events"
        assert all(e["cycle"] >= 0 for e in obs.events)
        access_cycles = [e["cycle"] for e in obs.events
                         if e["kind"] == ev.L1_HIT and "via" not in e]
        assert access_cycles == sorted(access_cycles)


class TestSummarizeAndRender:
    def test_summary_fields_from_synthetic_events(self):
        events = [
            {"cycle": 1, "kind": ev.L1_HIT, "line": 1, "write": False},
            {"cycle": 2, "kind": ev.L1_MISS, "line": 2, "level": 2,
             "start": 2, "ready": 14, "mshr": 0},
            {"cycle": 3, "kind": ev.L1_MISS, "line": 3, "level": 3,
             "start": 3, "ready": 78, "mshr": 1},
            {"cycle": 4, "kind": ev.L1_MERGE, "line": 3, "mshr": 1,
             "ready": 78},
            {"cycle": 5, "kind": ev.L1_HIT, "line": 4, "via": "stream"},
            {"cycle": 6, "kind": ev.CACHE_FILL, "cache": "L1", "set": 2,
             "line": 2},
            {"cycle": 6, "kind": ev.CACHE_EVICT, "cache": "L1", "set": 2,
             "line": 9, "dirty": True},
            {"cycle": 7, "kind": ev.MSHR_ALLOC, "mshr": 0, "line": 2,
             "occupancy": 2},
            {"cycle": 8, "kind": ev.MSHR_RELEASE, "mshr": 0, "line": 2,
             "squashed": True, "occupancy": 1},
            {"cycle": 9, "kind": ev.TRAP_FIRE, "pc": 1, "addr": 2,
             "handler_len": 10},
            {"cycle": 20, "kind": ev.TRAP_RETURN, "start": 10,
             "committed": 10},
        ]
        s = summarize(events)
        assert s["events"] == 11
        assert s["cycles"] == (1, 20)
        # The stream hit counts toward hits; merges count toward accesses.
        assert (s["hits"], s["misses"], s["merges"]) == (2, 2, 1)
        assert s["accesses"] == 5
        assert s["miss_rate"] == pytest.approx(3 / 5)
        assert s["l2_hits"] == 1 and s["mem_misses"] == 1
        assert s["stream_hits"] == 1
        assert s["latency"].count == 2 and s["latency"].max == 75
        assert s["fills"] == {"L1": 1}
        assert s["conflict_heat"] == {"L1": {2: 1}}
        assert s["writeback_evictions"] == 1
        assert s["mshr_high_water"] == 2
        assert s["mshr_squashed"] == 1
        assert s["trap_fires"] == 1 and s["trap_returns"] == 1
        assert s["handler_committed"].mean == 10.0

    def test_summarize_empty(self):
        s = summarize([])
        assert s["accesses"] == 0 and s["miss_rate"] == 0.0

    def test_render_report_sections(self):
        _, obs, _ = _run_traced(make_inorder, informing=trap_config(10))
        text = render_report(summarize(obs.events), title="unit")
        for needle in ("obs report — unit", "miss breakdown",
                       "miss latency (cycles)", "top conflict sets",
                       "MSHR accounting", "informing traps", "fired "):
            assert needle in text

    def test_render_report_quiet_trace(self):
        text = render_report(summarize([]), title="empty")
        assert "(no evictions)" in text
        assert "(none fired)" in text


class TestRunBarArtifacts:
    def test_run_bar_writes_trace_and_report_reproduces_breakdown(
            self, tmp_path):
        directory = str(tmp_path)
        observer = Observer(trace=True)
        result = run_bar("compress", "ooo", bar_config("S10"),
                         instructions=3000, warmup=1500,
                         observe=observer, trace_dir=directory)
        stem = "compress_ooo_S10"
        events_path = os.path.join(directory, f"{stem}.events.jsonl")
        metrics_path = os.path.join(directory, f"{stem}.metrics.json")
        assert os.path.exists(events_path)
        assert os.path.exists(metrics_path)
        # The acceptance bar: the report's event-derived miss breakdown
        # reproduces the cell's aggregate miss rate from the trace alone.
        summary = summarize(read_jsonl(events_path))
        assert summary["miss_rate"] == pytest.approx(result.l1_miss_rate)
        assert summary["trap_fires"] == result.handler_invocations
        with open(metrics_path) as fh:
            payload = json.load(fh)
        assert payload["metrics"]["counters"]["l1.hit"] == \
            summary["hits"] - summary["stream_hits"]

    def test_run_bar_observe_false_stays_dark(self, tmp_path):
        result = run_bar("compress", "inorder", bar_config("N"),
                         instructions=1000, warmup=500, observe=False,
                         trace_dir=str(tmp_path))
        assert result.cycles > 0
        assert not os.listdir(str(tmp_path))


class TestReportCLI:
    def _trace_file(self, tmp_path):
        _, obs, _ = _run_traced(make_inorder, informing=trap_config(10),
                                instructions=2000, warmup=1000)
        from repro.obs import write_jsonl
        path = str(tmp_path / "cell.events.jsonl")
        write_jsonl(obs.events, path)
        return path

    def test_trace_file_mode(self, tmp_path, capsys):
        path = self._trace_file(tmp_path)
        assert report_main(["--trace-file", path]) == 0
        out = capsys.readouterr().out
        assert f"obs report — {path}" in out
        assert "miss breakdown" in out
        assert "simulator cross-check" not in out

    def test_trace_file_with_a_non_json_line_exits_2(self, tmp_path,
                                                      capsys):
        path = tmp_path / "bad.events.jsonl"
        path.write_text("not json\n")
        assert report_main(["--trace-file", str(path)]) == 2
        assert f"{path}:1: corrupt JSONL line" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["--trace-file", "ref"])
    def test_record_without_cycle_exits_2(self, tmp_path, capsys, form):
        path = tmp_path / "nocycle.events.jsonl"
        path.write_text('{"kind": "l1.hit", "line": 1}\n')
        argv = [str(path)] if form == "ref" else [form, str(path)]
        assert report_main(argv) == 2
        err = capsys.readouterr().err
        assert f"{path}:1: corrupt JSONL line" in err

    def test_manifest_with_string_cells_exits_2(self, tmp_path, capsys):
        from tests.test_harness_explain import damaged_manifest

        path = damaged_manifest(tmp_path)
        assert report_main([path]) == 2
        assert (f"{path}:2: run_start.jobs is not a list"
                in capsys.readouterr().err)

    def test_trace_file_mode_with_chrome_export(self, tmp_path, capsys):
        path = self._trace_file(tmp_path)
        chrome = str(tmp_path / "chrome.json")
        assert report_main(["--trace-file", path, "--chrome", chrome]) == 0
        assert "chrome trace written" in capsys.readouterr().out
        with open(chrome) as fh:
            trace = json.load(fh)
        payload = [r for r in trace["traceEvents"] if r["ph"] != "M"]
        # Every traced event maps to exactly one Chrome record.
        assert len(payload) == len(read_jsonl(path))

    def test_live_mode_cross_check(self, capsys):
        rc = report_main(["--benchmark", "compress", "--machine", "inorder",
                          "--label", "S10", "--quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "compress/inorder/S10 (live)" in out
        assert "simulator cross-check" in out
        # The event-derived miss rate is printed by render_report; the
        # simulator's own number follows — they must agree digit-for-digit.
        reported = [line for line in out.splitlines()
                    if "miss rate" in line][0].split()[-1]
        assert f"l1_miss_rate {reported}" in out

    def test_requires_a_source(self, capsys):
        with pytest.raises(SystemExit):
            report_main([])
        assert "pass --trace-file" in capsys.readouterr().err


class TestExecTraceWiring:
    def test_finished_event_carries_trace_path(self, tmp_path):
        from repro.exec import ExecOptions, JobRunner, SimJob
        from repro.exec.telemetry import CollectingSink

        sink = CollectingSink()
        runner = JobRunner(ExecOptions(jobs=1, cache=False,
                                       trace_events=str(tmp_path)),
                           sinks=[sink])
        job = SimJob.bar(benchmark="compress", machine="inorder", label="N",
                         instructions=1000, warmup=500, seed=0)
        rows = runner.run([job])
        assert len(rows) == 1
        finished = [e for e in sink.events if e.event == "finished"]
        assert len(finished) == 1
        trace_path = finished[0].trace
        assert trace_path is not None
        assert os.path.exists(trace_path)
        assert read_jsonl(trace_path)
        # The trace field serializes; absent fields are dropped.
        assert json.loads(finished[0].to_json())["trace"] == trace_path

    def test_no_trace_field_when_off(self):
        from repro.exec import ExecOptions, JobRunner, SimJob
        from repro.exec.telemetry import CollectingSink

        sink = CollectingSink()
        runner = JobRunner(ExecOptions(jobs=1, cache=False), sinks=[sink])
        job = SimJob.bar(benchmark="compress", machine="inorder", label="N",
                         instructions=500, warmup=250, seed=0)
        runner.run([job])
        finished = [e for e in sink.events if e.event == "finished"]
        assert finished[0].trace is None
        assert "trace" not in json.loads(finished[0].to_json())
