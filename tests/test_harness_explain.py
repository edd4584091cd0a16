"""``harness explain``: analysis math, diagnosis wording, CLI contract.

The analyses are exercised twice: on hand-built event lists with known
answers (reuse distances computed by hand, dead blocks planted
deliberately) and end-to-end on a real :mod:`repro.obs` trace from a
tiny simulated cell, where the histogram totals must reconcile with the
trace's own access counts.  The CLI contract — corrupt, empty or
missing inputs exit 2 with a message on stderr, never a traceback — is
what ``bench replacement --explain`` and scripted users rely on.
"""

import json

import pytest

from repro.harness.explain import (
    REUSE_BUCKETS,
    analyze_trace,
    dead_block_stats,
    diagnose,
    explain_main,
    render_analysis,
    reuse_distance_histogram,
    set_pressure,
    trap_accounting,
)


def ev(kind, **fields):
    event = {"cycle": 0, "kind": kind}
    event.update(fields)
    return event


def hit(line):
    return ev("l1.hit", line=line, write=False)


# -- reuse distance -----------------------------------------------------------


class TestReuseDistance:
    def test_first_touches_are_cold(self):
        histogram = reuse_distance_histogram([hit(1), hit(2), hit(3)])
        assert histogram["cold"] == 3
        assert sum(histogram.values()) == 3

    def test_immediate_rereference_is_zero(self):
        histogram = reuse_distance_histogram([hit(1), hit(1)])
        assert histogram["0"] == 1 and histogram["cold"] == 1

    def test_one_intervening_line_is_one(self):
        histogram = reuse_distance_histogram([hit(1), hit(2), hit(1)])
        assert histogram["1"] == 1

    def test_distance_counts_distinct_lines_not_accesses(self):
        # 1, then 2 touched three times, then 1 again: only ONE distinct
        # line intervenes, so the re-reference lands in bucket "1".
        events = [hit(1), hit(2), hit(2), hit(2), hit(1)]
        histogram = reuse_distance_histogram(events)
        assert histogram["1"] == 1
        assert histogram["0"] == 2  # the repeated 2s

    def test_far_rereference_lands_in_32_plus(self):
        events = [hit(0)] + [hit(n) for n in range(1, 40)] + [hit(0)]
        assert reuse_distance_histogram(events)["32+"] == 1

    def test_bucket_boundaries(self):
        # Distance 7 -> "4-7", distance 8 -> "8-15".
        events = ([hit(0)] + [hit(n) for n in range(1, 8)] + [hit(0)]
                  + [hit(99)] + [hit(0)])
        histogram = reuse_distance_histogram(events)
        assert histogram["4-7"] == 1   # 7 distinct lines intervened
        assert histogram["1"] == 1     # 0 re-touched past 99 only
        assert sum(histogram.values()) == len(events)

    def test_misses_and_merges_count_too(self):
        events = [ev("l1.miss", line=5, level=2, start=0, ready=10),
                  ev("l1.merge", line=5, mshr=0, ready=10)]
        histogram = reuse_distance_histogram(events)
        assert histogram["cold"] == 1 and histogram["0"] == 1

    def test_non_access_events_ignored(self):
        events = [ev("cache.fill", cache="L1D", set=0, line=1),
                  ev("trap.fire", pc=0, addr=0, handler_len=10)]
        assert sum(reuse_distance_histogram(events).values()) == 0

    def test_bucket_labels_complete(self):
        histogram = reuse_distance_histogram([])
        assert tuple(histogram) == REUSE_BUCKETS


# -- dead blocks --------------------------------------------------------------


class TestDeadBlocks:
    def test_fill_then_evict_without_hit_is_dead(self):
        events = [ev("cache.fill", cache="L1D", set=0, line=1),
                  ev("cache.evict", cache="L1D", set=0, line=1,
                     dirty=False)]
        stats = dead_block_stats(events)
        assert stats == {"evictions": 1, "dead": 1, "dead_rate": 1.0,
                         "live_at_end": 0}

    def test_hit_between_fill_and_evict_is_live(self):
        events = [ev("cache.fill", cache="L1D", set=0, line=1),
                  hit(1),
                  ev("cache.evict", cache="L1D", set=0, line=1,
                     dirty=False)]
        stats = dead_block_stats(events)
        assert stats["dead"] == 0 and stats["evictions"] == 1

    def test_unseen_eviction_counts_but_is_not_dead(self):
        # Trace starts mid-run: the victim's fill predates the trace.
        events = [ev("cache.evict", cache="L1D", set=0, line=9,
                     dirty=True)]
        stats = dead_block_stats(events)
        assert stats["evictions"] == 1 and stats["dead"] == 0

    def test_l2_events_do_not_pollute_l1_accounting(self):
        events = [ev("cache.fill", cache="L2", set=0, line=1),
                  ev("cache.evict", cache="L2", set=0, line=1,
                     dirty=False)]
        stats = dead_block_stats(events)
        assert stats["evictions"] == 0 and stats["live_at_end"] == 0

    def test_live_at_end_counts_unevicted_fills(self):
        events = [ev("cache.fill", cache="L1D", set=0, line=n)
                  for n in range(4)]
        assert dead_block_stats(events)["live_at_end"] == 4


# -- set pressure and traps ---------------------------------------------------


class TestSetPressure:
    def test_top_k_ordering_and_shares(self):
        events = ([ev("cache.evict", cache="L1D", set=3, line=1,
                      dirty=False)] * 3
                  + [ev("cache.evict", cache="L1D", set=7, line=2,
                        dirty=False)])
        ranked = set_pressure(events, top=2)
        assert ranked[0] == {"set": 3, "evictions": 3, "share": 0.75}
        assert ranked[1]["set"] == 7

    def test_empty_trace_gives_empty_ranking(self):
        assert set_pressure([]) == []


class TestTrapAccounting:
    def test_totals_and_mean(self):
        events = [ev("trap.fire", pc=0, addr=0, handler_len=10),
                  ev("trap.fire", pc=4, addr=0, handler_len=14),
                  ev("trap.return", start=0, committed=12)]
        traps = trap_accounting(events)
        assert traps["fires"] == 2
        assert traps["handler_instructions_injected"] == 24
        assert traps["mean_handler_len"] == 12.0
        assert traps["handler_instructions_committed"] == 12

    def test_quiet_trace(self):
        traps = trap_accounting([hit(1)])
        assert traps["fires"] == 0 and traps["mean_handler_len"] == 0.0


# -- diagnosis ----------------------------------------------------------------


def _analysis(near=0, far=0, mid=0, dead_rate=0.0, evictions=100):
    histogram = {label: 0 for label in REUSE_BUCKETS}
    histogram["0"] = near
    histogram["32+"] = far
    histogram["8-15"] = mid
    return {
        "reuse_distance": histogram,
        "dead_blocks": {"evictions": evictions,
                        "dead": int(dead_rate * evictions),
                        "dead_rate": dead_rate, "live_at_end": 0},
    }


class TestDiagnose:
    def test_dead_fills_implicate_scan_resistance(self):
        text = diagnose(_analysis(near=70, far=30, dead_rate=0.3))
        assert "rrip" in text and "polluting" in text

    def test_dead_rate_needs_enough_evictions(self):
        # 3 dead evictions out of 10 is noise, not a mechanism.
        text = diagnose(_analysis(near=70, far=30, dead_rate=0.3,
                                  evictions=10))
        assert "polluting" not in text

    def test_capacity_bound_implicates_lru(self):
        text = diagnose(_analysis(near=10, far=90, dead_rate=0.02))
        assert "lru" in text and "capacity" in text

    def test_near_reuse_is_recency_friendly(self):
        text = diagnose(_analysis(near=90, far=5, dead_rate=0.02))
        assert "recency-friendly" in text

    def test_mixed_stream_admits_it(self):
        text = diagnose(_analysis(near=30, far=30, mid=40,
                                  dead_rate=0.02))
        assert "mixed" in text


# -- end to end on a real trace ----------------------------------------------


@pytest.fixture(scope="module")
def traced_cell():
    from repro.harness.runner import bar_config, run_bar
    from repro.obs.observer import Observer

    observer = Observer(trace=True)
    run_bar("compress", "lab", bar_config("S10"), 1500, 750,
            observe=observer)
    return observer.events


class TestEndToEnd:
    def test_histogram_reconciles_with_access_events(self, traced_cell):
        analysis = analyze_trace(traced_cell)
        accesses = analysis["accesses"]
        assert sum(accesses.values()) > 0
        assert (sum(analysis["reuse_distance"].values())
                == sum(accesses.values()))

    def test_real_trace_has_evictions_and_traps(self, traced_cell):
        analysis = analyze_trace(traced_cell)
        assert analysis["dead_blocks"]["evictions"] > 0
        assert analysis["traps"]["fires"] > 0
        assert analysis["traps"]["mean_handler_len"] == 11.0

    def test_render_mentions_every_section(self, traced_cell):
        text = render_analysis("cell", analyze_trace(traced_cell))
        for section in ("reuse distance", "dead blocks", "set pressure",
                        "traps", "diagnosis"):
            assert section in text


def damaged_manifest(tmp_path):
    """A run manifest whose ``cells`` is a string; returns its path."""
    from tests.test_perf_compare import make_manifest

    manifest = make_manifest([0.5])
    manifest["cells"] = "damaged"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return str(path)


class TestCli:
    def _write_trace(self, tmp_path, events):
        from repro.obs.export import write_jsonl
        path = tmp_path / "cell.events.jsonl"
        write_jsonl(events, str(path))
        return str(path)

    def test_text_output(self, tmp_path, capsys, traced_cell):
        path = self._write_trace(tmp_path, traced_cell)
        assert explain_main([path]) == 0
        out = capsys.readouterr().out
        assert "diagnosis" in out and path in out

    def test_json_output_parses(self, tmp_path, capsys, traced_cell):
        path = self._write_trace(tmp_path, traced_cell)
        assert explain_main([path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == path
        # --json sorts keys, so compare as sets
        assert set(payload["reuse_distance"]) == set(REUSE_BUCKETS)

    def test_empty_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.events.jsonl"
        path.write_text("\n")
        assert explain_main([str(path)]) == 2
        assert "empty trace" in capsys.readouterr().err

    def test_corrupt_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.events.jsonl"
        path.write_text('{"cycle": 1, "kind": "l1.hit"\n')
        assert explain_main([str(path)]) == 2
        assert "corrupt" in capsys.readouterr().err

    def test_record_without_cycle_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nocycle.events.jsonl"
        path.write_text('{"kind": "l1.hit", "line": 1}\n')
        assert explain_main([str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:1: corrupt JSONL line" in err

    def test_manifest_with_string_cells_exits_2(self, tmp_path, capsys):
        path = damaged_manifest(tmp_path)
        assert explain_main([path]) == 2
        assert "'cells' is not a list of objects" in capsys.readouterr().err

    def test_unresolvable_ref_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert explain_main(["no-such-run"]) == 2
        assert "no-such-run" in capsys.readouterr().err

    def test_manifest_without_traces_exits_2(self, tmp_path, capsys):
        from repro.exec import ExecOptions, JobRunner, SimJob

        runner = JobRunner(ExecOptions(jobs=1, cache=False,
                                       manifest_dir=str(tmp_path)))
        runner.run([SimJob.bar(benchmark="compress", machine="inorder",
                               label="N", instructions=300, warmup=100)])
        run_id = runner.last_manifest.split("/")[-2]
        code = explain_main([run_id, "--manifest-dir", str(tmp_path)])
        assert code == 2
        assert "--trace-events" in capsys.readouterr().err
