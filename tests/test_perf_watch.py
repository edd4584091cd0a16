"""Live grid monitor: deterministic replay, schema gate, journal recovery."""

import io

import pytest

from repro.durable import JOURNAL_SCHEMA, frame, header_record
from repro.exec import ExecOptions, JobRunner, SimJob
from repro.perf import JournalError
from repro.perf.watch import JournalFollower, follow, replay, watch_main
from repro.sanitize.chaos import flip_byte, truncate_tail


def echo_execute(job):
    return {"label": job.label, "seed": job.seed}


def make_job(name="a", seed=0):
    return SimJob.bar(benchmark=name, machine="m", label="L",
                      instructions=1, warmup=0, seed=seed)


def record_stream(tmp_path, jobs=2, workers=1, cache_dir=None):
    """Run a tiny grid and return its run journal's path."""
    options = ExecOptions(jobs=workers, cache=cache_dir is not None,
                          cache_dir=cache_dir,
                          manifest_dir=str(tmp_path / "runs"),
                          journal_fsync="off",
                          run_meta={"experiment": "watch-test",
                                    "argv": ["watch-test"], "seed": 0})
    runner = JobRunner(options, execute=echo_execute)
    runner.run([make_job(chr(ord("a") + i)) for i in range(jobs)])
    return runner.last_journal


def run_start(ts, **grid):
    """A ``run_start`` record announcing *grid* (key -> benchmark)."""
    return {"rec": "run_start", "ts": ts,
            "jobs": [{"key": key, "job": make_job(name).to_dict()}
                     for key, name in grid.items()]}


def synthetic_stream(records, header=True, schema=JOURNAL_SCHEMA):
    """Frame *records* as a run journal, led by a 2-worker header."""
    if header:
        head = header_record("exec_run", experiment="synth",
                             argv=["synth"], seed=0, workers=2, jobs=2,
                             ts=0.0)
        head["schema"] = schema
        records = [head] + list(records)
    return "".join(frame(record) for record in records)


EVENTS = [
    run_start(10.0, k1="a", k2="b"),
    {"rec": "job_start", "key": "k1", "label": "a/m/L", "ts": 10.1,
     "attempt": 1},
    {"rec": "job_finish", "key": "k2", "label": "b/m/L", "ts": 10.2,
     "attempt": 0, "wall": 0.0, "cache": "hit"},
    {"rec": "job_finish", "key": "k1", "label": "a/m/L", "ts": 12.1,
     "attempt": 1, "wall": 2.0, "cache": "miss"},
]


class TestReplay:
    def test_recorded_stream_replays_deterministically(self, tmp_path):
        """Acceptance: replaying a recorded run gives a stable panel."""
        journal = record_stream(tmp_path, jobs=3)
        first = replay(journal)
        second = replay(journal)
        assert first.snapshot() == second.snapshot()
        assert first.render(jobs_detail=5) == second.render(jobs_detail=5)
        snap = first.snapshot()
        assert snap["experiment"] == "watch-test"
        assert snap["total"] == 3
        assert snap["done"] == 3
        assert snap["failed"] == 0
        assert snap["complete"] is True

    def test_stats_come_from_event_timestamps(self):
        follower = JournalFollower()
        follower.feed_text(synthetic_stream(EVENTS))
        snap = follower.snapshot()
        assert snap["elapsed"] == pytest.approx(2.1)
        assert snap["done"] == 1
        assert snap["cached"] == 1
        assert snap["cache_hit_ratio"] == 0.5
        assert snap["throughput"] == pytest.approx(2 / 2.1, abs=1e-3)
        # One 2.0s wall over 2.1s elapsed across 2 declared workers.
        assert snap["utilization"] == pytest.approx(2.0 / (2.1 * 2), abs=1e-3)
        assert snap["complete"] is True
        assert snap["eta"] == 0.0

    def test_multi_grid_stream_accumulates_header_totals(self):
        """A sensitivity-style experiment writes one journal per grid;
        fed one after the other, totals and completion span all of
        them."""
        grid2 = [
            run_start(20.0, k3="c", k4="d"),
            {"rec": "job_finish", "key": "k3", "label": "c/m/L",
             "ts": 21.0, "attempt": 0, "wall": 1.0, "cache": "miss"},
            {"rec": "job_finish", "key": "k4", "label": "d/m/L",
             "ts": 21.5, "attempt": 0, "wall": 0.5, "cache": "miss"},
        ]
        follower = JournalFollower()
        follower.feed_text(synthetic_stream(EVENTS))
        follower.feed_text(synthetic_stream(grid2))
        snap = follower.snapshot()
        assert snap["total"] == 4
        assert snap["done"] == 3 and snap["cached"] == 1
        assert snap["complete"] is True
        assert snap["elapsed"] == pytest.approx(11.5)

    def test_cache_hits_render_in_panel(self, tmp_path):
        cache_dir = tmp_path / "cache"
        record_stream(tmp_path, jobs=2, cache_dir=str(cache_dir))
        warm = record_stream(tmp_path, jobs=2, cache_dir=str(cache_dir))
        snap = replay(warm).snapshot()
        assert snap["cached"] == 2
        assert snap["cache_hit_ratio"] == 1.0


class TestJournalReplays:
    """Resumed runs replay finished cells from the journal in zero wall
    time; the panel must count them as progress without letting their
    wall=0 records skew throughput or the ETA."""

    REPLAY_EVENTS = [
        run_start(10.0, k1="a", k2="b"),
        {"rec": "job_finish", "key": "k1", "label": "a/m/L", "ts": 10.0,
         "attempt": 0, "wall": 0.0, "cache": "replay"},
        {"rec": "job_start", "key": "k2", "label": "b/m/L", "ts": 10.1,
         "attempt": 1},
        {"rec": "job_finish", "key": "k2", "label": "b/m/L", "ts": 12.1,
         "attempt": 1, "wall": 2.0, "cache": "miss"},
    ]

    def test_replays_count_as_progress_not_throughput(self):
        follower = JournalFollower()
        follower.feed_text(synthetic_stream(self.REPLAY_EVENTS))
        snap = follower.snapshot()
        assert snap["replayed"] == 1
        assert snap["done"] == 1
        assert snap["complete"] is True
        assert snap["eta"] == 0.0
        # Only the genuinely executed job feeds the rate; a replayed
        # grid must not claim 2 jobs in 2.1s.
        assert snap["throughput"] == pytest.approx(1 / 2.1, abs=1e-3)
        assert snap["utilization"] == pytest.approx(2.0 / (2.1 * 2),
                                                    abs=1e-3)

    def test_eta_ignores_zero_wall_replays(self):
        events = [run_start(10.0, k1="a", k2="b", k3="c")] + \
            self.REPLAY_EVENTS[1:]
        follower = JournalFollower()
        follower.feed_text(synthetic_stream(events))
        snap = follower.snapshot()
        # One cell still queued; mean wall comes from the one real run
        # (2.0s), never from the 0.0s replay: eta = 1 * 2.0 / 2 workers.
        assert snap["complete"] is False
        assert snap["mean_wall"] == pytest.approx(2.0)
        assert snap["eta"] == pytest.approx(1.0)

    def test_torn_tail_replay_recovers_from_finished_record(self):
        """A resumed run's journal torn mid-way still shows the replay
        its intact ``job_finish`` (cache="replay") recorded; the torn
        line is distrusted, not half-parsed."""
        text = synthetic_stream(self.REPLAY_EVENTS[:3])
        follower = JournalFollower()
        follower.feed_text(text[:-12])
        follower.close()
        snap = follower.snapshot()
        assert snap["replayed"] == 1
        assert snap["done"] == 0 and snap["running"] == 0
        assert snap["distrusted_lines"] == 1

    def test_replays_render_in_panel_and_status_line(self):
        follower = JournalFollower()
        follower.feed_text(synthetic_stream(self.REPLAY_EVENTS))
        assert "1 journal-replayed" in follower.render()
        status = follower.status_line()
        assert "[2/2]" in status
        assert "replay 1" in status


class TestSchemaGate:
    def test_unknown_schema_is_rejected_with_guidance(self):
        follower = JournalFollower()
        with pytest.raises(JournalError) as err:
            follower.feed_text(synthetic_stream([], schema=99))
        message = str(err.value)
        assert "schema 99" in message
        assert str(JOURNAL_SCHEMA) in message
        assert "regenerate" in message

    def test_headerless_stream_tolerated_with_note(self):
        follower = JournalFollower()
        follower.feed_text(synthetic_stream(EVENTS, header=False))
        assert follower.header is None
        assert "headerless" in follower.render()
        assert follower.snapshot()["total"] == 2

    def test_cli_exits_2_on_a_journal_with_no_intact_record(self, tmp_path,
                                                            capsys):
        journal = tmp_path / "journal.jsonl"
        journal.write_text("garbage\n")
        assert watch_main([str(journal)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("watch: error: ")
        assert "no intact record (distrusted 1 line(s))" in out

    def test_headerless_journal_with_records_exits_0(self, tmp_path,
                                                      capsys):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(synthetic_stream(EVENTS, header=False))
        assert watch_main([str(journal)]) == 0
        assert "headerless" in capsys.readouterr().out

    def test_a_field_of_the_wrong_type_is_distrusted(self, tmp_path,
                                                     capsys):
        """A crc-valid record whose field has the wrong type ends the
        trusted prefix as a bad frame does, and the panel names it."""
        events = [dict(event, attempt="1") if event["rec"] == "job_start"
                  else event for event in EVENTS]
        journal = tmp_path / "journal.jsonl"
        journal.write_text(synthetic_stream(events))
        assert watch_main([str(journal), "--jobs-detail", "5"]) == 0
        out = capsys.readouterr().out
        assert "distrusted 3 line(s)" in out
        assert f"{journal}:3: job_start.attempt is not an integer" in out

    def test_cli_exits_2_on_unknown_schema(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(synthetic_stream([], schema=99))
        assert watch_main([str(journal)]) == 2
        out = capsys.readouterr().out
        assert "schema 99" in out


class TestStreamRecovery:
    def test_torn_and_flipped_journal_renders_intact_prefix(self,
                                                            tmp_path):
        """One reader, one rule: everything before the first bad frame
        renders, the flipped line and everything after it are counted
        as distrusted — never skipped over and resumed."""
        journal = record_stream(tmp_path, jobs=3)
        truncate_tail(journal, 10)  # torn run_end
        with open(journal) as fh:
            lines = fh.readlines()
        # Flip a byte inside the third job_finish: it and the torn tail
        # are distrusted, the first two cells still render as done.
        third = [i for i, line in enumerate(lines)
                 if '"rec":"job_finish"' in line][2]
        flip_byte(journal, sum(len(line) for line in lines[:third]) + 20)
        follower = replay(journal)
        snap = follower.snapshot()
        assert snap["total"] == 3
        assert snap["done"] == 2 and snap["running"] == 1
        assert snap["distrusted_lines"] == len(lines) - third
        assert snap["complete"] is False
        assert "distrusted 2 line(s)" in follower.render()

    def test_partial_trailing_line_buffers_until_newline(self):
        follower = JournalFollower()
        text = synthetic_stream(EVENTS)
        split = len(text) - 25  # mid-way through the last record
        follower.feed_text(text[:split])
        assert follower.snapshot()["complete"] is False
        assert follower.distrusted == 0
        follower.feed_text(text[split:])
        assert follower.snapshot()["complete"] is True
        assert follower.distrusted == 0

    def test_missing_file_is_a_watch_error(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            replay(str(tmp_path / "nope.jsonl"))


class TestFollowAndCLI:
    def test_follow_tails_to_completion(self, tmp_path):
        journal = record_stream(tmp_path, jobs=2)
        out = io.StringIO()
        follower = follow(journal, interval=0, stream=out,
                          _sleep=lambda _s: None)
        assert follower.complete
        assert "[2/2]" in out.getvalue()

    def test_follow_tails_a_growing_journal(self, tmp_path):
        """A second terminal attached mid-run: a half-written last line
        waits for its newline and never counts as corrupt."""
        journal = tmp_path / "journal.jsonl"
        text = synthetic_stream(EVENTS)
        cut = len(text) - 25
        journal.write_text(text[:cut])
        out = io.StringIO()
        polls = []

        def writer_catches_up(_seconds):
            polls.append(_seconds)
            with open(journal, "a") as fh:
                fh.write(text[cut:])

        follower = follow(str(journal), interval=0, stream=out,
                          _sleep=writer_catches_up)
        assert len(polls) == 1
        assert follower.complete
        assert follower.distrusted == 0

    def test_follow_stops_where_the_trusted_prefix_ends(self, tmp_path):
        """A finished journal with a damaged line would never complete:
        follow stops at once instead of tailing it forever."""
        journal = tmp_path / "journal.jsonl"
        text = synthetic_stream(EVENTS)
        journal.write_text(text.replace('"job_start"', '"job_stArt"'))
        polls = []

        def poll(_seconds):
            polls.append(_seconds)
            assert len(polls) < 3, "follow kept tailing a dead prefix"

        follower = follow(str(journal), interval=0, stream=io.StringIO(),
                          _sleep=poll)
        assert polls == [] and follower.distrusted == 3
        assert not follower.complete

    def test_follow_timeout_stops_on_incomplete_stream(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(synthetic_stream(EVENTS[:2]))  # still running
        out = io.StringIO()
        follower = follow(str(journal), interval=0, timeout=0.01,
                          stream=out, _sleep=lambda _s: None)
        assert not follower.complete

    def test_cli_replay_renders_panel(self, tmp_path, capsys):
        journal = record_stream(tmp_path, jobs=2)
        assert watch_main([journal, "--jobs-detail", "1"]) == 0
        out = capsys.readouterr().out
        assert "watch — watch-test 2 jobs" in out
        assert "complete" in out
        assert "... and 1 more" in out

    def test_cli_takes_a_run_id(self, tmp_path, capsys, monkeypatch):
        journal = record_stream(tmp_path, jobs=2)
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        run_id = journal.split("/")[-2]
        assert watch_main([run_id]) == 0
        assert "watch — watch-test 2 jobs" in capsys.readouterr().out
        assert watch_main(["no-such-run"]) == 2

    def test_failed_jobs_surface_in_detail(self):
        follower = JournalFollower()
        events = EVENTS[:2] + [
            {"rec": "job_fail", "key": "k1", "label": "a/m/L",
             "ts": 11.0, "attempt": 1, "error": "ValueError: boom"},
            {"rec": "job_finish", "key": "k2", "label": "b/m/L",
             "ts": 11.0, "attempt": 0, "wall": 0.5, "cache": "miss"},
        ]
        follower.feed_text(synthetic_stream(events))
        snap = follower.snapshot()
        assert snap["failed"] == 1
        rendered = follower.render(jobs_detail=5)
        assert "ValueError: boom" in rendered
        assert "1 failed" in rendered
