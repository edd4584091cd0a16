"""The write-ahead journal: framing, torn tails, fsync policy, ENOSPC."""

import os

import pytest

from repro.durable import (
    BATCH_FSYNC_INTERVAL,
    ENV_FSYNC,
    RunJournal,
    check_header,
    frame,
    fsync_policy,
    header_record,
    read_records,
    unframe,
)
from repro.sanitize.chaos import arm_journal_enospc, flip_byte, truncate_tail


class TestFraming:
    def test_roundtrip(self):
        record = {"rec": "job_start", "key": "ab" * 32, "attempt": 1}
        assert unframe(frame(record).rstrip("\n")) == record

    def test_crc_rejects_payload_edit(self):
        line = frame({"rec": "job_finish", "wall": 1.5}).rstrip("\n")
        tampered = line.replace("1.5", "9.5")
        assert unframe(tampered) is None

    def test_rejects_garbage_shapes(self):
        assert unframe("") is None
        assert unframe("short") is None
        assert unframe("zzzzzzzz {}") is None  # non-hex crc
        assert unframe("00000000 [1,2]") is None  # valid frame, non-dict
        # A correctly-framed non-JSON payload cannot really exist (the
        # crc covers the bytes), but a matching crc over garbage must
        # still not parse:
        import zlib
        crc = zlib.crc32(b"not json") & 0xFFFFFFFF
        assert unframe(f"{crc:08x} not json") is None

    def test_canonical_json_is_stable(self):
        a = frame({"b": 1, "a": 2})
        b = frame({"a": 2, "b": 1})
        assert a == b


class TestReadRecords:
    def test_missing_file_is_empty_untruncated(self, tmp_path):
        records, bad, truncated = read_records(str(tmp_path / "nope.jsonl"))
        assert records == [] and bad == 0 and not truncated

    def test_whole_file_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(str(path), fsync="off") as journal:
            journal.append(header_record("exec_run", run_id="r1"))
            journal.record("job_start", key="k1", attempt=1)
            journal.record("job_finish", key="k1")
        records, bad, truncated = read_records(str(path))
        assert [r["rec"] for r in records] == [
            "journal_header", "job_start", "job_finish"]
        assert bad == 0 and not truncated
        assert check_header(records, "exec_run")
        assert not check_header(records, "serve")

    def test_torn_tail_trusted_prefix(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(str(path), fsync="off") as journal:
            journal.append(header_record("exec_run", run_id="r1"))
            for index in range(5):
                journal.record("job_start", key=f"k{index}", attempt=1)
        # Tear off half the last record, the SIGKILL-mid-write shape.
        truncate_tail(str(path), 20)
        records, bad, truncated = read_records(str(path))
        assert truncated and bad == 1
        assert len(records) == 5  # header + 4 intact records
        assert records[-1]["key"] == "k3"

    def test_flipped_byte_stops_the_scan(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [frame({"rec": "a", "i": index}) for index in range(4)]
        path.write_text("".join(lines))
        # Corrupt the middle of line 2 (0-indexed 1).
        offset = len(lines[0]) + len(lines[1]) // 2
        flip_byte(str(path), offset=offset, mask=0x01)
        records, bad, truncated = read_records(str(path))
        assert truncated
        assert [r["i"] for r in records] == [0]
        assert bad == 3  # the bad line and everything after it


class TestFsyncPolicy:
    def test_default_is_always(self, monkeypatch):
        monkeypatch.delenv(ENV_FSYNC, raising=False)
        assert fsync_policy() == "always"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_FSYNC, "batch")
        assert fsync_policy() == "batch"
        assert fsync_policy("off") == "off"  # explicit beats env

    def test_typo_raises(self):
        with pytest.raises(ValueError, match="unknown fsync policy"):
            fsync_policy("allways")

    def test_batch_fsyncs_on_interval_and_close(self, tmp_path,
                                                monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (calls.append(fd), real_fsync(fd)))
        journal = RunJournal(str(tmp_path / "j.jsonl"), fsync="batch")
        for index in range(BATCH_FSYNC_INTERVAL + 2):
            journal.record("tick", i=index)
        assert len(calls) == 1  # one interval crossed
        journal.close()
        assert len(calls) == 2  # close always syncs

    def test_off_never_fsyncs(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        journal = RunJournal(str(tmp_path / "j.jsonl"), fsync="off")
        for index in range(3):
            journal.record("tick", i=index)
        journal.close()
        assert calls == []


class TestRunRecordFsyncs:
    """The one run record adds no fsync to the measured paths: a cold
    cell costs two fsync'd appends, a cache hit one, a served run none."""

    @staticmethod
    def fsyncs(monkeypatch):
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        return calls

    @staticmethod
    def grid(tmp_path, cells, cache):
        from repro.exec import ExecOptions, JobRunner, SimJob

        runner = JobRunner(
            ExecOptions(cache_dir=str(tmp_path / cache),
                        manifest_dir=str(tmp_path / "runs"),
                        journal_fsync="always"),
            execute=lambda job: {"cell": job.benchmark})
        runner.run([SimJob.bar(benchmark=f"b{i}", machine="m", label="L",
                               instructions=1, warmup=0)
                    for i in range(cells)])

    def test_cold_cells_cost_two_and_hits_one(self, tmp_path,
                                              monkeypatch):
        calls = self.fsyncs(monkeypatch)
        counts = []
        # Cold runs on fresh caches, then warm runs over the last one;
        # per-run records (header, run_start, run_end, close) cancel out.
        for cells, cache in ((1, "c1"), (3, "c3"), (1, "c3"), (3, "c3")):
            del calls[:]
            self.grid(tmp_path, cells, cache)
            counts.append(len(calls))
        cold_1, cold_3, warm_1, warm_3 = counts
        assert cold_3 - cold_1 == 2 * 2
        assert warm_3 - warm_1 == 2 * 1

    def test_served_miss_adds_no_fsync(self, tmp_path, monkeypatch):
        import asyncio

        from repro.serve import Gateway, ServeOptions

        calls = self.fsyncs(monkeypatch)

        async def scenario():
            gateway = Gateway(ServeOptions(
                shards=1, cache_dir=str(tmp_path / "cache"),
                manifest_dir=str(tmp_path / "runs")),
                execute=lambda job: {"cell": job.benchmark})
            await gateway.start()
            outcome = await gateway.submit(
                {"kind": "bar", "benchmark": "compress", "machine": "ooo",
                 "label": "N", "instructions": 100, "warmup": 0})
            await gateway.drain(grace=1)
            return outcome

        outcome = asyncio.run(scenario())
        assert outcome["meta"]["cache"] == "miss"
        records, _, _ = read_records(outcome["meta"]["journal"])
        assert [r["rec"] for r in records][-1] == "run_end"
        assert calls == []


class TestAppendFailure:
    def test_enospc_disables_and_counts_never_raises(self, tmp_path):
        journal = RunJournal(str(tmp_path / "j.jsonl"), fsync="off")
        arm_journal_enospc(journal, after=2)
        assert journal.record("a") and journal.record("b")
        with pytest.warns(RuntimeWarning, match="without crash-safety"):
            assert journal.append({"rec": "c"}) is False
        # Disabled for good: later appends are silent Falses, one error.
        assert journal.append({"rec": "d"}) is False
        assert journal.disabled and journal.errors == 1
        assert journal.records_written == 2
        # The prefix written before the fault is still fully readable.
        records, bad, truncated = read_records(journal.path)
        assert [r["rec"] for r in records] == ["a", "b"]
        assert not truncated

    def test_unwritable_directory_degrades(self, tmp_path):
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("occupied")
        journal = RunJournal(str(blocked / "j.jsonl"))
        with pytest.warns(RuntimeWarning):
            assert journal.append({"rec": "a"}) is False
        assert journal.disabled and journal.errors == 1

    def test_lazy_open_costs_nothing_unused(self, tmp_path):
        path = tmp_path / "never.jsonl"
        journal = RunJournal(str(path))
        journal.close()
        assert not path.exists()
