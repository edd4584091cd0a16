"""Every reader of a run's record ends damage in a named outcome.

A journal is input from outside the program.  Starting from the journal
of a real two-cell engine run, and of a traced one-cell run for
``spans``, ``explain`` and ``report``, each example applies one damage:
truncation at any byte, one flipped byte, one field replaced by another
JSON type or removed (re-framed with a valid crc), or a header that
declares schema 2.  Every reader CLI, and ``resume``'s load step, then
reads the damaged copy through the one loader and must either exit 0
over a trusted prefix, saying what it distrusted, or exit 2 with a
named error; none may raise.  ``compare``'s exit 1 stays reserved for
drift and regressions.
"""

import contextlib
import io
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.durable import frame, read_records
from repro.durable.resume import load_run_state
from repro.exec import ExecOptions, JobRunner, SimJob
from repro.harness.explain import explain_main
from repro.harness.spans_cli import spans_main
from repro.obs.report import report_main
from repro.perf import JournalError, RunRecord
from repro.perf.compare import compare_main
from repro.perf.watch import watch_main

#: Replacement values, one per JSON type (bool apart from int).
JSON_VALUES = [None, True, 7, 2.5, "x", [1], {"a": 1}]


@pytest.fixture(scope="module")
def journals(tmp_path_factory):
    base = tmp_path_factory.mktemp("records")
    options = dict(cache=False, journal_fsync="off",
                   manifest_dir=str(base / "runs"))
    plain = JobRunner(ExecOptions(**options))
    plain.run([SimJob.bar("compress", "inorder", label, 300, 100)
               for label in ("N", "S10")])
    traced = JobRunner(ExecOptions(trace_sample=1.0,
                                   trace_events=str(base / "traces"),
                                   **options))
    traced.run([SimJob.bar("compress", "inorder", "N", 300, 100)])
    return {"plain": plain.last_journal, "traced": traced.last_journal,
            "damaged": str(base / "damaged" / "journal.jsonl")}


def damage(source: str, how) -> bytes:
    """The bytes of *source* with the damage *how* applied."""
    with open(source, "rb") as fh:
        data = fh.read()
    kind = how[0]
    if kind == "truncate":
        return data[:how[1] % (len(data) + 1)]
    if kind == "flip":
        at = how[1] % len(data)
        return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]
    records, _, _ = read_records(source)
    if kind == "schema":
        records[0]["schema"] = 2
    else:
        record = records[how[1] % len(records)]
        field = sorted(record)[how[2] % len(record)]
        if kind == "remove":
            del record[field]
        else:
            choices = [value for value in JSON_VALUES
                       if type(value) is not type(record[field])]
            record[field] = choices[how[3] % len(choices)]
    return "".join(frame(record) for record in records).encode("utf-8")


def call(main, argv):
    """Run one reader CLI in process: its exit code and all it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    return code, out.getvalue()


damages = (
    st.tuples(st.sampled_from(["truncate", "flip"]),
              st.integers(min_value=0))
    | st.tuples(st.just("remove"), st.integers(min_value=0),
                st.integers(min_value=0))
    | st.tuples(st.just("retype"), st.integers(min_value=0),
                st.integers(min_value=0), st.integers(min_value=0))
    | st.just(("schema",)))


@given(which=st.sampled_from(["plain", "traced"]), how=damages)
@example(which="plain", how=("schema",))
@example(which="traced", how=("truncate", 10 ** 9))
@settings(max_examples=40, deadline=None)
def test_every_reader_ends_damage_in_a_named_outcome(journals, which, how):
    path = journals["damaged"]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(damage(journals[which], how))
    try:
        distrusted = RunRecord.load(path).distrusted
    except JournalError:
        distrusted = None  # every reader must exit 2
    readers = [(watch_main, [path, "--jobs-detail", "5"]),
               (compare_main, [path, journals[which]]),
               (spans_main, [path]),
               (explain_main, [path]),
               (report_main, [path])]
    for main, argv in readers:
        code, text = call(main, argv)
        assert code in ((2,) if distrusted is None else (0, 2)), text
        if code == 0 and distrusted:
            assert "distrusted" in text, text
    try:
        state = load_run_state(path)
    except JournalError:
        return
    assert [job.cache_key() for job in state.jobs()] == [
        entry["key"] for entry in state.grid]
