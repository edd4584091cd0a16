"""Crash-safe execution: write-ahead run journals and kill-and-resume.

``repro.durable`` is the durability layer under the exec engine and the
serve gateway: :mod:`repro.durable.journal` provides the crc32-framed
append-only journal both of them write, and :mod:`repro.durable.resume`
turns a dead run's journal back into a finished figure
(``python -m repro.harness resume <run_id>``).
"""

from repro.durable.journal import (
    BATCH_FSYNC_INTERVAL,
    ENV_FSYNC,
    EXEC_KIND,
    FSYNC_POLICIES,
    HEADER_RECORD,
    JOURNAL_NAME,
    JOURNAL_SCHEMA,
    RecordScanner,
    RunJournal,
    check_header,
    frame,
    fsync_policy,
    header_record,
    read_records,
    unframe,
)
from repro.durable.resume import (
    JournalError,
    RunState,
    journal_path_for,
    load_run_state,
    resume_main,
)

__all__ = [
    "BATCH_FSYNC_INTERVAL",
    "ENV_FSYNC",
    "EXEC_KIND",
    "FSYNC_POLICIES",
    "HEADER_RECORD",
    "JOURNAL_NAME",
    "JOURNAL_SCHEMA",
    "JournalError",
    "RecordScanner",
    "RunJournal",
    "RunState",
    "check_header",
    "frame",
    "fsync_policy",
    "header_record",
    "journal_path_for",
    "load_run_state",
    "read_records",
    "resume_main",
    "unframe",
]
