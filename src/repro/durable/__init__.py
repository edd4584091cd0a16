"""Crash-safe execution: write-ahead run journals and kill-and-resume.

``repro.durable`` is the durability layer under the exec engine and the
serve gateway: :mod:`repro.durable.journal` provides the crc32-framed
append-only journal both of them write, and :mod:`repro.durable.resume`
turns a dead run's journal back into a finished figure
(``python -m repro.harness resume <run_id>``).  The package re-exports
the journal, which every importer needs; ``resume`` loads with its
command.
"""

from repro.durable.journal import (
    EXEC_KIND,
    FSYNC_POLICIES,
    HEADER_RECORD,
    JOURNAL_NAME,
    JOURNAL_SCHEMA,
    RecordScanner,
    RunJournal,
    check_header,
    frame,
    header_record,
    read_records,
    unframe,
)

__all__ = [
    "EXEC_KIND",
    "FSYNC_POLICIES",
    "HEADER_RECORD",
    "JOURNAL_NAME",
    "JOURNAL_SCHEMA",
    "RecordScanner",
    "RunJournal",
    "check_header",
    "frame",
    "header_record",
    "read_records",
    "unframe",
]
