"""The write-ahead run journal: crash-safe, append-only, self-checking.

A :class:`RunJournal` is an append-only JSONL file in which every line is
a crc32-framed record::

    <crc32 hex8> <canonical JSON payload>\n

The crc is computed over the exact payload bytes, so a torn tail (a
writer SIGKILLed mid-``write``), a truncated file, or a flipped byte is
detected on read instead of being half-parsed.  :func:`read_records`
(and :class:`RecordScanner`, its incremental form for readers tailing a
live file) scans a journal conservatively: it stops at the first record
that fails the frame check and reports how much it trusted — everything
before the bad record is intact (appends never rewrite earlier bytes),
everything after is unknown and treated as never-happened, which for a
write-ahead log is always the safe direction (work is re-done, never
skipped).  It is the only parser of run records: ``resume``, ``watch``,
``spans`` and the gateway's recovery all read through it, the first four
by way of the one fold of a run's records, :class:`repro.perf.RunRecord`.

Durability is set per journal (:data:`FSYNC_POLICIES`):

* ``"always"`` — fsync after every append (the default: a record that
  was reported written survives a power loss);
* ``"off"`` — flush to the OS only (survives a process kill, not a
  machine crash).

Append failures (ENOSPC, a yanked filesystem, a read-only mount) never
raise out of :meth:`RunJournal.append`: the journal counts the error,
disables itself, warns once, and every later append reports ``False`` —
the run it is journaling must not die for the sake of its log.  Callers
surface ``journal.errors`` as a named, counted outcome in their own
telemetry, and may :meth:`RunJournal.rewrite` the whole file from the
records they kept in memory once the run is over, as the engine does.

Whole files (a rewritten journal, BENCH snapshots) are replaced
atomically; :func:`atomic_write_json` lives here so that the snapshots'
readers load nothing from the engine.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Journal layout version, embedded in the header record; readers reject
#: versions they do not understand instead of mis-parsing.
JOURNAL_SCHEMA = 1

#: Discriminator record type written as the first line of every journal.
HEADER_RECORD = "journal_header"

#: Header kind of an exec-engine run record (see ``JobRunner``).
EXEC_KIND = "exec_run"

FSYNC_POLICIES = ("always", "off")

#: Conventional journal file name inside a run directory.
JOURNAL_NAME = "journal.jsonl"


def frame(record: Dict[str, Any]) -> str:
    """One journal line for *record*: ``<crc32 hex8> <canonical json>``."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"),
                         allow_nan=False)
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}\n"


def unframe(line: str) -> Optional[Dict[str, Any]]:
    """Parse one journal line; None if the frame or crc check fails."""
    if len(line) < 10 or line[8] != " ":
        return None
    crc_text, payload = line[:8], line[9:]
    try:
        expected = int(crc_text, 16)
    except ValueError:
        return None
    if zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF != expected:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


class RunJournal:
    """Append-only, crc-framed, fsync-policied record log.

    The journal opens lazily on the first append (so constructing one
    for a run that journals nothing costs no I/O) and never raises from
    :meth:`append`: I/O failures disable the journal, are counted in
    ``errors``, and surface as a one-time RuntimeWarning.  *fsync* is
    one of :data:`FSYNC_POLICIES`; an unknown name raises ValueError (a
    typo must not silently weaken durability).
    """

    def __init__(self, path: str, fsync: str = "always",
                 mode: str = "a") -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync!r}; "
                             f"choose from {FSYNC_POLICIES}")
        self.path = str(path)
        self.policy = fsync
        self.errors = 0
        self.records_written = 0
        self._mode = mode
        self._fh = None
        self._disabled = False
        self._warned = False

    @property
    def disabled(self) -> bool:
        """True once an I/O failure stopped this journal for good."""
        return self._disabled

    # -- writing -------------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> bool:
        """Durably append one record; False if the journal is disabled.

        A failed append (ENOSPC, EROFS, a vanished directory) counts in
        ``errors`` and permanently disables the journal — the caller's
        run continues, merely without crash-safety from here on.
        """
        return self.extend((record,))

    def extend(self, records: Sequence[Dict[str, Any]]) -> bool:
        """Append *records* with one write and at most one fsync (a
        traced run's span records land in a single batch)."""
        if self._disabled:
            return False
        try:
            if self._fh is None:
                os.makedirs(os.path.dirname(self.path) or ".",
                            exist_ok=True)
                self._fh = open(self.path, self._mode)
            self._fh.write("".join(frame(record) for record in records))
            self._fh.flush()
            if self.policy == "always":
                os.fsync(self._fh.fileno())
        except (OSError, ValueError) as exc:
            self._fail(exc)
            return False
        self.records_written += len(records)
        return True

    def record(self, rec: str, **fields: Any) -> bool:
        """Append ``{"rec": rec, **fields}``."""
        return self.append(dict(fields, rec=rec))

    def rewrite(self, records: Sequence[Dict[str, Any]]) -> bool:
        """Replace the file with exactly *records*, written whole and
        renamed over it, so a reader sees the old lines or all the new
        ones; False if that write fails too."""
        try:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            _atomic_write(self.path,
                          "".join(frame(record) for record in records),
                          fsync=self.policy == "always")
        except OSError:
            return False
        self.records_written = len(records)
        return True

    def _fail(self, exc: BaseException) -> None:
        self.errors += 1
        self._disabled = True
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"run journal at {self.path} is not writable "
                f"({type(exc).__name__}: {exc}); the run continues "
                f"without crash-safety", RuntimeWarning, stacklevel=3)
        self._close_quietly()

    def _close_quietly(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def close(self) -> None:
        """Flush, fsync (unless ``off``) and close the journal file."""
        if self._fh is None:
            return
        try:
            self._fh.flush()
            if self.policy != "off":
                os.fsync(self._fh.fileno())
        except (OSError, ValueError) as exc:
            self._fail(exc)
            return
        self._close_quietly()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RecordScanner:
    """Incremental :func:`read_records` for a journal read in chunks.

    :meth:`feed` takes text split anywhere.  Complete lines are unframed
    in order; the first one that fails the frame check and every line
    after it are distrusted (counted in ``bad_lines``), so ``records``
    is always the journal's trusted prefix.  A last line still missing
    its newline is held back until the rest arrives — a writer caught
    mid-append, not corruption — unless :meth:`close` declares the input
    finished, which makes it a torn tail.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.bad_lines = 0
        self._partial = ""

    @property
    def truncated(self) -> bool:
        return self.bad_lines > 0

    def feed(self, text: str) -> List[Dict[str, Any]]:
        """Consume *text*; return the records it completed."""
        lines = (self._partial + text).split("\n")
        self._partial = lines.pop()
        return self._scan(lines)

    def close(self) -> List[Dict[str, Any]]:
        """End of input: a held-back partial line counts as torn."""
        tail, self._partial = self._partial, ""
        return self._scan([tail] if tail else [])

    def _scan(self, lines: List[str]) -> List[Dict[str, Any]]:
        fresh = []
        for line in lines:
            record = None if self.bad_lines else unframe(line)
            if record is None:
                self.bad_lines += 1
            else:
                fresh.append(record)
        self.records.extend(fresh)
        return fresh


def read_records(path: str) -> Tuple[List[Dict[str, Any]], int, bool]:
    """Scan a journal file; returns ``(records, bad_lines, truncated)``.

    The scan is conservative: it stops at the first line that fails the
    crc frame (a torn tail, a flipped byte, a half-written record) and
    reports ``truncated=True`` with ``bad_lines`` counting how many
    trailing lines were distrusted.  Records before the first bad line
    are exactly the journal's durable prefix.  A missing file reads as
    an empty, untruncated journal.
    """
    scanner = RecordScanner()
    try:
        # Undecodable bytes become U+FFFD, which then fails the crc:
        # damage is distrusted like any other, never a traceback.
        with open(path, encoding="utf-8", errors="replace") as fh:
            scanner.feed(fh.read())
    except FileNotFoundError:
        return [], 0, False
    scanner.close()
    return scanner.records, scanner.bad_lines, scanner.truncated


def header_record(kind: str, **fields: Any) -> Dict[str, Any]:
    """The self-describing first record of a journal file."""
    return dict(fields, rec=HEADER_RECORD, kind=kind,
                schema=JOURNAL_SCHEMA)


def check_header(records: List[Dict[str, Any]], kind: str) -> bool:
    """True when *records* lead with a compatible header for *kind*."""
    if not records:
        return False
    head = records[0]
    return (head.get("rec") == HEADER_RECORD and head.get("kind") == kind
            and head.get("schema") == JOURNAL_SCHEMA)


def atomic_write_json(path, data: Any) -> None:
    """Write *data* as JSON via a same-directory tmp file + rename.

    ``os.replace`` is atomic on POSIX, so readers (and git) only ever see
    the old file or the complete new one — never a truncated write.
    """
    _atomic_write(os.fspath(path),
                  json.dumps(data, indent=2, sort_keys=True) + "\n")


def _atomic_write(path: str, text: str, fsync: bool = False) -> None:
    """Write *text* to a same-directory tmp file (fsynced when *fsync*)
    and rename it over *path*."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
