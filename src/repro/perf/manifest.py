"""The run record: one resolver and one fold over a run's journal.

An engine run's one file is the crc-framed journal
``<runs_root>/<run_id>/journal.jsonl`` (:mod:`repro.durable.journal`).
Every reader — ``resume``, ``watch``, ``compare``, ``explain``,
``report``, ``spans`` and the gateway's ``GET /runs/<id>`` — finds it
with :func:`journal_path_for` and folds it with one incremental
:class:`RunRecord`, which reads a killed run like a finished one.

A journal is outside input, so the fold checks each field it reads,
once: a header of another kind or schema, or with a field of the wrong
type, raises :class:`JournalError` naming file, line and field; any
later record of the wrong shape ends the trusted prefix as a bad frame
does, and is counted and named (``distrusted``, ``problem``).

Run ids are ``<UTC stamp>-<experiment>-<pid>-<seq>``: sortable, unique
within and across processes, and human-greppable.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import re
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.durable.journal import (
    EXEC_KIND,
    HEADER_RECORD,
    JOURNAL_NAME,
    JOURNAL_SCHEMA,
    RecordScanner,
)

ENV_RUNS_DIR = "REPRO_RUNS_DIR"
DEFAULT_RUNS_ROOT = os.path.join("results", "runs")

_run_seq = itertools.count()


def runs_root(explicit: Optional[str] = None) -> str:
    """The runs root: *explicit*, ``REPRO_RUNS_DIR``, or the default."""
    return (explicit or os.environ.get(ENV_RUNS_DIR, "").strip()
            or DEFAULT_RUNS_ROOT)


def new_run_id(experiment: Optional[str] = None) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    tag = (experiment or "run").replace("/", "_")
    return f"{stamp}-{tag}-{os.getpid()}-{next(_run_seq)}"


def machine_fingerprint() -> Dict[str, Any]:
    """Where this run happened: enough to explain wall-time deltas."""
    import platform

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count(),
        "hostname": platform.node(),
    }


def config_digest(keys: Iterable[str]) -> str:
    """One hex digest over the whole grid's content addresses (cache keys).

    Two runs with equal digests simulated the exact same cells (same
    benchmarks, machines, bars, run lengths, seeds and code version), so
    their simulated stats are directly comparable.
    """
    digest = hashlib.sha256()
    for key in sorted(keys):
        digest.update(key.encode("ascii"))
    return digest.hexdigest()


class JournalError(ValueError):
    """A run journal could not be located or read, or is not a readable
    engine-run journal."""


def journal_path_for(ref: str, root: Optional[str] = None) -> str:
    """Resolve *ref* (run id, run directory, or journal path) to the
    journal's path."""
    candidates = [
        ref,
        os.path.join(ref, JOURNAL_NAME),
        os.path.join(runs_root(root), ref, JOURNAL_NAME),
    ]
    for candidate in candidates:
        if os.path.isfile(candidate):
            return candidate
    raise JournalError(
        f"no run journal found for {ref!r} (tried the path itself, "
        f"<ref>/{JOURNAL_NAME}, and {runs_root(root)}/<ref>/{JOURNAL_NAME})")


# -- the fields the fold reads -------------------------------------------------

_SURROGATE = re.compile("[\ud800-\udfff]")


def _str(value: Any) -> bool:
    # A lone surrogate (a hand-edited ``\\udXXX`` escape) cannot be
    # printed, so it is not a string any reader can use.
    return type(value) is str and _SURROGATE.search(value) is None


def _int(value: Any) -> bool:
    return type(value) is int and abs(value) < 2 ** 63


def _num(value: Any) -> bool:
    return _int(value) or (type(value) is float and math.isfinite(value))


def _bool(value: Any) -> bool:
    return type(value) is bool


def _list(value: Any) -> bool:
    return type(value) is list


def _dict(value: Any) -> bool:
    return type(value) is dict


_TYPES = {_str: "a string", _int: "an integer", _num: "a finite number",
          _bool: "a boolean", _list: "a list", _dict: "an object"}

_KEYED = {"key": _str, "label": _str, "attempt": _int, "ts": _num,
          "error": _str}

#: Per record type, each field the fold or a reader reads and the test
#: its value must pass; absent and ``null`` fields pass.
_FIELDS: Dict[str, Dict[str, Callable[[Any], bool]]] = {
    HEADER_RECORD: {"kind": _str, "run_id": _str, "experiment": _str,
                    "argv": _list, "seed": _int, "git_sha": _str,
                    "workers": _int, "jobs": _int, "cache": _bool,
                    "resumed_from": _str, "settings": _dict,
                    "machine": _dict},
    "run_start": {"jobs": _list, "ts": _num},
    "job_start": _KEYED,
    "job_finish": dict(_KEYED, cache=_str, wall=_num, sim=_dict,
                       trace=_str, metrics_digest=_str),
    "job_fail": _KEYED,
    "job_retry": _KEYED,
    "job_drained": _KEYED,
    "pool_broken": _KEYED,
    "run_end": {"status": _str, "error": _str, "stats": _dict, "ts": _num},
    "span": {"span_id": _str, "trace_id": _str, "parent_id": _str,
             "name": _str, "start": _num, "end": _num, "pid": _int,
             "status": _str, "attrs": _dict},
}
#: The header fields the run's JSON view carries.
_PROVENANCE = ("run_id", "experiment", "argv", "seed", "git_sha",
               "machine", "workers", "cache", "resumed_from", "settings")
#: Fields a record cannot be folded without.
_REQUIRED = {HEADER_RECORD: ("kind",), "span": ("span_id",),
             **{rec: ("key",) for rec in ("job_start", "job_finish",
                                          "job_fail", "job_retry",
                                          "job_drained", "pool_broken")}}
_SETTINGS = {"backend": _str, "sanitize": _bool, "trace_events": _str,
             "trace_sample": _num}
_ATTRS = {"label": _str, "mode": _str}
_ENTRY = {"key": _str, "job": _dict}
_JOB = {"kind": _str, "machine": _str, "benchmark": _str,
        "instructions": _int, "warmup": _int, "seed": _int,
        "config": _dict}
_JOB_REQUIRED = ("kind", "machine", "benchmark", "instructions", "warmup")
_CONFIG = {"label": _str, "method": _str, "experiment": _str,
           "policy": _str}


def _field_problem(record: Dict[str, Any],
                   fields: Dict[str, Callable[[Any], bool]],
                   required: Sequence[str], where: str,
                   nullable: bool = True) -> Optional[str]:
    """The first field of *record* that is missing or fails its test; a
    ``null`` passes for an optional field when *nullable*."""
    for name, test in fields.items():
        if name not in record:
            if name in required:
                return f"{where}{name} is missing"
            continue
        value = record[name]
        if value is None and nullable and name not in required:
            continue
        if not test(value):
            return f"{where}{name} is not {_TYPES[test]}"
    return None


def _problem(record: Dict[str, Any]) -> Optional[str]:
    """What is wrong with the shape of *record*; None when nothing is
    (a record type this build does not read is not checked)."""
    rec = record.get("rec")
    if not _str(rec):
        return "rec is missing" if rec is None else "rec is not a string"
    fields = _FIELDS.get(rec)
    if fields is None:
        return None
    where = f"{rec}."
    # The tracer writes no null span field, and the span readers take a
    # present null for a value.
    problem = _field_problem(record, fields, _REQUIRED.get(rec, ()), where,
                             nullable=rec != "span")
    if problem is not None:
        return problem
    if rec == HEADER_RECORD:
        return _field_problem(record.get("settings") or {}, _SETTINGS, (),
                              where + "settings.")
    if rec == "span":
        return _field_problem(record.get("attrs") or {}, _ATTRS, (),
                              where + "attrs.", nullable=False)
    if rec == "run_start":
        for index, entry in enumerate(record.get("jobs") or ()):
            at = f"{where}jobs[{index}]"
            if not _dict(entry):
                return f"{at} is not an object"
            problem = (
                _field_problem(entry, _ENTRY, ("key", "job"), at + ".")
                or _field_problem(entry["job"], _JOB, _JOB_REQUIRED,
                                  at + ".job.")
                or _field_problem(entry["job"].get("config") or {},
                                  _CONFIG, (), at + ".job.config."))
            if problem is not None:
                return problem
    return None


def _label(job: Dict[str, Any]) -> str:
    """A grid entry's job label; the same text as
    :attr:`repro.exec.SimJob.label`, which this module does not import
    (that would load the engine into every reader)."""
    config = job.get("config") or {}
    tag = (config.get("label") or config.get("method")
           or config.get("experiment") or job["kind"])
    return f"{job['benchmark']}/{job['machine']}/{tag}"


# -- the fold ------------------------------------------------------------------

class RunRecord:
    """One run's record, folded incrementally from its journal's lines
    (:meth:`feed_text` split anywhere, then :meth:`close`; or
    :meth:`load`).  ``cells`` maps each cache key, in grid order, to the
    cell's label, status (``queued``, ``running``, ``ok``, ``failed`` or
    ``drained``), cache state, wall, attempts, error, trace path,
    ``sim`` and metrics digest."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        #: The first header record; None for a headerless journal.
        self.header: Optional[Dict[str, Any]] = None
        #: Sum of the headers' ``jobs`` counts, should several runs'
        #: journals be fed to one record (``watch`` does).
        self.header_jobs = 0
        #: The ``run_start`` entries (``{"key", "job"}``), in grid order.
        self.grid: List[Dict[str, Any]] = []
        self.cells: Dict[str, Dict[str, Any]] = {}
        #: True once a ``run_end`` arrived; then ``status`` ("ok",
        #: "failed" or "drained"), ``error`` and ``stats`` are its own.
        self.ended = False
        self.status: Optional[str] = None
        self.error: Optional[str] = None
        self.stats: Dict[str, Any] = {}
        self.retries = 0
        self.pool_breaks = 0
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        #: The label of the cell whose outcome arrived last.
        self.last_label: Optional[str] = None
        self.spans: List[Dict[str, Any]] = []
        #: ``<path>:<line>: <rec>.<field> ...`` for the first record of
        #: the wrong shape; it and every later line are distrusted.
        self.problem: Optional[str] = None
        self._lines = 0
        self._misshapen = 0
        self._scanner = RecordScanner()

    @classmethod
    def load(cls, path: str) -> "RunRecord":
        """Fold the whole journal at *path*."""
        record = cls(path)
        try:
            # Undecodable bytes become U+FFFD, which then fails the crc.
            with open(path, encoding="utf-8", errors="replace") as fh:
                record.feed_text(fh.read())
        except OSError as exc:
            raise JournalError(f"cannot read {path}: {exc}")
        record.close()
        return record

    # -- ingestion -----------------------------------------------------------
    def feed_text(self, text: str) -> None:
        """Consume a chunk of the journal (any split is fine)."""
        for record in self._scanner.feed(text):
            self._fold(record)

    def close(self) -> None:
        """End of input: a trailing line without its newline is torn."""
        for record in self._scanner.close():
            self._fold(record)

    def _fold(self, record: Dict[str, Any]) -> None:
        self._lines += 1
        if self.problem is not None:
            self._misshapen += 1
            return
        problem = _problem(record)
        rec = record.get("rec")
        if rec == HEADER_RECORD:
            self._fold_header(record, problem)
            return
        if problem is not None:
            self.problem = f"{self._where()}: {problem}"
            self._misshapen += 1
            return
        if rec not in _FIELDS:
            return
        if rec == "span":
            self.spans.append(record)
            return
        ts = record.get("ts")
        if ts is not None:
            if self.first_ts is None:
                self.first_ts = ts
            self.last_ts = ts
        if rec == "run_start":
            for entry in record.get("jobs") or ():
                job = entry["job"]
                self._cell(entry["key"]).update(
                    label=_label(job), kind=job["kind"],
                    benchmark=job["benchmark"], machine=job["machine"])
                self.grid.append(entry)
        elif rec == "run_end":
            self.ended = True
            self.status = record.get("status")
            self.error = record.get("error")
            self.stats = record.get("stats") or {}
        else:
            self._fold_job(rec, record)

    def _fold_header(self, record: Dict[str, Any],
                     problem: Optional[str]) -> None:
        kind, schema = record.get("kind"), record.get("schema")
        if kind != EXEC_KIND:
            raise JournalError(
                f"{self._where()}: journal kind {kind!r} is not an "
                f"engine run ({EXEC_KIND!r})")
        if type(schema) is not int or schema != JOURNAL_SCHEMA:
            raise JournalError(
                f"{self._where()}: journal declares schema {schema!r}; "
                f"this build understands schema {JOURNAL_SCHEMA} — "
                f"regenerate the run or upgrade")
        if problem is not None:
            raise JournalError(f"{self._where()}: {problem}")
        if self.header is None:
            self.header = record
        self.header_jobs += record.get("jobs") or 0

    def _fold_job(self, rec: str, record: Dict[str, Any]) -> None:
        cell = self._cell(record["key"], record.get("label"))
        cell["attempts"] = max(cell["attempts"], record.get("attempt") or 0)
        if rec == "job_start":
            cell["status"] = "running"
        elif rec == "job_finish":
            cell.update(status="ok", cache=record.get("cache"),
                        wall=record.get("wall"), trace=record.get("trace"),
                        sim=record.get("sim"),
                        metrics_digest=record.get("metrics_digest"))
            self.last_label = cell["label"]
        elif rec == "job_fail":
            cell.update(status="failed",
                        error=record.get("error") or "failed")
            self.last_label = cell["label"]
        elif rec == "job_drained":
            cell["status"] = "drained"
            self.last_label = cell["label"]
        elif rec == "job_retry":
            self.retries += 1
        else:  # pool_broken
            self.pool_breaks += 1

    def _cell(self, key: str, label: Optional[str] = None
              ) -> Dict[str, Any]:
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = {
                "key": key, "label": label or key[:16], "kind": None,
                "benchmark": None, "machine": None, "status": "queued",
                "cache": None, "wall": None, "attempts": 0, "error": None,
                "trace": None, "sim": None, "metrics_digest": None}
        return cell

    def _where(self) -> str:
        return f"{self.path or 'journal'}:{self._lines}"

    # -- derived state -------------------------------------------------------
    @property
    def distrusted(self) -> int:
        """Lines distrusted from the first bad frame or wrong-shaped
        record on."""
        return self._scanner.bad_lines + self._misshapen

    @property
    def intact(self) -> int:
        """Records of the trusted prefix."""
        return self._lines - self._misshapen

    @property
    def head(self) -> Dict[str, Any]:
        return self.header or {}

    @property
    def run_id(self) -> Optional[str]:
        return self.head.get("run_id")

    @property
    def settings(self) -> Dict[str, Any]:
        return self.head.get("settings") or {}

    @property
    def cache(self) -> bool:
        """Whether the run used the result cache (journals that predate
        the header's ``cache`` field did)."""
        return self.head.get("cache") is not False

    @property
    def config_digest(self) -> str:
        return config_digest(entry["key"] for entry in self.grid)

    def require_grid(self) -> "RunRecord":
        """This record, or JournalError when it lacks an intact header
        or ``run_start`` grid (what ``compare`` and ``resume`` need)."""
        if self.header is None:
            raise JournalError(
                f"{self.path} does not lead with an intact engine-run "
                f"journal header (distrusted {self.distrusted} line(s)); "
                f"it is corrupt from the start or not a run journal")
        if not self.grid:
            raise JournalError(
                f"no intact run_start record: {self.problem}"
                if self.problem else
                f"{self.path} holds no run_start record: the run died "
                f"before announcing its grid")
        return self

    def jobs(self) -> List:
        """The grid's :class:`~repro.exec.SimJob` s, in grid order."""
        from repro.exec import SimJob

        return [SimJob.from_dict(entry["job"]) for entry in self.grid]

    def as_dict(self) -> Dict[str, Any]:
        """The JSON view of the run (``GET /runs/<id>``)."""
        view = {name: self.head.get(name) for name in _PROVENANCE}
        view.update(
            config_digest=self.config_digest,
            status=self.status if self.ended else "unfinished",
            error=self.error, stats=self.stats, retries=self.retries,
            pool_breaks=self.pool_breaks, first_ts=self.first_ts,
            last_ts=self.last_ts, distrusted=self.distrusted,
            problem=self.problem, cells=list(self.cells.values()))
        return view
