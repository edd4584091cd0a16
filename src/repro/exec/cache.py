"""On-disk content-addressed result store.

Layout: one JSON blob per job under ``<root>/<key[:2]>/<key>.json`` where
``key`` is :meth:`SimJob.cache_key`.  The root defaults to
``~/.cache/repro-exec`` and is overridable with ``REPRO_CACHE_DIR`` or the
``cache_dir`` execution option.  Every blob embeds the schema version and
the job's own serialization, so entries are self-describing and entries
written by an older schema are invalidated (counted and deleted) on read
rather than silently reused.

Writes are atomic (temp file + ``os.replace``) so a crashed or concurrent
run can never leave a half-written blob that later reads as a corrupt hit.

Integrity: every blob carries a ``crc`` — crc32 over the canonical JSON
of the blob minus the crc field itself — and every read verifies it.  An
entry that fails the check (bit rot, torn storage, a hand-edited file) is
*quarantined*: moved to ``<root>/quarantine/`` and counted in
``stats.corrupt``, never returned as a hit and never a traceback.  A file
the OS refuses to read (permissions, I/O error) is left in place and
counted in ``stats.read_errors`` — it may be readable next time.
``verify()`` / ``repair()`` run the same checks over the whole store for
the ``cache verify`` / ``cache repair`` CLI subcommands, and
``sweep_tmp()`` collects ``.tmp.<pid>`` droppings from writers killed
between ``write_text`` and ``os.replace`` (age-guarded so a live writer's
temp file survives).
"""

from __future__ import annotations

import json
import os
import time
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.exec.job import SCHEMA_VERSION, SimJob

_ENV_VAR = "REPRO_CACHE_DIR"
_ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"

#: With a size cap set, the cap is re-enforced every this many stores
#: (a full enforcement walks the store; per-put would be quadratic).
PRUNE_INTERVAL = 32

#: Where integrity-failed entries are moved (never silently deleted, so
#: a corruption burst can be investigated post hoc).
QUARANTINE_DIRNAME = "quarantine"

#: A ``.tmp.<pid>`` file younger than this is presumed to belong to a
#: live writer mid-``os.replace`` and is left alone by the sweeps.
TMP_MAX_AGE_SECONDS = 3600.0


def _canonical(obj: Any) -> str:
    """Canonical JSON: the byte-stable form the blob crc is computed over
    (independent of the pretty-printed on-disk formatting)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def blob_crc(blob: Dict[str, Any]) -> str:
    """The crc32 (hex8) of *blob* excluding its own ``crc`` field."""
    body = {k: v for k, v in blob.items() if k != "crc"}
    return f"{zlib.crc32(_canonical(body).encode('utf-8')) & 0xFFFFFFFF:08x}"


def parse_size(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (``"500M"``)."""
    text = str(text).strip()
    multiplier = 1
    suffixes = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    if text and text[-1].upper() in suffixes:
        multiplier = suffixes[text[-1].upper()]
        text = text[:-1]
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"unparseable size {text!r}: expected an integer "
                         f"byte count with an optional K/M/G suffix")
    if value < 0:
        raise ValueError(f"size must be non-negative, got {value}")
    return value * multiplier


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-exec"


@dataclass
class CacheStats:
    """Accounting for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0  # stale-schema or undecodable entries dropped
    store_failures: int = 0  # writes skipped (disk full, read-only root...)
    evictions: int = 0  # entries pruned to keep the store under its cap
    corrupt: int = 0  # entries that failed the crc check -> quarantined
    read_errors: int = 0  # OS-level read failures (entry left in place)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "invalidations": self.invalidations,
                "store_failures": self.store_failures,
                "evictions": self.evictions,
                "corrupt": self.corrupt,
                "read_errors": self.read_errors,
                "hit_rate": round(self.hit_rate, 4)}


@dataclass
class ResultCache:
    """Content-addressed store of job results keyed by ``cache_key``."""

    root: Path = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)
    #: Soft size cap in bytes: every :data:`PRUNE_INTERVAL` stores the
    #: store is pruned back under it (oldest-mtime entries first).  None
    #: defers to ``REPRO_CACHE_MAX_BYTES``; both unset means unbounded.
    max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        self.root = Path(self.root).expanduser()
        self._store_warned = False
        self._stores_since_prune = 0
        if self.max_bytes is None:
            env = os.environ.get(_ENV_MAX_BYTES, "").strip()
            if env:
                try:
                    self.max_bytes = parse_size(env)
                except ValueError:
                    warnings.warn(
                        f"ignoring unparseable {_ENV_MAX_BYTES}={env!r}",
                        RuntimeWarning, stacklevel=2)

    # -- addressing ----------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- lookup / store ------------------------------------------------------
    def get(self, job: SimJob) -> Optional[Dict[str, Any]]:
        """Return the cached result dict for *job*, or None on a miss.

        Every non-hit outcome is a counted, named miss:

        * a file the OS cannot read right now counts in
          ``stats.read_errors`` and stays on disk (transient errors —
          permissions, NFS hiccups — may clear);
        * an entry that fails integrity (undecodable JSON, bad crc)
          counts in ``stats.corrupt`` and is quarantined, so it stops
          costing a parse on every probe and stays inspectable;
        * an entry from another schema version, or one predating the
          embedded checksum, counts in ``stats.invalidations`` and is
          deleted (honest staleness, not damage).
        """
        path = self.path_for(job.cache_key())
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self.stats.read_errors += 1
            self.stats.misses += 1
            return None
        status, blob = self._classify(raw)
        if status == "corrupt":
            self._quarantine(path)
            self.stats.misses += 1
            return None
        if status == "stale":
            self._drop(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return blob["result"]

    def _classify(self, raw: bytes):
        """Integrity-check one blob's bytes: ``(status, blob_or_None)``
        with status ``"ok"`` | ``"corrupt"`` | ``"stale"``."""
        try:
            blob = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            # A bit flip can damage the encoding as easily as the JSON.
            return "corrupt", None
        if (not isinstance(blob, dict)
                or blob.get("schema") != SCHEMA_VERSION
                or "result" not in blob or "crc" not in blob):
            # Wrong schema or a pre-checksum blob: stale, not damaged.
            return "stale", None
        if blob["crc"] != blob_crc(blob):
            return "corrupt", None
        return "ok", blob

    def put(self, job: SimJob, result: Dict[str, Any]) -> Optional[Path]:
        """Store *result* for *job* atomically; returns the blob path.

        Storing is best-effort: an OSError anywhere in the write (disk
        full, read-only root, quota) degrades to a skipped store — the
        result is already computed, so the run must not die for the sake
        of a cache entry.  Skips are counted in ``stats.store_failures``
        and reported once per cache instance; the method returns None.
        """
        key = job.cache_key()
        path = self.path_for(key)
        blob = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "job": job.to_dict(),
            "result": result,
            "created": time.time(),
        }
        blob["crc"] = blob_crc(blob)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(blob, sort_keys=True, indent=1))
            os.replace(tmp, path)
        except OSError as exc:
            self.stats.store_failures += 1
            try:
                tmp.unlink()
            except OSError:
                pass
            if not self._store_warned:
                self._store_warned = True
                warnings.warn(
                    f"result cache at {self.root} is not writable "
                    f"({type(exc).__name__}: {exc}); results will not be "
                    f"cached for this run", RuntimeWarning, stacklevel=2)
            return None
        self.stats.stores += 1
        if self.max_bytes is not None:
            self._stores_since_prune += 1
            if self._stores_since_prune >= PRUNE_INTERVAL:
                self.enforce_cap()
        return path

    def _drop(self, path: Path) -> None:
        self.stats.invalidations += 1
        try:
            path.unlink()
        except OSError:
            pass

    def _quarantine(self, path: Path) -> None:
        """Move an integrity-failed entry to ``<root>/quarantine/``.

        The move keeps the damaged bytes around for a post-mortem while
        taking them out of the lookup path.  If even the move fails the
        entry is deleted; either way the probe degrades to a counted
        miss, never a traceback.
        """
        self.stats.corrupt += 1
        qdir = self.root / QUARANTINE_DIRNAME
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    # -- maintenance ---------------------------------------------------------
    def _entries(self):
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("??/*.json")):
            yield path

    def entry_count(self) -> int:
        return sum(1 for _ in self._entries())

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self._entries())

    def purge(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def prune(self, max_bytes: int) -> Dict[str, Any]:
        """Evict oldest-mtime entries until the store fits *max_bytes*.

        Mtime (not the blob's ``created`` stamp) orders eviction so that
        the policy survives entries written by other schema versions or
        left half-described; a concurrently-deleted entry is skipped.
        Evictions are counted in ``stats.evictions``.  Returns a summary
        dict for the CLI / service telemetry.
        """
        entries = []
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        total = sum(size for _, size, _ in entries)
        removed = 0
        freed = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            freed += size
            removed += 1
        self.stats.evictions += removed
        return {"removed": removed, "freed_bytes": freed,
                "remaining_bytes": total,
                "remaining_entries": len(entries) - removed,
                "max_bytes": max_bytes,
                "tmp_swept": self.sweep_tmp()}

    # -- integrity -----------------------------------------------------------
    def sweep_tmp(self, max_age: float = TMP_MAX_AGE_SECONDS) -> int:
        """Delete ``.tmp.<pid>`` files older than *max_age* seconds.

        These are the droppings of writers killed between ``write_text``
        and ``os.replace``.  The age guard keeps a live writer's temp
        file (by construction younger than its own in-flight put) safe
        from a concurrent sweep; returns the number removed.
        """
        removed = 0
        if not self.root.is_dir():
            return 0
        now = time.time()
        for path in list(self.root.glob("??/*.tmp.*")):
            try:
                if now - path.stat().st_mtime < max_age:
                    continue
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def verify(self, repair: bool = False,
               tmp_max_age: float = TMP_MAX_AGE_SECONDS) -> Dict[str, Any]:
        """Integrity-scan every entry; optionally act on what it finds.

        With ``repair=False`` the scan only classifies (and sweeps stale
        temp files — that is always safe); with ``repair=True`` corrupt
        entries are quarantined and stale-schema entries deleted, exactly
        as a ``get()`` on each of them would have done.  Returns a
        summary dict for the ``cache verify`` / ``cache repair`` CLI.
        """
        checked = ok = corrupt = stale = read_errors = 0
        quarantined = removed_stale = 0
        for path in list(self._entries()):
            checked += 1
            try:
                raw = path.read_bytes()
            except OSError:
                read_errors += 1
                self.stats.read_errors += 1
                continue
            status, _ = self._classify(raw)
            if status == "ok":
                ok += 1
            elif status == "corrupt":
                corrupt += 1
                if repair:
                    self._quarantine(path)
                    quarantined += 1
            else:
                stale += 1
                if repair:
                    self._drop(path)
                    removed_stale += 1
        return {"checked": checked, "ok": ok, "corrupt": corrupt,
                "stale": stale, "read_errors": read_errors,
                "quarantined": quarantined, "removed_stale": removed_stale,
                "tmp_swept": self.sweep_tmp(tmp_max_age), "repair": repair}

    def quarantine_count(self) -> int:
        """Entries currently sitting in ``<root>/quarantine/``."""
        qdir = self.root / QUARANTINE_DIRNAME
        if not qdir.is_dir():
            return 0
        return sum(1 for entry in qdir.iterdir() if entry.is_file())

    def enforce_cap(self) -> Optional[Dict[str, Any]]:
        """Prune back under ``max_bytes``, when a cap is configured."""
        if self.max_bytes is None:
            return None
        self._stores_since_prune = 0
        return self.prune(self.max_bytes)

    def describe(self) -> Dict[str, Any]:
        """Inventory for the ``repro.exec cache`` CLI / bench telemetry."""
        return {
            "dir": str(self.root),
            "schema": SCHEMA_VERSION,
            "entries": self.entry_count(),
            "size_bytes": self.size_bytes(),
            "max_bytes": self.max_bytes,
            "quarantined": self.quarantine_count(),
            "session": self.stats.as_dict(),
        }
