"""Seeded fault injection: prove the sanitizer's checks are not vacuous.

A :class:`ChaosInjector` deliberately corrupts live simulator state
mid-run — the way a real state-machine bug would — and the chaos test
suite asserts every fault class is caught by a named invariant within a
bounded window.  Faults corrupt *state* (dicts, entry fields, register
values) rather than replacing whole methods, so the sanitizer hooks
inside those methods keep running and must find the damage on a later
event, exactly as they would for an organic bug.

Fault classes (:data:`FAULT_CLASSES`), and the invariant that must
catch each (:data:`CAUGHT_BY`):

* ``mshr_leak`` — a retiring MSHR is resurrected unpinned (a dropped
  release / double-allocated register).
* ``duplicate_tag`` — a just-filled L1 line is also installed in a
  foreign set (or past the set's associativity in a 1-set cache).
* ``skip_invalidate`` — the L1 invalidation a squashed, filled,
  extended-lifetime MSHR must perform is silently lost (Section 3.3).
* ``corrupt_mhrr`` — the miss-handler return register is flipped after
  the trap latches it.
* ``spurious_trap`` — a primary-cache *hit* raises the informing
  signal (handler entered without a miss).

Pool-level chaos (worker death, transient worker faults) lives in
:func:`chaos_execute`, a module-level payload the exec tests plug into
:class:`repro.exec.JobRunner`.
"""

from __future__ import annotations

import os
import signal
from typing import Any, Dict, Optional

from repro.sanitize.violation import InvariantViolation

#: In-simulator fault classes :meth:`ChaosInjector.arm` understands.
FAULT_CLASSES = ("mshr_leak", "duplicate_tag", "skip_invalidate",
                 "corrupt_mhrr", "spurious_trap")

#: Which catalog invariant must detect each fault class.  ``duplicate_tag``
#: may surface as any of the three tag-store invariants depending on which
#: check sees the corruption first.
CAUGHT_BY: Dict[str, tuple] = {
    "mshr_leak": ("mshr.no_leaked_entries",),
    "duplicate_tag": ("cache.tag_home_set", "cache.duplicate_line",
                      "cache.set_occupancy"),
    "skip_invalidate": ("informing.squash_invalidates_l1",),
    "corrupt_mhrr": ("informing.mhrr_return_pc",),
    "spurious_trap": ("informing.trap_iff_miss",),
}


class ChaosInjector:
    """Corrupt one piece of live simulator state, deterministically.

    Args:
        fault: one of :data:`FAULT_CLASSES`.
        seed: seeds the skip count when *skip* is not given.
        skip: number of eligible events to let pass before corrupting
            (deterministic trigger point).  Defaults to ``seed % 4``.

    The injector fires exactly once; ``fired`` records whether it has,
    and ``fired_cycle`` the hierarchy cycle at corruption time (for the
    bounded-detection assertions in the chaos suite).
    """

    def __init__(self, fault: str, seed: int = 12345,
                 skip: Optional[int] = None) -> None:
        if fault not in FAULT_CLASSES:
            raise ValueError(f"unknown fault class {fault!r}; "
                             f"choose from {FAULT_CLASSES}")
        self.fault = fault
        self.skip = (seed % 4) if skip is None else skip
        self.fired = False
        self.fired_cycle: Optional[int] = None
        self._seen = 0
        self._suppress_invalidate = False
        self._hierarchy = None

    # -- trigger helper ------------------------------------------------------
    def _trigger(self) -> bool:
        """True exactly once, after `skip` eligible events have passed."""
        if self.fired:
            return False
        if self._seen < self.skip:
            self._seen += 1
            return False
        self.fired = True
        if self._hierarchy is not None:
            self.fired_cycle = self._hierarchy._last_cycle
        return True

    # -- arming --------------------------------------------------------------
    def arm(self, target) -> "ChaosInjector":
        """Wire the fault into *target* (a core, or a bare hierarchy)."""
        hierarchy = getattr(target, "hierarchy", target)
        self._hierarchy = hierarchy
        engine = getattr(target, "engine", None)
        if self.fault == "mshr_leak":
            self._arm_mshr_leak(hierarchy)
        elif self.fault == "duplicate_tag":
            self._arm_duplicate_tag(hierarchy)
        elif self.fault == "skip_invalidate":
            self._arm_skip_invalidate(hierarchy)
        elif self.fault == "spurious_trap":
            self._arm_spurious_trap(hierarchy)
        else:  # corrupt_mhrr
            if engine is None:
                raise ValueError("corrupt_mhrr needs a core with an "
                                 "informing engine")
            self._arm_corrupt_mhrr(engine)
        return self

    def _arm_mshr_leak(self, hierarchy) -> None:
        # The hierarchy retires filled MSHRs inside _apply_fills, so the
        # fault rides on it: each live entry whose fill that call applies
        # is one eligible event, in fill order.
        entries = hierarchy.mshrs._entries
        orig = hierarchy._apply_fills

        def chaotic_apply_fills(cycle):
            due = sorted(fill for fill in hierarchy._pending
                         if fill[0] <= cycle)
            live = [entries[fill[2]] for fill in due if fill[2] in entries]
            orig(cycle)
            for entry in live:
                if self._trigger():
                    # Resurrect the register as filled-and-unpinned: the
                    # shape a dropped retire / lost release leaves behind.
                    entry.filled = True
                    entry.pinned = False
                    entries[entry.mshr_id] = entry

        hierarchy._apply_fills = chaotic_apply_fills

    def _arm_duplicate_tag(self, hierarchy) -> None:
        l1 = hierarchy.l1
        orig = l1.fill

        def chaotic_fill(addr, dirty=False):
            victim = orig(addr, dirty)
            if self._trigger():
                line = addr >> l1._line_shift
                num_sets = l1.config.num_sets
                if num_sets > 1:
                    foreign = ((line & l1._set_mask) + 1) % num_sets
                    l1._sets[foreign][line] = False
                else:
                    # Direct-mapped-to-one-set cache: overflow the set
                    # with a bogus resident instead.
                    l1._sets[0][line + num_sets] = False
            return victim

        l1.fill = chaotic_fill

    def _arm_skip_invalidate(self, hierarchy) -> None:
        l1 = hierarchy.l1
        orig_invalidate = l1.invalidate
        orig_release = hierarchy.release_mshr

        def chaotic_invalidate(addr):
            if self._suppress_invalidate:
                return False  # the invalidation is silently lost
            return orig_invalidate(addr)

        def chaotic_release(mshr_id, squashed):
            entry = hierarchy.mshrs.get(mshr_id)
            eligible = (squashed and entry is not None and entry.filled)
            if eligible and self._trigger():
                self._suppress_invalidate = True
                try:
                    orig_release(mshr_id, squashed)
                finally:
                    self._suppress_invalidate = False
            else:
                orig_release(mshr_id, squashed)

        l1.invalidate = chaotic_invalidate
        hierarchy.release_mshr = chaotic_release

    def _arm_spurious_trap(self, hierarchy) -> None:
        orig = hierarchy.access

        def chaotic_access(addr, is_write, cycle, prefetch=False):
            result = orig(addr, is_write, cycle, prefetch=prefetch)
            if (result is not None and not prefetch
                    and not result.l1_miss and self._trigger()):
                result.needs_inform = True  # a hit claiming to inform
            return result

        hierarchy.access = chaotic_access

    def _arm_corrupt_mhrr(self, engine) -> None:
        orig = engine.on_miss

        def chaotic_on_miss(inst):
            body = orig(inst)
            if body is not None and self._trigger():
                engine.mhrr ^= 0x44  # bit flips in the return register
            return body

        engine.on_miss = chaotic_on_miss


# -- pool-level chaos ---------------------------------------------------------

#: Environment variable pointing at a scratch directory the chaotic
#: payload uses for cross-process one-shot markers.
CHAOS_DIR_ENV = "REPRO_CHAOS_DIR"


def _in_pool_worker() -> bool:
    import multiprocessing

    return multiprocessing.parent_process() is not None


def chaos_execute(job) -> Dict[str, Any]:
    """Pluggable :class:`~repro.exec.JobRunner` payload for pool chaos.

    Module-level so worker pools pickle it by reference.  Behaviour is
    keyed on the job's benchmark name:

    * ``kill*`` — SIGKILL the executing *worker* process (simulating an
      OOM kill); harmless when re-run on the serial path in the parent.
    * ``flaky-once*`` — raise ``TransientJobError`` on the first attempt
      (one-shot marker file under ``$REPRO_CHAOS_DIR``), succeed after.
    * ``violate*`` — raise an :class:`InvariantViolation`, the shape an
      in-simulation sanitizer failure arrives in.
    * anything else — succeed, echoing the job label.
    """
    name = job.benchmark
    if name.startswith("kill") and _in_pool_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    if name.startswith("flaky-once"):
        from repro.exec.engine import TransientJobError

        marker = os.path.join(os.environ[CHAOS_DIR_ENV], f"{name}.tripped")
        if not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write("tripped")
            raise TransientJobError("chaos: transient worker fault")
    if name.startswith("violate"):
        raise InvariantViolation(
            "mshr.no_leaked_entries", "MSHR", 1234,
            "chaos: simulated in-run invariant violation",
            {"mshr_id": 3, "line": "0x40"})
    return {"label": job.label, "ok": True}


# -- service-level chaos (storage faults) --------------------------------------
# Filesystem-shaped damage for the durability suites: each helper
# produces exactly the on-disk state a real fault leaves behind, so the
# journal reader, cache verifier and gateway recovery can be tested
# against honest wreckage instead of synthetic mocks.

def flip_byte(path: str, offset: Optional[int] = None,
              mask: int = 0xFF) -> int:
    """Bit-rot one byte of *path* in place; returns the offset flipped.

    *offset* defaults to the middle of the file; *mask* is XORed in (the
    default inverts the byte, guaranteeing a change).  Raises ValueError
    on an empty file or a zero mask — a flip that flips nothing would
    silently turn a corruption test vacuous.
    """
    if mask == 0:
        raise ValueError("mask 0 would not change the byte")
    with open(path, "r+b") as fh:
        data = fh.read()
        if not data:
            raise ValueError(f"cannot flip a byte of empty file {path}")
        pos = (len(data) // 2 if offset is None else offset) % len(data)
        fh.seek(pos)
        fh.write(bytes([data[pos] ^ mask]))
    return pos


def truncate_tail(path: str, drop_bytes: int) -> int:
    """Tear *drop_bytes* off the end of *path* — the state a writer
    SIGKILLed mid-append (or a lost disk flush) leaves behind.  Returns
    the new size."""
    size = max(0, os.path.getsize(path) - drop_bytes)
    with open(path, "r+b") as fh:
        fh.truncate(size)
    return size


def arm_journal_enospc(journal, after: int = 0) -> None:
    """Make *journal*'s appends fail with ENOSPC after *after* more
    successful records — the filling-disk fault class.

    Reaches into the journal's real failure path (like the injectors
    above reach into simulator state) so the production disable-and-
    count behaviour is what gets exercised, not a mock of it.
    """
    import errno

    orig_append = journal.append
    budget = [after]

    def chaotic_append(record):
        if budget[0] <= 0:
            if not journal.disabled:  # same guard the real append has
                journal._fail(OSError(errno.ENOSPC,
                                      "No space left on device (chaos)"))
            return False
        budget[0] -= 1
        return orig_append(record)

    journal.append = chaotic_append
