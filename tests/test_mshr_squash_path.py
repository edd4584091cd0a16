"""Section 3.3's extended-MSHR-lifetime squash path: a squashed
speculative informing load must leave the L1 line invalid while the line
stays resident in L2 ("effectively prefetched into the second-level
cache")."""

import random

import pytest

from tests.helpers import make_inorder, make_ooo, small_hierarchy, trap_config
from repro.core import TrapStyle
from repro.isa.instructions import alu, load
from repro.memory import CacheConfig
from repro.sanitize.invariants import Sanitizer


def big_l2_hierarchy():
    """Extended-lifetime hierarchy with an L2 that outlives the working
    set, so "resident in L2" is never confounded by capacity evictions."""
    return small_hierarchy(extended=True,
                           l2=CacheConfig(size=65536, assoc=4,
                                          line_size=32))


class ReleaseSpy:
    """Record every extended-lifetime release with the cache state the
    instant it completes."""

    def __init__(self, hierarchy):
        self.hierarchy = hierarchy
        self.records = []
        self._orig = hierarchy.release_mshr

        def spying_release(mshr_id, squashed):
            entry = hierarchy.mshrs.get(mshr_id)
            filled = entry.filled if entry is not None else None
            byte_addr = (entry.line_addr << hierarchy._line_shift
                         if entry is not None else None)
            l1_before = (hierarchy.l1.contains(byte_addr)
                         if byte_addr is not None else None)
            self._orig(mshr_id, squashed)
            if entry is not None:
                self.records.append({
                    "squashed": squashed,
                    "filled": filled,
                    "byte_addr": byte_addr,
                    "l1_before": l1_before,
                    "l1_after": hierarchy.l1.contains(byte_addr),
                    "l2_after": hierarchy.l2.contains(byte_addr),
                })

        hierarchy.release_mshr = spying_release

    def squashed(self, filled):
        return [r for r in self.records
                if r["squashed"] and r["filled"] == filled]


class TestHierarchySquashSemantics:
    """Drive the hierarchy directly: both squash orderings, exactly."""

    def test_squash_after_fill_invalidates_l1_keeps_l2(self):
        hierarchy = big_l2_hierarchy()
        result = hierarchy.access(0x2000, False, cycle=1)
        assert result.l1_miss and result.mshr_id is not None
        # Let the fill land: the speculative load installed its line.
        hierarchy.access(0x4000, False, cycle=result.ready_cycle + 1)
        assert hierarchy.l1.contains(0x2000)
        assert hierarchy.l2.contains(0x2000)

        hierarchy.release_mshr(result.mshr_id, squashed=True)
        assert not hierarchy.l1.contains(0x2000), (
            "squash must undo the speculative L1 install")
        assert hierarchy.l2.contains(0x2000), (
            "the line stays in L2: effectively prefetched")
        assert hierarchy.stats.squash_invalidations == 1

    def test_squash_before_fill_suppresses_l1_install(self):
        hierarchy = big_l2_hierarchy()
        result = hierarchy.access(0x2000, False, cycle=1)
        hierarchy.release_mshr(result.mshr_id, squashed=True)

        hierarchy.drain()  # the in-flight data still arrives
        assert not hierarchy.l1.contains(0x2000), (
            "a fill for a squashed MSHR must not install into L1")
        assert hierarchy.l2.contains(0x2000)
        # Nothing was in L1 to invalidate: not a squash invalidation.
        assert hierarchy.stats.squash_invalidations == 0

    def test_graduation_release_keeps_l1(self):
        hierarchy = big_l2_hierarchy()
        result = hierarchy.access(0x2000, False, cycle=1)
        hierarchy.access(0x4000, False, cycle=result.ready_cycle + 1)
        hierarchy.release_mshr(result.mshr_id, squashed=False)
        assert hierarchy.l1.contains(0x2000)
        assert hierarchy.stats.squash_invalidations == 0


def informing_stream(n, seed, span_bits=14):
    rng = random.Random(seed)
    insts = []
    pc = 0x1000
    for _ in range(n):
        if rng.random() < 0.5:
            insts.append(load(rng.randrange(0, 1 << span_bits) & ~3,
                              dest=2, srcs=(1,), pc=pc, informing=True))
        else:
            insts.append(alu(dest=3, srcs=(2,), pc=pc))
        pc += 4
    return insts


CORES = [
    # The in-order replay trap squashes 2 cycles after issue: squashed
    # entries are still in flight (squash-before-fill path).
    pytest.param(make_inorder, TrapStyle.BRANCH_LIKE, id="inorder"),
    # Exception-like traps fire at graduation, long after younger loads
    # may have filled: the squash-after-fill path.
    pytest.param(make_ooo, TrapStyle.EXCEPTION_LIKE, id="ooo"),
]


class TestCoreSquashPath:
    @pytest.mark.parametrize("maker,style", CORES)
    def test_squashed_informing_loads_leave_l1_invalid(self, maker, style):
        hierarchy = big_l2_hierarchy()
        core = maker(informing=trap_config(style=style),
                     hierarchy=hierarchy)
        Sanitizer(every=16).attach(core)  # invariants live during the run
        spy = ReleaseSpy(hierarchy)
        core.run(informing_stream(6000, seed=5))

        squashed = [r for r in spy.records if r["squashed"]]
        assert squashed, "the run produced no squashed speculative loads"
        for record in squashed:
            assert not record["l1_after"], (
                f"squashed line {record['byte_addr']:#x} still in L1")
        # Squash-after-fill: the line must already be sitting in L2.
        for record in spy.squashed(filled=True):
            assert record["l2_after"], (
                f"squashed line {record['byte_addr']:#x} lost from L2")
        # Squash-in-flight: the data is still on its way; once it lands
        # it goes to L2 only (checked after drain below).
        hierarchy.drain()
        for record in spy.squashed(filled=False):
            assert hierarchy.l2.contains(record["byte_addr"])

    def test_ooo_exercises_the_squash_after_fill_path(self):
        """The OoO/exception-like combination must actually hit the
        filled-entry squash (the case Section 3.3 legislates), and each
        one must be counted as a squash invalidation."""
        hierarchy = big_l2_hierarchy()
        core = make_ooo(informing=trap_config(
            style=TrapStyle.EXCEPTION_LIKE), hierarchy=hierarchy)
        spy = ReleaseSpy(hierarchy)
        core.run(informing_stream(6000, seed=5))

        filled_squashes = spy.squashed(filled=True)
        assert filled_squashes, (
            "no squash-after-fill events: the test lost its subject")
        # Each squash whose line was still resident gets invalidated and
        # counted; lines a later fill already evicted need no action.
        resident = [r for r in filled_squashes if r["l1_before"]]
        assert resident
        assert hierarchy.stats.squash_invalidations == len(resident)

    def test_inorder_exercises_the_in_flight_squash_path(self):
        """The in-order replay trap squashes entries before their data
        returns; the later fill must leave L2 (and only L2) populated."""
        hierarchy = big_l2_hierarchy()
        core = make_inorder(informing=trap_config(), hierarchy=hierarchy)
        spy = ReleaseSpy(hierarchy)
        core.run(informing_stream(6000, seed=5))

        in_flight_squashes = spy.squashed(filled=False)
        assert in_flight_squashes, (
            "no in-flight squashes: the replay trap never fired")
        hierarchy.drain()
        for record in in_flight_squashes:
            assert hierarchy.l2.contains(record["byte_addr"])
