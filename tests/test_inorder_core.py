"""Unit tests for the in-order (21164-like) core."""

import pytest

from repro.core import add_cc_checks, add_mhar_sets
from repro.isa import alu, branch, load, store
from repro.probe import Probe
from tests.helpers import cc_config, make_inorder, small_hierarchy, trap_config


def independent_alus(n, pc_base=0x1000):
    return [alu(dest=1 + (i % 8), pc=pc_base + 4 * i) for i in range(n)]


def chained_alus(n, pc_base=0x1000):
    return [alu(dest=1, srcs=(1,), pc=pc_base + 4 * i) for i in range(n)]


class TestBasicTiming:
    def test_independent_alu_ipc_limited_by_int_units(self):
        core = make_inorder()
        stats = core.run(independent_alus(400))
        assert stats.app_instructions == 400
        # Two integer units cap the machine at IPC 2.
        assert 1.7 < stats.ipc <= 2.0

    def test_chained_alus_serialize(self):
        core = make_inorder()
        stats = core.run(chained_alus(200))
        assert stats.ipc == pytest.approx(1.0, abs=0.1)

    def test_load_hit_latency_stalls_dependent(self):
        # load -> dependent alu chains: each pair costs ~hit latency.
        trace = []
        for i in range(100):
            trace.append(load(0x100, dest=2, pc=0x1000 + 8 * i))
            trace.append(alu(dest=3, srcs=(2,), pc=0x1004 + 8 * i))
        core = make_inorder()
        stats = core.run(trace)
        # Roughly 2 cycles per pair once warm (load-use latency dominates).
        assert stats.cycles >= 190

    def test_load_miss_charges_cache_stall(self):
        # Strided misses with immediate use: the oldest instruction waits
        # on memory most of the time.
        trace = []
        for i in range(50):
            trace.append(load(0x10000 + 64 * i, dest=2, pc=0x1000 + 8 * i))
            trace.append(alu(dest=3, srcs=(2,), pc=0x1004 + 8 * i))
        core = make_inorder()
        stats = core.run(trace)
        assert stats.cache_stall_slots > stats.total_slots * 0.3
        assert core.hierarchy.stats.l1_misses == 50

    def test_mispredicted_branches_cost_cycles(self):
        import random
        rng = random.Random(7)
        outcomes = [rng.random() < 0.5 for _ in range(200)]
        trace_random = [branch(t, pc=0x1000 + 4 * i)
                        for i, t in enumerate(outcomes)]
        trace_steady = [branch(False, pc=0x1000 + 4 * i) for i in range(200)]
        random_stats = make_inorder().run(trace_random)
        steady_stats = make_inorder().run(trace_steady)
        assert random_stats.cycles > steady_stats.cycles
        assert random_stats.branch_mispredicts > 50

    def test_store_does_not_stall_commit(self):
        trace = [store(0x20000 + 64 * i, pc=0x1000 + 4 * i) for i in range(8)]
        trace += independent_alus(40, pc_base=0x2000)
        core = make_inorder()
        stats = core.run(trace)
        # Store misses retire into the write buffer; ALU work proceeds.
        assert stats.cycles < 100

    def test_max_app_insts_bounds_run(self):
        core = make_inorder()
        stats = core.run(iter(independent_alus(10_000)), max_app_insts=100)
        assert stats.app_instructions == 100

    def test_empty_stream(self):
        stats = make_inorder().run([])
        assert stats.app_instructions == 0
        assert stats.cycles >= 1


class TestInformingTrap:
    def miss_heavy_trace(self, n=40):
        # Every load touches a new line: all misses.
        return [load(0x40000 + 64 * i, dest=2, pc=0x1000 + 4 * i)
                for i in range(n)]

    def hit_heavy_trace(self, n=40):
        return [load(0x100, dest=2, pc=0x1000 + 4 * i) for i in range(n)]

    def test_handler_runs_per_miss(self):
        core = make_inorder(informing=trap_config(n=1))
        stats = core.run(self.miss_heavy_trace(20))
        assert core.engine.invocations == 20
        assert stats.handler_invocations == 20
        # 1 chained ALU + MHRR jump per invocation.
        assert stats.handler_instructions == 40

    def test_no_handler_on_hits(self):
        core = make_inorder(informing=trap_config(n=1))
        # Each load feeds a dependent divide, spacing references far enough
        # apart that everything after the cold miss is a genuine hit.
        from repro.isa import OpClass
        from repro.isa.instructions import DynInst
        trace = []
        for i in range(40):
            trace.append(load(0x100, dest=2, pc=0x1000 + 8 * i))
            trace.append(DynInst(OpClass.IDIV, dest=3, srcs=(2,),
                                 pc=0x1004 + 8 * i))
        stats = core.run(trace)
        # One line fetch -> one handler invocation, hits are free.
        assert core.engine.invocations == 1
        assert core.hierarchy.stats.l1_hits == 39
        assert stats.app_instructions == 80

    def test_one_invocation_per_line_fetch(self):
        # Back-to-back references to one missing line: they merge with the
        # single line fetch and the handler runs exactly once for it.
        core = make_inorder(informing=trap_config(n=1))
        trace = self.hit_heavy_trace(40)
        stats = core.run(trace)
        assert core.engine.invocations == 1
        assert core.hierarchy.stats.l1_misses == 1
        assert stats.app_instructions == 40

    def test_trap_overhead_increases_cycles(self):
        trace = self.miss_heavy_trace(40)
        base = make_inorder().run(list(trace))
        informed = make_inorder(informing=trap_config(n=10)).run(list(trace))
        assert informed.cycles > base.cycles

    def test_app_work_preserved_under_traps(self):
        trace = self.miss_heavy_trace(30) + independent_alus(50, 0x9000)
        base = make_inorder().run(list(trace))
        informed = make_inorder(informing=trap_config(n=10)).run(list(trace))
        assert informed.app_instructions == base.app_instructions == 80

    def test_observer_sees_missing_references(self):
        seen = []

        class Traps(Probe):
            def on_trap(self, engine, pc, addr, cycle, handler_len):
                seen.append(addr)

        core = Traps().attach(make_inorder(informing=trap_config(n=1)))
        core.run(self.miss_heavy_trace(10))
        assert len(seen) == 10
        assert seen[0] == 0x40000

    def test_unique_handler_mode_adds_mhar_sets(self):
        trace = self.hit_heavy_trace(50)
        informing = trap_config(n=1, unique=True)
        core = make_inorder(informing=informing)
        stats = core.run(add_mhar_sets(iter(trace)))
        # One MHAR_SET per reference counts as overhead, not app work.
        assert stats.app_instructions == 50
        assert stats.handler_instructions >= 50

    def test_handler_overlaps_miss_latency(self):
        """Handler work executes under the outstanding miss."""
        trace = self.miss_heavy_trace(20)
        short = make_inorder(informing=trap_config(n=1)).run(list(trace))
        longer = make_inorder(informing=trap_config(n=10)).run(list(trace))
        # A 10-instruction handler costs far less than 9 extra cycles per
        # miss because it overlaps the ~75-cycle memory latency.
        assert longer.cycles - short.cycles < 20 * 9


class TestConditionCode:
    def test_blmiss_fires_handler_on_miss(self):
        trace = [load(0x40000 + 64 * i, dest=2, pc=0x1000 + 8 * i)
                 for i in range(15)]
        core = make_inorder(informing=cc_config(n=1))
        stats = core.run(add_cc_checks(iter(trace)))
        assert core.engine.invocations == 15
        assert stats.app_instructions == 15

    def test_blmiss_overhead_on_hits(self):
        trace = [load(0x100, dest=2, pc=0x1000 + 8 * i) for i in range(60)]
        base = make_inorder().run(list(trace))
        core = make_inorder(informing=cc_config(n=1))
        checked = core.run(add_cc_checks(iter(trace)))
        # The check instruction consumes fetch/issue slots even on hits...
        assert checked.cycles > base.cycles
        # ...but costs at most about one instruction per reference.
        assert checked.cycles < base.cycles * 2.5
        # Only the cold miss and its merged replays invoke the handler.
        assert core.engine.invocations <= 12


class TestReplaySemantics:
    def test_squashed_instructions_commit_exactly_once(self):
        # Interleave misses with ALU work; replay must not double-commit.
        trace = []
        for i in range(20):
            trace.append(load(0x50000 + 64 * i, dest=2, pc=0x1000 + 12 * i))
            trace.append(alu(dest=3, srcs=(2,), pc=0x1004 + 12 * i))
            trace.append(alu(dest=4, pc=0x1008 + 12 * i))
        core = make_inorder(informing=trap_config(n=2))
        stats = core.run(list(trace))
        assert stats.app_instructions == 60

    def test_mshr_released_on_commit_with_extended_lifetime(self):
        hierarchy = small_hierarchy(extended=True)
        trace = [load(0x60000 + 64 * i, dest=2, pc=0x1000 + 4 * i)
                 for i in range(30)]
        core = make_inorder(hierarchy=hierarchy)
        core.run(trace)
        assert hierarchy.mshrs.occupancy() == 0
        assert hierarchy.mshrs.high_water <= 8
