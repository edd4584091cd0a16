"""The invariant catalog: unit checks, attachment, and golden parity
with the sanitizer enabled."""

import pickle

import pytest

from tests.helpers import make_inorder, make_ooo, small_hierarchy, trap_config
from repro.core.mechanisms import INSTRUCTION_BYTES, return_pc
from repro.sanitize import InvariantViolation
from repro.sanitize.chaos import CAUGHT_BY
from repro.sanitize.invariants import INVARIANTS, Sanitizer
from tests.test_golden_parity import (
    COMPARED_FIELDS,
    QUICK_INSTRUCTIONS,
    QUICK_WARMUP,
    _golden_index,
)


def attached(hierarchy=None, every=1):
    hierarchy = hierarchy or small_hierarchy()
    san = Sanitizer(every=every)
    san.attach_hierarchy(hierarchy)
    return san, hierarchy


# -- the violation type ------------------------------------------------------


class TestInvariantViolation:
    def test_message_carries_structure(self):
        exc = InvariantViolation("mshr.drained", "MSHR", 42, "boom",
                                 {"mshr_id": 3})
        assert "mshr.drained" in str(exc)
        assert "cycle 42" in str(exc)
        assert exc.to_dict() == {
            "invariant": "mshr.drained", "component": "MSHR", "cycle": 42,
            "message": "boom", "snapshot": {"mshr_id": 3}}

    def test_pickle_round_trip_keeps_fields(self):
        """Violations cross process-pool boundaries; the structured
        fields must survive, not collapse into a bare message string."""
        exc = InvariantViolation("cache.duplicate_line", "L1D", 7, "dup",
                                 {"line": "0x40", "sets": [1, 2]})
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is InvariantViolation
        assert clone.to_dict() == exc.to_dict()
        assert str(clone) == str(exc)


# -- the catalog -------------------------------------------------------------


class TestCatalog:
    def test_every_chaos_fault_maps_to_catalog_entries(self):
        for fault, invariants in CAUGHT_BY.items():
            for name in invariants:
                assert name in INVARIANTS, (fault, name)

    def test_catalog_covers_the_issue_families(self):
        families = {name.split(".")[0] for name in INVARIANTS}
        assert families == {"cache", "mshr", "pipeline", "informing"}

    def test_return_pc_is_the_successor(self):
        assert return_pc(0x1000) == 0x1000 + INSTRUCTION_BYTES


# -- enabling ----------------------------------------------------------------


class TestEnabling:
    def test_default_is_off(self):
        hierarchy = small_hierarchy()
        assert hierarchy._probe is None
        assert hierarchy.l1._probe is None
        assert hierarchy.mshrs._probe is None

    def test_attach_wires_every_component(self):
        san, hierarchy = attached()
        for component in (hierarchy, hierarchy.l1, hierarchy.l2,
                          hierarchy.mshrs):
            assert component._probe is san

    def test_every_must_be_positive(self):
        with pytest.raises(ValueError):
            Sanitizer(every=0)


# -- cache checks ------------------------------------------------------------


class TestCacheChecks:
    def test_clean_cache_passes(self):
        san, hierarchy = attached()
        for addr in range(0, 512, 32):
            hierarchy.l1.fill(addr)
        san.check_cache(hierarchy.l1)

    def test_overfull_set_caught(self):
        san, hierarchy = attached()
        l1 = hierarchy.l1
        # Three residents in a 2-way set, injected behind fill()'s back.
        for way in range(3):
            l1._sets[0][way * (l1._set_mask + 1)] = False
        with pytest.raises(InvariantViolation) as info:
            san.check_cache_set(l1, 0)
        assert info.value.invariant == "cache.set_occupancy"
        assert info.value.component == "L1D"

    def test_foreign_set_resident_caught(self):
        san, hierarchy = attached()
        l1 = hierarchy.l1
        l1._sets[3][0] = False  # line 0 homes to set 0
        with pytest.raises(InvariantViolation) as info:
            san.check_cache_set(l1, 3)
        assert info.value.invariant == "cache.tag_home_set"
        assert info.value.snapshot["home_set"] == 0

    def test_cross_set_duplicate_caught(self):
        """Same line resident in two sets: the home-set check flags the
        foreign copy and the duplicate scan backstops it."""
        san, hierarchy = attached()
        l1 = hierarchy.l1
        line = 1  # homes to set 1
        l1._sets[1][line] = False
        l1._sets[2][line] = False
        with pytest.raises(InvariantViolation) as info:
            san.check_cache(l1)
        assert info.value.invariant in ("cache.duplicate_line",
                                        "cache.tag_home_set")


# -- MSHR checks -------------------------------------------------------------


class TestMSHRChecks:
    def test_clean_file_passes(self):
        san, hierarchy = attached()
        hierarchy.mshrs.allocate(0x10, data_ready=50, is_write=False)
        hierarchy.mshrs.allocate(0x20, data_ready=60, is_write=False)
        san.check_mshr_file(hierarchy.mshrs)

    def test_leaked_entry_caught(self):
        san, hierarchy = attached()
        mshrs = hierarchy.mshrs
        entry = mshrs.allocate(0x10, data_ready=50, is_write=False)
        entry.filled = True  # filled + unpinned but never retired
        with pytest.raises(InvariantViolation) as info:
            san.check_mshr_file(mshrs)
        assert info.value.invariant == "mshr.no_leaked_entries"
        assert info.value.snapshot["mshr_id"] == entry.mshr_id

    def test_duplicate_line_caught(self):
        san, hierarchy = attached()
        mshrs = hierarchy.mshrs
        a = mshrs.allocate(0x10, data_ready=50, is_write=False)
        b = mshrs.allocate(0x20, data_ready=60, is_write=False)
        b.line_addr = a.line_addr  # corrupt: two in-flight for one line
        with pytest.raises(InvariantViolation) as info:
            san.check_mshr_file(mshrs)
        assert info.value.invariant in ("mshr.no_duplicate_lines",
                                        "mshr.line_map_consistent")

    def test_stale_line_map_caught(self):
        san, hierarchy = attached()
        mshrs = hierarchy.mshrs
        entry = mshrs.allocate(0x10, data_ready=50, is_write=False)
        del mshrs._entries[entry.mshr_id]  # retired behind the map's back
        with pytest.raises(InvariantViolation) as info:
            san.check_mshr_file(mshrs)
        assert info.value.invariant == "mshr.line_map_consistent"

    def test_undrained_entry_caught_at_run_end(self):
        san, hierarchy = attached()
        mshrs = hierarchy.mshrs
        mshrs.allocate(0x10, data_ready=50, is_write=False)
        # No matching hierarchy._pending fill: the data can never arrive.
        with pytest.raises(InvariantViolation) as info:
            san.on_run_end(hierarchy)
        assert info.value.invariant == "mshr.drained"

    def test_scheduled_fill_is_not_a_drain_leak(self):
        san, hierarchy = attached()
        hierarchy.access(0x2000, False, cycle=1)  # cold miss: fill pending
        san.on_run_end(hierarchy)


# -- pipeline / informing hook checks ----------------------------------------


class TestPipelineChecks:
    def test_commit_seq_must_increase(self):
        san, _ = attached()
        san.on_commit(1, 0, 10, False, None)
        san.on_commit(2, 5, 11, False, None)
        with pytest.raises(InvariantViolation) as info:
            san.on_commit(2, 6, 12, False, None)
        assert info.value.invariant == "pipeline.head_monotonic"

    def test_commit_before_complete_caught(self):
        san, _ = attached()
        with pytest.raises(InvariantViolation) as info:
            san.on_commit(1, complete_cycle=20, cycle=10, handler=False,
                          trap_seq=None)
        assert info.value.invariant == "pipeline.issued_before_graduated"

    def test_commit_past_unresolved_trap_caught(self):
        san, _ = attached()
        with pytest.raises(InvariantViolation) as info:
            san.on_commit(5, 0, 10, handler=False, trap_seq=3)
        assert info.value.invariant == "pipeline.no_graduation_past_trap"

    def test_inform_on_hit_caught(self):
        from repro.memory.hierarchy import AccessResult

        san, _ = attached()
        hit = AccessResult(False, 1, 0, 2, needs_inform=True)
        with pytest.raises(InvariantViolation) as info:
            san.on_inform_signal(hit)
        assert info.value.invariant == "informing.trap_iff_miss"

    def test_trap_with_mhar_zero_caught(self):
        from repro.core.engine import InformingEngine
        from repro.isa.instructions import load

        san, _ = attached()
        engine = InformingEngine(trap_config())
        engine.disable()  # MHAR <- 0
        inst = load(0x100, dest=2, srcs=(1,), pc=0x1000, informing=True)
        with pytest.raises(InvariantViolation) as info:
            san.on_trap(engine, inst.pc, inst.addr, 100, 1)
        assert info.value.invariant == "informing.mhar_disabled_no_trap"

    def test_wrong_mhrr_caught(self):
        from repro.core.engine import InformingEngine
        from repro.isa.instructions import load

        san, _ = attached()
        engine = InformingEngine(trap_config())
        inst = load(0x100, dest=2, srcs=(1,), pc=0x1000, informing=True)
        engine.on_miss(inst)          # latches MHRR = pc + 4
        san.on_trap(engine, inst.pc, inst.addr, 100, 1)  # correct: passes
        engine.mhrr ^= 0x10
        with pytest.raises(InvariantViolation) as info:
            san.on_trap(engine, inst.pc, inst.addr, 101, 1)
        assert info.value.invariant == "informing.mhrr_return_pc"

    def test_squashed_filled_release_with_resident_line_caught(self):
        san, hierarchy = attached(small_hierarchy(extended=True))
        result = hierarchy.access(0x2000, False, cycle=1)
        hierarchy.access(0x4000, False, cycle=result.ready_cycle + 1)
        entry = hierarchy.mshrs.get(result.mshr_id)
        assert entry is not None and entry.filled  # extended: still pinned
        with pytest.raises(InvariantViolation) as info:
            # Claim a squash happened while the line is still in L1.
            san.on_mshr_release(hierarchy, entry, squashed=True)
        assert info.value.invariant == "informing.squash_invalidates_l1"

    def test_real_release_path_passes(self):
        san, hierarchy = attached(small_hierarchy(extended=True))
        result = hierarchy.access(0x2000, False, cycle=1)
        hierarchy.access(0x4000, False, cycle=result.ready_cycle + 1)
        hierarchy.release_mshr(result.mshr_id, squashed=True)
        assert not hierarchy.l1.contains(0x2000)


# -- end-to-end: sanitized runs are clean and bit-exact ----------------------


def miss_heavy_stream(n=4000, seed=11, span_bits=14):
    import random

    from repro.isa.instructions import alu, load

    rng = random.Random(seed)
    insts = []
    pc = 0x1000
    for _ in range(n):
        if rng.random() < 0.4:
            insts.append(load(rng.randrange(0, 1 << span_bits) & ~3,
                              dest=2, srcs=(1,), pc=pc, informing=True))
        else:
            insts.append(alu(dest=3, srcs=(2,), pc=pc))
        pc += 4
    return insts


class TestEndToEnd:
    @pytest.mark.parametrize("maker", [make_inorder, make_ooo])
    def test_sanitized_run_is_cycle_exact_and_not_vacuous(self, maker):
        baseline = maker(informing=trap_config(),
                         hierarchy=small_hierarchy(extended=True))
        plain = baseline.run(miss_heavy_stream())

        core = maker(informing=trap_config(),
                     hierarchy=small_hierarchy(extended=True))
        san = Sanitizer(every=16)
        san.attach(core)
        checked = core.run(miss_heavy_stream())

        assert checked.cycles == plain.cycles
        assert checked.handler_invocations == plain.handler_invocations
        assert san.checks_passed > 1000, "sanitizer barely ran"
        assert san.full_sweeps > 0
        assert san.cycle > 0

    def test_sanitizer_on_matches_golden_figure2_cells(self):
        """--sanitize must not perturb results: golden stays bit-exact."""
        golden = _golden_index()
        cells = [("compress", "ooo", "U10"), ("espresso", "inorder", "U1"),
                 ("ora", "ooo", "S1"), ("tomcatv", "inorder", "U10")]
        from repro.harness.runner import bar_config, run_bar

        for benchmark, machine, label in cells:
            result = run_bar(benchmark, machine, bar_config(label),
                             QUICK_INSTRUCTIONS, QUICK_WARMUP,
                             sanitize=True)
            mismatches = {
                field: (getattr(result, field), golden[(benchmark, machine,
                                                        label)][field])
                for field in COMPARED_FIELDS
                if getattr(result, field) != golden[(benchmark, machine,
                                                     label)][field]
            }
            assert not mismatches, (
                f"{benchmark}/{machine}/{label} diverged with the "
                f"sanitizer on: {mismatches}")
