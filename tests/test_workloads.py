"""Unit tests for access patterns and the synthetic workload models."""

import pytest

from repro.isa import OpClass
from repro.workloads import (
    ConflictPattern,
    FIGURE2_BENCHMARKS,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    MixedPattern,
    PointerChasePattern,
    RandomPattern,
    SequentialPattern,
    SPEC92,
    SyntheticWorkload,
    WorkloadSpec,
    spec92_workload,
)
from repro.memory import Cache, CacheConfig


class TestSequentialPattern:
    def test_stride_and_wrap(self):
        pattern = SequentialPattern(base=100, extent=12, stride=4)
        assert [pattern.next_address() for _ in range(4)] == [100, 104, 108, 100]

    def test_reset(self):
        pattern = SequentialPattern(base=0, extent=100)
        pattern.next_address()
        pattern.reset()
        assert pattern.next_address() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SequentialPattern(0, extent=0)


class TestRandomPattern:
    def test_stays_in_working_set(self):
        pattern = RandomPattern(base=0x1000, working_set=256, seed=1)
        for _ in range(100):
            addr = pattern.next_address()
            assert 0x1000 <= addr < 0x1100
            assert addr % 4 == 0

    def test_deterministic_after_reset(self):
        pattern = RandomPattern(0, 1024, seed=7)
        first = [pattern.next_address() for _ in range(10)]
        pattern.reset()
        assert [pattern.next_address() for _ in range(10)] == first


class TestConflictPattern:
    def test_thrashes_direct_mapped_cache(self):
        pattern = ConflictPattern(base=0, count=3, spacing=8 * 1024)
        cache = Cache(CacheConfig(size=8 * 1024, assoc=1, line_size=32))
        misses = 0
        for _ in range(300):
            addr = pattern.next_address()
            if not cache.probe(addr):
                misses += 1
                cache.fill(addr)
        assert misses == 300  # every access conflicts in one set

    def test_coexists_in_set_associative_cache(self):
        pattern = ConflictPattern(base=0, count=3, spacing=8 * 1024)
        cache = Cache(CacheConfig(size=32 * 1024, assoc=2, line_size=32))
        misses = 0
        for _ in range(300):
            addr = pattern.next_address()
            if not cache.probe(addr):
                misses += 1
                cache.fill(addr)
        # Only compulsory misses as the sweep advances through lines
        # (3 lines per 8 sweep rounds), versus 100% in the 8KB DM cache.
        assert misses < 60

    def test_needs_two_lines(self):
        with pytest.raises(ValueError):
            ConflictPattern(0, count=1)


class TestPointerChasePattern:
    def test_walks_full_cycle(self):
        pattern = PointerChasePattern(base=0, nodes=16, node_size=32, seed=3)
        seen = {pattern.next_address() for _ in range(16)}
        assert len(seen) == 16  # a single cycle covers every node

    def test_serial_flag(self):
        assert PointerChasePattern(0, nodes=4).serial
        assert not SequentialPattern(0, 100).serial


class TestMixedPattern:
    def test_blends_components(self):
        pattern = MixedPattern([
            (0.5, SequentialPattern(0, extent=64)),
            (0.5, SequentialPattern(0x100000, extent=64)),
        ], seed=5)
        addrs = [pattern.next_address() for _ in range(200)]
        low = sum(1 for a in addrs if a < 0x100000)
        assert 50 < low < 150

    def test_serial_component_rejected(self):
        with pytest.raises(ValueError):
            MixedPattern([(1.0, PointerChasePattern(0, nodes=4))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MixedPattern([])


class TestWorkloadSpec:
    def test_validation(self):
        factory = lambda: SequentialPattern(0, 1024)
        with pytest.raises(ValueError):
            WorkloadSpec("bad", factory, mem_fraction=0.9)
        with pytest.raises(ValueError):
            WorkloadSpec("bad", factory, branch_bias=0.3)
        with pytest.raises(ValueError):
            WorkloadSpec("bad", factory, dependence_window=0)
        with pytest.raises(ValueError):
            WorkloadSpec("bad", factory, body_length=2)


class TestSyntheticWorkload:
    def make(self, **kw):
        params = dict(name="test",
                      pattern_factory=lambda: SequentialPattern(0, 4096),
                      mem_fraction=0.3, branch_fraction=0.1, seed=3)
        params.update(kw)
        return SyntheticWorkload(WorkloadSpec(**params))

    def test_stream_length_exact(self):
        workload = self.make()
        assert len(list(workload.stream(997))) == 997

    def test_deterministic(self):
        a = [(i.op, i.addr, i.pc) for i in self.make().stream(500)]
        b = [(i.op, i.addr, i.pc) for i in self.make().stream(500)]
        assert a == b

    def test_composition_tracks_fractions(self):
        workload = self.make(mem_fraction=0.4, branch_fraction=0.1,
                             body_length=400)
        ops = [inst.op for inst in workload.stream(4 * 400)]
        mem = sum(op in (OpClass.LOAD, OpClass.STORE) for op in ops)
        assert mem / len(ops) == pytest.approx(0.4, abs=0.08)
        assert ops.count(OpClass.BRANCH) / len(ops) == pytest.approx(
            0.1, abs=0.06)

    def test_static_pcs_are_stable_across_iterations(self):
        workload = self.make(body_length=50)
        stream = list(workload.stream(500))
        pcs = {inst.pc for inst in stream}
        assert len(pcs) <= 50

    def test_branch_outcomes_biased(self):
        workload = self.make(branch_bias=0.95, branch_fraction=0.2)
        branches = [i for i in workload.stream(5000)
                    if i.op is OpClass.BRANCH]
        # Per-slot bias ~0.95 or 0.05: the aggregate taken rate varies,
        # but each static branch should be strongly biased.
        from collections import defaultdict
        per_pc = defaultdict(list)
        for inst in branches:
            per_pc[inst.pc].append(inst.taken)
        for outcomes in per_pc.values():
            if len(outcomes) >= 20:
                rate = sum(outcomes) / len(outcomes)
                assert rate > 0.8 or rate < 0.2

    def test_pointer_chase_serializes_loads(self):
        workload = self.make(
            pattern_factory=lambda: PointerChasePattern(0, nodes=64))
        loads = [i for i in workload.stream(300) if i.op is OpClass.LOAD]
        assert loads
        assert all(i.dest in i.srcs or i.srcs == (i.dest,) for i in loads
                   if i.dest is not None)


class TestSpec92Registry:
    def test_fourteen_benchmarks(self):
        assert len(SPEC92) == 14
        assert len(INT_BENCHMARKS) == 5
        assert len(FP_BENCHMARKS) == 9
        assert len(FIGURE2_BENCHMARKS) == 13
        assert "su2cor" not in FIGURE2_BENCHMARKS

    @pytest.mark.parametrize("name", sorted(SPEC92))
    def test_every_model_streams(self, name):
        workload = spec92_workload(name)
        stream = list(workload.stream(2000))
        assert len(stream) == 2000
        assert any(inst.is_mem for inst in stream)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            spec92_workload("gcc")

    def test_int_benchmarks_are_integer_codes(self):
        for name in INT_BENCHMARKS:
            assert SPEC92[name].fp_fraction == 0.0

    def test_fp_benchmarks_have_fp(self):
        for name in FP_BENCHMARKS:
            assert SPEC92[name].fp_fraction > 0.3

    def test_su2cor_uses_conflict_pattern(self):
        pattern = SPEC92["su2cor"].pattern_factory()
        # Walk it against the in-order L1 geometry: high conflict rate.
        cache = Cache(CacheConfig(size=8 * 1024, assoc=1, line_size=32))
        misses = 0
        for _ in range(1000):
            addr = pattern.next_address()
            if not cache.probe(addr):
                misses += 1
                cache.fill(addr)
        assert misses > 400
