"""Property-based tests (hypothesis) on the substrate invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.branch import TwoBitCounterPredictor
from repro.core import InformingConfig, Mechanism, TrapStyle
from repro.memory import Cache, CacheConfig, MSHRFile, MemoryHierarchy
from repro.memory import HierarchyConfig
from repro.pipeline import StreamStack
from repro.isa import alu, load
from repro.sim import Simulator
from repro.workloads import SPEC92

from tests.helpers import STREAM_SOURCES

addresses = st.integers(min_value=0, max_value=1 << 20)


class TestCacheProperties:
    @given(st.lists(addresses, min_size=1, max_size=200))
    def test_capacity_never_exceeded(self, addrs):
        cache = Cache(CacheConfig(size=256, assoc=2, line_size=32))
        for addr in addrs:
            cache.fill(addr)
        assert cache.resident_lines() <= 8

    @given(st.lists(addresses, min_size=1, max_size=200))
    def test_fill_then_probe_hits(self, addrs):
        cache = Cache(CacheConfig(size=1024, assoc=4, line_size=32))
        for addr in addrs:
            cache.fill(addr)
            assert cache.probe(addr)

    @given(st.lists(addresses, min_size=1, max_size=100))
    def test_invalidate_removes(self, addrs):
        cache = Cache(CacheConfig(size=512, assoc=2, line_size=32))
        for addr in addrs:
            cache.fill(addr)
        for addr in addrs:
            cache.invalidate(addr)
            assert not cache.contains(addr)

    @given(st.lists(st.tuples(addresses, st.booleans()),
                    min_size=1, max_size=200))
    def test_set_isolation(self, ops):
        """Accesses never evict lines from other sets."""
        config = CacheConfig(size=512, assoc=2, line_size=32)
        cache = Cache(config)
        resident_by_set = {}
        for addr, is_fill in ops:
            line = cache.line_addr(addr)
            set_index = line & (config.num_sets - 1)
            if is_fill:
                cache.fill(addr)
                resident_by_set.setdefault(set_index, set()).add(line)
            else:
                cache.probe(addr)
        for set_index in range(config.num_sets):
            lines = [line for s in [cache._sets[set_index]] for line in s]
            assert len(lines) <= config.assoc
            for line in lines:
                assert line & (config.num_sets - 1) == set_index


class TestMSHRProperties:
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=100),
           st.integers(1, 8))
    def test_occupancy_bounded(self, lines, count):
        file = MSHRFile(count=count)
        for line in lines:
            if file.lookup(line) is not None:
                file.merge(line, False)
            elif not file.full:
                file.allocate(line, 10, False)
        assert file.occupancy() <= count
        assert file.high_water <= count

    @given(st.lists(st.tuples(st.integers(0, 20), st.booleans()),
                    min_size=1, max_size=80))
    def test_extended_lifetime_release_always_empties(self, events):
        file = MSHRFile(count=8, extended_lifetime=True)
        live = []
        for line, squash in events:
            if file.lookup(line) is None and not file.full:
                entry = file.allocate(line, 5, False)
                live.append((entry.mshr_id, squash))
        for mshr_id, squash in live:
            file.mark_filled(mshr_id)
            file.release(mshr_id, squashed=squash)
        assert file.occupancy() == 0


class TestHierarchyProperties:
    def make(self):
        return MemoryHierarchy(HierarchyConfig(
            l1=CacheConfig(size=256, assoc=2, line_size=32),
            l2=CacheConfig(size=2048, assoc=2, line_size=32),
            l1_to_l2_latency=12, l1_to_mem_latency=75, mshr_count=4))

    @given(st.lists(st.tuples(st.integers(0, 4095), st.booleans(),
                              st.integers(0, 5)),
                    min_size=1, max_size=150))
    @settings(max_examples=50)
    def test_ready_cycle_never_before_submission(self, ops):
        mem = self.make()
        cycle = 0
        for addr, is_write, gap in ops:
            cycle += gap
            result = mem.access(addr, is_write, cycle)
            if result is not None:
                assert result.ready_cycle >= cycle
                assert result.start_cycle >= cycle

    @given(st.lists(st.tuples(st.integers(0, 4095), st.booleans(),
                              st.integers(0, 30)),
                    min_size=1, max_size=150))
    @settings(max_examples=50)
    def test_inclusion_after_drain(self, ops):
        """After all fills land, every L1 line is also in L2."""
        mem = self.make()
        cycle = 0
        for addr, is_write, gap in ops:
            cycle += gap
            mem.access(addr, is_write, cycle)
        mem.drain()
        for cache_set in mem.l1._sets.values():
            for line in cache_set:
                assert mem.l2.contains(line << 5)

    @given(st.lists(st.integers(0, 2047), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_second_access_after_drain_hits(self, addrs):
        mem = self.make()
        cycle = 0
        for addr in addrs:
            result = mem.access(addr, False, cycle)
            cycle += 200
            if result is not None and mem.l1.contains(addr):
                again = mem.access(addr, False, cycle)
                cycle += 200
                assert again is not None


class TestStreamStackProperties:
    @given(st.integers(2, 60), st.data(),
           st.sampled_from(sorted(STREAM_SOURCES)))
    @settings(max_examples=50)
    def test_rewind_replays_identically(self, length, data, source):
        insts = [alu(dest=1, pc=4 * i) for i in range(length)]
        stack = StreamStack(STREAM_SOURCES[source](insts))
        fetched = []
        points = []
        for _ in range(length):
            inst, point = stack.fetch()
            fetched.append(inst)
            points.append(point)
        index = data.draw(st.integers(0, length - 1))
        stack.rewind_to(points[index])
        replayed = []
        while True:
            item = stack.fetch()
            if item is None:
                break
            replayed.append(item[0])
        assert replayed == fetched[index:]

    @given(st.lists(st.integers(1, 5), min_size=0, max_size=6),
           st.sampled_from(sorted(STREAM_SOURCES)))
    def test_nested_handlers_preserve_app_order(self, handler_lengths,
                                                source):
        app = [alu(dest=1, pc=4 * i) for i in range(10)]
        stack = StreamStack(STREAM_SOURCES[source](app))
        first, _ = stack.fetch()
        for depth, n in enumerate(handler_lengths):
            stack.push_handler(
                [alu(dest=2, pc=0x1000 * (depth + 1) + 4 * j)
                 for j in range(n)])
        rest = []
        while True:
            item = stack.fetch()
            if item is None:
                break
            rest.append(item[0])
        app_tail = [inst for inst in rest if inst.pc < 0x1000]
        assert [inst.pc for inst in app_tail] == [4 * i for i in range(1, 10)]


class TestPredictorProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    def test_counter_stays_in_range(self, outcomes):
        predictor = TwoBitCounterPredictor(entries=16)
        for taken in outcomes:
            predictor.predict(0x40)
            predictor.update(0x40, taken)
        assert all(0 <= counter <= 3 for counter in predictor._table)

    @given(st.integers(2, 40))
    def test_constant_branch_perfectly_predicted_eventually(self, repeats):
        predictor = TwoBitCounterPredictor(entries=16)
        predictor.update(0x40, True)
        predictor.update(0x40, True)
        for _ in range(repeats):
            assert predictor.predict(0x40) is True
            predictor.update(0x40, True)


class TestSimulatorProperties:
    @given(st.lists(st.lists(st.integers(0, 20), min_size=1, max_size=10),
                    min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_time_is_monotonic_and_complete(self, schedules):
        sim = Simulator()
        observed = []

        def process(delays):
            for delay in delays:
                yield delay
                observed.append(sim.now)

        for delays in schedules:
            sim.spawn(process(delays))
        final = sim.run()
        assert observed == sorted(observed)
        assert final == max(observed) if observed else final == 0
        assert sim.live_processes == 0

    @given(st.integers(1, 8), st.integers(1, 5))
    def test_barrier_generations(self, parties, phases):
        sim = Simulator()
        barrier = sim.barrier(parties)

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(phases):
                yield rng.randint(0, 9)
                yield barrier.wait()

        for p in range(parties):
            sim.spawn(worker(p))
        sim.run()
        assert barrier.generations == phases


class TestCoreInvariantProperties:
    @given(st.lists(st.tuples(st.integers(0, 63), st.booleans()),
                    min_size=1, max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_app_instructions_preserved_under_informing(self, refs):
        """Any load/store mix commits the same app work with traps on."""
        from tests.helpers import make_ooo, trap_config
        trace = []
        for i, (slot, is_write) in enumerate(refs):
            addr = 0x40000 + slot * 64
            if is_write:
                from repro.isa import store
                trace.append(store(addr, pc=0x1000 + 4 * i))
            else:
                trace.append(load(addr, dest=2, pc=0x1000 + 4 * i))
        base = make_ooo().run(list(trace))
        informed = make_ooo(informing=trap_config(n=2)).run(list(trace))
        assert informed.app_instructions == base.app_instructions == len(refs)
        assert informed.cycles >= 1


def _spec92_cell(backend, benchmark, machine, seed, informing):
    """Stats and memory stats of one SPEC92 cell (4,000 measured
    instructions after 1,000 of warm-up) on a Table 1 machine."""
    from dataclasses import asdict

    from repro.harness.configs import MACHINES, build_core
    from repro.harness.runner import stream_bound
    from repro.memory import derive_seed
    from repro.pipeline.stream import SharedStream
    from repro.vec.inorder import run_inorder_vec
    from repro.vec.ooo import run_ooo_vec
    from repro.workloads import spec92_workload

    instructions, warmup = 4_000, 1_000
    core = build_core(MACHINES[machine], informing=informing,
                      replacement_seed=derive_seed(seed))
    workload = spec92_workload(benchmark, seed_offset=seed)
    bound = stream_bound(instructions, warmup)
    if backend == "interp":
        stats = core.run(workload.stream(bound),
                         max_app_insts=instructions + warmup,
                         warmup_insts=warmup)
    else:
        run = run_ooo_vec if machine == "ooo" else run_inorder_vec
        stats = run(core, SharedStream(workload.rows(bound)),
                    max_app_insts=instructions + warmup, warmup_insts=warmup)
    return asdict(stats), asdict(core.hierarchy.stats)


class TestPaperProperties:
    @pytest.mark.parametrize("backend", ["interp", "vec"])
    @given(benchmark=st.sampled_from(sorted(SPEC92)),
           machine=st.sampled_from(["ooo", "inorder"]),
           seed=st.integers(0, 20),
           trap_style=st.sampled_from(list(TrapStyle)),
           unique=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_mhar_zero_is_no_informing(self, backend, benchmark, machine,
                                       seed, trap_style, unique):
        """§2: writing 0 into the MHAR disables informing, so a trap
        machine with no handler runs exactly the uninformed run: cycles,
        app and handler instructions, graduation slots and L1 misses."""
        disabled = InformingConfig(mechanism=Mechanism.TRAP,
                                   trap_style=trap_style,
                                   unique_handlers=unique)
        assert (_spec92_cell(backend, benchmark, machine, seed, disabled)
                == _spec92_cell(backend, benchmark, machine, seed,
                                InformingConfig()))


# ---------------------------------------------------------------------------
# Seeded-random replacement and MSHR invariants (plain random.Random — these
# enumerate fixed seed ranges so every CI run replays the identical cases).
# ---------------------------------------------------------------------------

class _RefCache:
    """Reference replacement model mirroring Cache's documented semantics.

    Each set is a list of lines in replacement order (oldest first) plus a
    dirty map.  ``lru`` refreshes on probe hits and fills, ``fifo`` only on
    fills, ``random`` never reorders and picks its victim with the same
    LCG stream the Cache uses.
    """

    def __init__(self, num_sets, assoc, line_size, policy, seed=12345):
        self.num_sets = num_sets
        self.assoc = assoc
        self.line_shift = line_size.bit_length() - 1
        self.policy = policy
        self.order = [[] for _ in range(num_sets)]
        self.dirty = [dict() for _ in range(num_sets)]
        self.rand_state = seed or 1

    def _set(self, line):
        return line & (self.num_sets - 1)

    def probe(self, addr, is_write=False):
        line = addr >> self.line_shift
        s = self._set(line)
        if line not in self.dirty[s]:
            return False
        if self.policy == "lru":
            self.order[s].remove(line)
            self.order[s].append(line)
            self.dirty[s][line] = self.dirty[s][line] or is_write
        elif is_write:
            self.dirty[s][line] = True
        return True

    def fill(self, addr, dirty=False):
        line = addr >> self.line_shift
        s = self._set(line)
        if line in self.dirty[s]:
            if self.policy != "random":
                self.order[s].remove(line)
                self.order[s].append(line)
            self.dirty[s][line] = self.dirty[s][line] or dirty
            return
        if len(self.order[s]) >= self.assoc:
            if self.policy == "random":
                self.rand_state = (
                    self.rand_state * 1103515245 + 12345) & 0x7FFFFFFF
                index = self.rand_state % len(self.order[s])
            else:
                index = 0
            victim = self.order[s].pop(index)
            del self.dirty[s][victim]
        self.order[s].append(line)
        self.dirty[s][line] = dirty


def _replacement_case(seed, policy):
    """One randomized config + op string, checked after every operation."""
    rng = random.Random(seed)
    num_sets = rng.choice([1, 2, 4, 8])
    assoc = rng.randint(1, 8)
    line_size = 32
    config = CacheConfig(size=num_sets * assoc * line_size, assoc=assoc,
                         line_size=line_size)
    cache = Cache(config, policy=policy)
    model = _RefCache(num_sets, assoc, line_size, policy)
    # A pool a little larger than capacity forces steady evictions.
    pool = [rng.randrange(0, 4 * num_sets * assoc) * line_size
            for _ in range(3 * assoc * num_sets + 4)]
    for _ in range(rng.randint(20, 120)):
        addr = rng.choice(pool)
        is_write = rng.random() < 0.3
        if rng.random() < 0.5:
            assert cache.probe(addr, is_write=is_write) == \
                model.probe(addr, is_write=is_write)
        else:
            cache.fill(addr, dirty=is_write)
            model.fill(addr, dirty=is_write)
        assert cache.resident_lines() <= num_sets * assoc
        for s in range(num_sets):
            assert list(cache._sets[s]) == model.order[s], \
                f"seed {seed}: set {s} order diverged"
            assert cache._sets[s] == model.dirty[s], \
                f"seed {seed}: set {s} dirty bits diverged"


class TestReplacementReferenceModel:
    """occupancy <= ways and exact resident-set/order/dirty agreement with
    the reference model, over randomized configs and access strings."""

    def test_lru_matches_reference(self):
        for seed in range(100):
            _replacement_case(seed, "lru")

    def test_fifo_matches_reference(self):
        for seed in range(100):
            _replacement_case(1000 + seed, "fifo")

    def test_random_matches_reference(self):
        for seed in range(100):
            _replacement_case(2000 + seed, "random")


class TestMSHRSeededInvariants:
    """Randomized MSHR lifetime sequences against the documented contract."""

    def test_merge_release_invariants(self):
        for seed in range(200):
            rng = random.Random(3000 + seed)
            count = rng.randint(1, 8)
            extended = rng.random() < 0.5
            file = MSHRFile(count=count, extended_lifetime=extended)
            pinned = []          # allocated ids awaiting release (extended)
            merged_total = 0
            for step in range(rng.randint(10, 60)):
                line = rng.randrange(0, 12)
                entry = file.lookup(line)
                if entry is not None:
                    before = entry.merged
                    file.merge(line, rng.random() < 0.5)
                    merged_total += 1
                    assert entry.merged == before + 1
                elif not file.full:
                    entry = file.allocate(line, step + 10,
                                          rng.random() < 0.5)
                    assert entry is not None
                    assert entry.pinned == extended
                    assert file.lookup(line) is entry
                    if extended:
                        pinned.append(entry.mshr_id)
                elif rng.random() < 0.5 and pinned:
                    # Full file: drain one pinned entry to make room.
                    mshr_id = pinned.pop(rng.randrange(len(pinned)))
                    file.mark_filled(mshr_id)
                    file.release(mshr_id, squashed=rng.random() < 0.5)
                # Core invariants after every operation:
                assert file.occupancy() <= count
                assert file.high_water <= count
                live_lines = [e.line_addr for e in file.entries()
                              if not e.filled]
                assert len(live_lines) == len(set(live_lines)), \
                    f"seed {seed}: duplicate in-flight line"
                for e in file.entries():
                    if not e.filled:
                        assert file.lookup(e.line_addr) is e
            # Drain: every entry releases; the file must come back empty.
            if extended:
                for mshr_id in pinned:
                    file.mark_filled(mshr_id)
                    file.release(mshr_id, squashed=False)
            else:
                for e in file.entries():
                    file.mark_filled(e.mshr_id)
            assert file.occupancy() == 0
            assert file.lookup(0) is None
