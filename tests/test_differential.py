"""Differential testing: both cores vs a functional cache reference model.

Random synthetic workloads of dependency-chained loads (each load's source
is the previous load's destination, so references fully serialise on both
machines) are replayed on the in-order and out-of-order cores with
informing disabled.  Because each access only begins after the previous
fill has landed, a simple functional set-associative LRU model that
installs lines immediately predicts the exact per-reference hit/miss
outcome sequence — which we read back from a :class:`repro.obs.Observer`
event trace and cross-check against the hierarchy's aggregate stats.
"""

import random

import pytest

from repro.isa.instructions import DynInst
from repro.isa.opclass import OpClass
from repro.obs.observer import Observer
from repro.obs.events import L1_HIT, L1_MERGE, L1_MISS

from .helpers import make_inorder, make_ooo, small_hierarchy

LINE_SIZE = 32
L1_SETS = 8      # small_hierarchy: 512 B / (2 ways * 32 B line)
L1_WAYS = 2


class FunctionalLRU:
    """Set-associative LRU cache that installs missing lines immediately."""

    def __init__(self, num_sets=L1_SETS, ways=L1_WAYS, line_size=LINE_SIZE):
        self.num_sets = num_sets
        self.ways = ways
        self.line_shift = line_size.bit_length() - 1
        self.sets = [[] for _ in range(num_sets)]

    def access(self, addr):
        """Reference one address; returns True on hit."""
        line = addr >> self.line_shift
        lines = self.sets[line & (self.num_sets - 1)]
        if line in lines:
            lines.remove(line)
            lines.append(line)
            return True
        if len(lines) >= self.ways:
            lines.pop(0)
        lines.append(line)
        return False


def chained_loads(rng, count):
    """A trace of loads where each depends on the previous one's result."""
    pool = [rng.randrange(0, 5 * L1_SETS * L1_WAYS) * LINE_SIZE
            for _ in range(3 * L1_SETS * L1_WAYS)]
    trace = []
    for i in range(count):
        trace.append(DynInst(
            OpClass.LOAD,
            dest=1 + (i % 2),
            srcs=(1 + ((i + 1) % 2),) if i else (),
            addr=rng.choice(pool),
            pc=0x4000 + 8 * (i % 64)))
    return trace


def _run_case(make_core, seed):
    rng = random.Random(seed)
    count = rng.randint(20, 80)
    trace = chained_loads(rng, count)

    model = FunctionalLRU()
    expected = [model.access(inst.addr) for inst in trace]

    hierarchy = small_hierarchy()
    core = make_core(hierarchy=hierarchy)
    obs = Observer(trace=True)
    obs.attach(core)
    stats = core.run(iter(trace), max_app_insts=count, warmup_insts=0)

    outcomes = []
    for event in obs.events:
        if event["kind"] == L1_HIT:
            outcomes.append(True)
        elif event["kind"] == L1_MISS:
            outcomes.append(False)
        else:
            # Serialised chains never overlap misses, so merges would mean
            # the serialisation premise (and the model) no longer holds.
            assert event["kind"] != L1_MERGE, \
                f"seed {seed}: unexpected secondary miss"
    assert outcomes == expected, f"seed {seed}: hit/miss sequence diverged"

    mem = hierarchy.stats
    assert mem.l1_accesses == count
    assert mem.l1_hits == sum(expected)
    assert mem.l1_misses == count - sum(expected)
    assert mem.l1_secondary_misses == 0
    assert stats.app_instructions == count
    return count


class TestCoreVsReferenceModel:
    """Per-reference hit/miss agreement over 100 seeds per core."""

    @pytest.mark.parametrize("block", range(10))
    def test_inorder_matches_functional_model(self, block):
        for seed in range(10 * block, 10 * block + 10):
            _run_case(make_inorder, seed)

    @pytest.mark.parametrize("block", range(10))
    def test_ooo_matches_functional_model(self, block):
        for seed in range(10 * block, 10 * block + 10):
            _run_case(make_ooo, seed)

    def test_cores_agree_with_each_other(self):
        """Same workload, both machines: identical outcome sequences."""
        for seed in (500, 501, 502, 503, 504):
            rng = random.Random(seed)
            trace = chained_loads(rng, 60)
            sequences = []
            for make_core in (make_inorder, make_ooo):
                core = make_core(hierarchy=small_hierarchy())
                obs = Observer(trace=True)
                obs.attach(core)
                core.run(iter(trace), max_app_insts=60, warmup_insts=0)
                sequences.append([e["kind"] == L1_HIT for e in obs.events
                                  if e["kind"] in (L1_HIT, L1_MISS)])
            assert sequences[0] == sequences[1], f"seed {seed}"
