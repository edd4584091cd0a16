"""§3.3: cache-as-visible-state — speculative informing loads and MSHRs.

Paper claims: extending MSHR lifetimes until graduate/squash (with
squashed fills invalidated out of the L1) preserves the access-check
guarantee; eight MSHRs remained sufficient in all cases; and the squashed
data usually survives in the L2 — an accidental prefetch.
"""

import random

import pytest

from repro.harness import R10000_SPEC, build_core
from repro.isa import OpClass, alu, branch, load
from repro.isa.instructions import DynInst


def wrong_path_factory(branch_inst):
    base = 0x900000 + (branch_inst.pc & 0xFFF) * 0x40

    def generate():
        i = 0
        while True:
            yield load(base + 64 * i, dest=5, pc=0xF000 + 4 * (i % 16))
            yield alu(dest=6, srcs=(5,), pc=0xF100 + 4 * (i % 16))
            i += 1

    return generate()


def slow_branch_trace(n=300, seed=9):
    """Mispredicting branches gated by divide chains, so wrong-path fills
    often complete before the squash."""
    rng = random.Random(seed)
    trace = []
    for i in range(n):
        pc = 0x1000 + 16 * i
        trace.append(DynInst(OpClass.IDIV, dest=9, srcs=(1,), pc=pc))
        trace.append(DynInst(OpClass.IDIV, dest=9, srcs=(9,), pc=pc + 4))
        trace.append(branch(rng.random() < 0.5, srcs=(9,), pc=pc + 8))
        trace.append(alu(dest=1, pc=pc + 12))
    return trace


@pytest.fixture(scope="module")
def speculation_run():
    core = build_core(R10000_SPEC, extended_mshr=True,
                      wrong_path_factory=wrong_path_factory)
    stats = core.run(slow_branch_trace())
    return core, stats


def test_speculation_runs(run_once):
    def run():
        core = build_core(R10000_SPEC, extended_mshr=True,
                          wrong_path_factory=wrong_path_factory)
        return core, core.run(slow_branch_trace(100))
    core, stats = run_once(run)
    assert stats.cycles > 0


def test_eight_mshrs_remain_sufficient(speculation_run):
    core, _ = speculation_run
    assert core.hierarchy.mshrs.high_water <= 8
    assert core.hierarchy.mshrs.occupancy() == 0  # all released


def test_squashed_fills_invalidated_from_l1(speculation_run):
    core, _ = speculation_run
    assert core.wrong_path_squashed > 0
    assert core.hierarchy.stats.squash_invalidations > 0


def test_squashed_data_survives_in_l2(speculation_run):
    core, _ = speculation_run
    core.hierarchy.drain()
    surviving = sum(
        1 for set_ in core.hierarchy.l2._sets.values() for line in set_
        if (line << 5) >= 0x900000)
    assert surviving > 0  # "effectively prefetched into the L2"


def test_without_guarantee_l1_is_polluted():
    """Contrast run: no MSHR extension — wrong-path lines stay in L1."""
    core = build_core(R10000_SPEC, extended_mshr=False,
                      wrong_path_factory=wrong_path_factory)
    core.run(slow_branch_trace())
    core.hierarchy.drain()
    assert core.hierarchy.stats.squash_invalidations == 0
    polluted = sum(
        1 for set_ in core.hierarchy.l1._sets.values() for line in set_
        if (line << 5) >= 0x900000)
    assert polluted > 0
