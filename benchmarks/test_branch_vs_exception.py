"""§3.2 / §4.2.2: branch-like vs exception-like informing traps.

Paper: postponing the trap until the reference reaches the head of the
reorder buffer (exception-style) costs ~9% / ~7% extra execution time for
1- / 10-instruction handlers on compress — "the additional complexity of
handling informing traps as mispredicted branches does buy us something".
"""

import functools

import pytest

from conftest import INSTRUCTIONS, SEED, WARMUP
from repro.harness.runner import run_figure


@pytest.fixture(scope="module")
def bve_result():
    return run_figure("bve", ["compress"], ["ooo"],
                      ["N", "S1", "E1", "S10", "E10"], INSTRUCTIONS, WARMUP,
                      seed=SEED)


def test_branch_vs_exception_runs(run_once):
    result = run_once(run_figure, "bve", ["compress"], ["ooo"],
                      ["N", "S1", "E1"], INSTRUCTIONS, WARMUP, seed=SEED)
    assert len(result.bars) == 3


def test_exception_style_costs_more(bve_result):
    """Needs the full stream length: it fails with REPRO_BENCH_QUICK=1."""
    s1 = bve_result.get("compress", "ooo", "S1").normalized
    e1 = bve_result.get("compress", "ooo", "E1").normalized
    s10 = bve_result.get("compress", "ooo", "S10").normalized
    e10 = bve_result.get("compress", "ooo", "E10").normalized
    assert e1 > s1
    assert e10 > s10


def test_extra_cost_in_paper_ballpark(bve_result):
    """Paper: +9% (1-inst) and +7% (10-inst); accept 2-25%.  Needs the
    full stream length: it fails with REPRO_BENCH_QUICK=1."""
    s1 = bve_result.get("compress", "ooo", "S1").normalized
    e1 = bve_result.get("compress", "ooo", "E1").normalized
    s10 = bve_result.get("compress", "ooo", "S10").normalized
    e10 = bve_result.get("compress", "ooo", "E10").normalized
    assert 0.02 < e1 - s1 < 0.25, (s1, e1)
    assert 0.01 < e10 - s10 < 0.25, (s10, e10)


def test_same_handler_work_either_way(bve_result):
    s10 = bve_result.get("compress", "ooo", "S10")
    e10 = bve_result.get("compress", "ooo", "E10")
    ratio = e10.handler_invocations / max(1, s10.handler_invocations)
    assert 0.7 < ratio < 1.3


@pytest.fixture(scope="module")
def equal_shadow_cycles():
    """Cycles of compress on the ooo machine per (backend, bar), every
    core built with the informing shadow slots, so that an E bar differs
    from its S bar by the trap style alone (``build_core`` otherwise
    gives only the branch-like bars the extra slots)."""
    from repro.harness.configs import (
        INFORMING_SHADOW_SLOTS,
        MACHINES,
        build_core,
    )
    from repro.harness.runner import bar_config, shared_stream, stream_bound
    from repro.memory import derive_seed
    from repro.vec.ooo import run_ooo_vec

    cycles = {}
    for label in ("N", "S1", "E1", "S10", "E10"):
        bar = bar_config(label)
        for backend in ("interp", "vec"):
            core = build_core(MACHINES["ooo"], informing=bar.informing,
                              shadow_override=INFORMING_SHADOW_SLOTS,
                              replacement_seed=derive_seed(SEED))
            stream = shared_stream("compress", SEED,
                                   stream_bound(INSTRUCTIONS, WARMUP),
                                   "plain", rows=backend == "vec")
            run = (core.run if backend == "interp"
                   else functools.partial(run_ooo_vec, core))
            stats = run(stream, max_app_insts=INSTRUCTIONS + WARMUP,
                        warmup_insts=WARMUP)
            cycles[backend, label] = stats.cycles
    return cycles


@pytest.mark.parametrize("backend", ["interp", "vec"])
def test_trap_style_alone_costs_more(equal_shadow_cycles, backend):
    """With equal shadow slots, an exception-style trap still costs more
    than a branch-style one, so a core that ignored the trap style would
    fail here.  Needs the full stream length."""
    base = equal_shadow_cycles[backend, "N"]
    bar = {label: equal_shadow_cycles[backend, label] / base
           for label in ("S1", "E1", "S10", "E10")}
    assert bar["E1"] > bar["S1"], bar
    assert bar["E10"] > bar["S10"], bar
