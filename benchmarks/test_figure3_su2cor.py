"""Figure 3: su2cor's conflict-miss pathology on the in-order machine.

Paper claims: the 8KB direct-mapped primary cache triggers the
10-instruction handler often enough to roughly quintuple the instruction
count and triple the execution time; the out-of-order machine (32KB 2-way)
is only modestly affected; and unique handlers can be *faster* than a
single handler because independent handler invocations expose parallelism.
"""

import pytest

from conftest import INSTRUCTIONS, SEED, WARMUP
from repro.harness.runner import run_figure


@pytest.fixture(scope="module")
def figure3_result():
    return run_figure("figure3", ["su2cor"], ["ooo", "inorder"],
                      ["N", "S1", "U1", "S10", "U10"], INSTRUCTIONS, WARMUP,
                      seed=SEED)


def test_figure3_runs(run_once):
    result = run_once(run_figure, "figure3", ["su2cor"], ["inorder"],
                      ["N", "S10"], INSTRUCTIONS, WARMUP)
    assert len(result.bars) == 2


def test_in_order_blowup(figure3_result):
    """Needs the full stream length: it fails with REPRO_BENCH_QUICK=1."""
    s10 = figure3_result.get("su2cor", "inorder", "S10")
    assert s10.normalized > 1.8  # paper: ~3x
    baseline = figure3_result.get("su2cor", "inorder", "N")
    inst_growth = s10.instructions / baseline.instructions
    assert inst_growth > 2.5     # paper: ~5x ("quintuple")


def test_out_of_order_only_modestly_affected(figure3_result):
    s10 = figure3_result.get("su2cor", "ooo", "S10")
    assert s10.normalized < 1.5
    # The pathology is specifically the in-order machine's direct-mapped L1.
    assert (figure3_result.get("su2cor", "inorder", "S10").normalized
            > s10.normalized + 0.3)


def test_conflicts_come_from_the_direct_mapped_cache(figure3_result):
    """Needs the full stream length: it fails with REPRO_BENCH_QUICK=1."""
    in_order_miss = figure3_result.get("su2cor", "inorder", "N").l1_miss_rate
    ooo_miss = figure3_result.get("su2cor", "ooo", "N").l1_miss_rate
    assert in_order_miss > 1.5 * ooo_miss


def test_unique_handlers_expose_parallelism(figure3_result):
    """Paper: su2cor sometimes runs faster with unique handlers than a
    single handler, because a single handler's invocations are data
    dependent on each other.  Assert the shape: U10 is not much worse than
    S10 *relative to the extra per-reference instruction it carries*."""
    s10 = figure3_result.get("su2cor", "ooo", "S10")
    u10 = figure3_result.get("su2cor", "ooo", "U10")
    inst_growth = (u10.instructions - s10.instructions) / s10.instructions
    time_growth = (u10.normalized - s10.normalized) / s10.normalized
    assert time_growth < inst_growth
