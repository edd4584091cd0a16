"""Figure 2: generic 1/10-instruction miss handlers on thirteen benchmarks.

Regenerates the figure's rows (N / S1 / U1 / S10 / U10 on both machines)
and asserts its qualitative claims:

* overheads grow with handler length and with cache-stall exposure;
* the near-miss-free benchmarks (ora, ear, espresso) are almost free;
* the out-of-order machine hides the 10-vs-1-instruction handler growth on
  the floating-point codes far better than the in-order machine;
* the per-reference MHAR-set instruction overlaps substantially on the
  out-of-order machine (U1 close to S1 relative to its instruction-count
  growth).
"""

import pytest

from conftest import INSTRUCTIONS, SEED, WARMUP, make_engine
from repro.harness.runner import run_figure
from repro.workloads import FIGURE2_BENCHMARKS, FP_BENCHMARKS

LOW_MISS = ("ora", "ear", "espresso")
FP_IN_FIGURE = [b for b in FP_BENCHMARKS if b != "su2cor"]


@pytest.fixture(scope="module")
def figure2_result():
    return run_figure("figure2", FIGURE2_BENCHMARKS, ["ooo", "inorder"],
                      ["N", "S1", "U1", "S10", "U10"], INSTRUCTIONS, WARMUP,
                      seed=SEED, engine=make_engine())


def test_figure2_runs(run_once):
    """The timed row: one benchmark end to end, all five bars."""
    result = run_once(run_figure, "figure2-compress", ["compress"],
                      ["ooo", "inorder"], ["N", "S1", "U1", "S10", "U10"],
                      INSTRUCTIONS, WARMUP)
    assert len(result.bars) == 10


def test_handler_length_monotonicity(figure2_result):
    for bench in FIGURE2_BENCHMARKS:
        for machine in ("ooo", "inorder"):
            s1 = figure2_result.get(bench, machine, "S1").normalized
            s10 = figure2_result.get(bench, machine, "S10").normalized
            assert s10 >= s1 - 0.02, (bench, machine)


def test_low_miss_benchmarks_nearly_free(figure2_result):
    for bench in LOW_MISS:
        for machine in ("ooo", "inorder"):
            s10 = figure2_result.get(bench, machine, "S10").normalized
            assert s10 <= 1.12, (bench, machine, s10)


def test_most_overheads_within_forty_percent(figure2_result):
    """Paper: overhead < 40% for twelve of thirteen benchmarks (tomcatv
    excepted) in nearly all configurations; we allow the miss-heaviest
    in-order 10-instruction bars to exceed it (see EXPERIMENTS.md)."""
    over = [
        (bar.benchmark, bar.machine, bar.label, round(bar.normalized, 2))
        for bar in figure2_result.bars
        if bar.label != "N" and bar.normalized > 1.40
    ]
    # Only 10-instruction handler configs may break the envelope, and only
    # on the in-order machine (plus tomcatv, the paper's own exception).
    for bench, machine, label, value in over:
        assert label in ("S10", "U10") or bench == "tomcatv", over
        assert machine == "inorder" or bench == "tomcatv", over


def test_ooo_hides_long_handlers_on_fp(figure2_result):
    """The Figure 2 FP trend: (S10-S1) gap much smaller out-of-order."""
    ooo_gap = []
    inorder_gap = []
    for bench in FP_IN_FIGURE:
        ooo_gap.append(
            figure2_result.get(bench, "ooo", "S10").normalized
            - figure2_result.get(bench, "ooo", "S1").normalized)
        inorder_gap.append(
            figure2_result.get(bench, "inorder", "S10").normalized
            - figure2_result.get(bench, "inorder", "S1").normalized)
    assert sum(inorder_gap) > sum(ooo_gap)


def test_tomcatv_in_order_long_handler_worst(figure2_result):
    """Paper: tomcatv's 10-vs-1 difference is <10% out-of-order but >45%
    in-order (shape: the in-order gap is several times the ooo gap).
    Needs the full stream length: it fails with REPRO_BENCH_QUICK=1."""
    ooo_gap = (figure2_result.get("tomcatv", "ooo", "S10").normalized
               - figure2_result.get("tomcatv", "ooo", "S1").normalized)
    inorder_gap = (figure2_result.get("tomcatv", "inorder", "S10").normalized
                   - figure2_result.get("tomcatv", "inorder", "S1").normalized)
    assert inorder_gap > ooo_gap

def test_unique_handler_instruction_growth_overlapped_ooo(figure2_result):
    """alvinn/mdljsp2: U adds ~mem_fraction extra instructions, but the
    out-of-order machine absorbs most of them (time grows by much less
    than the instruction count)."""
    for bench in ("alvinn", "mdljsp2"):
        baseline = figure2_result.get(bench, "ooo", "N")
        unique = figure2_result.get(bench, "ooo", "U1")
        inst_growth = unique.instructions / baseline.instructions - 1.0
        time_growth = unique.normalized - 1.0
        assert inst_growth > 0.25, (bench, inst_growth)
        assert time_growth < inst_growth * 0.6, (bench, time_growth,
                                                 inst_growth)


def test_breakdowns_are_valid(figure2_result):
    for bar in figure2_result.bars:
        assert bar.busy + bar.cache_stall + bar.other_stall == pytest.approx(
            1.0, abs=0.01)
        assert bar.handler_invocations == 0 or bar.label != "N"
