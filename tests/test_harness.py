"""Integration tests for the experiment harness (small run sizes)."""

import pytest

from repro.harness import ALPHA21164_SPEC, MACHINES, R10000_SPEC, build_core
from repro.harness.coherence_exp import (
    Figure4Result,
    figure4,
    render_figure4,
    sensitivity,
)
from repro.harness.runner import (
    bar_config,
    run_bar,
    run_figure,
)
from repro.harness.report import render_figure, summarize_claims
from repro.coherence import CoherenceMachineParams
from repro.core import Mechanism, TrapStyle

N, W = 3000, 1000


class TestTable1Configs:
    """Every Table 1 cell, asserted."""

    def test_out_of_order_pipeline(self):
        core = R10000_SPEC.core
        assert core.issue_width == 4
        assert (core.int_units, core.fp_units, core.branch_units,
                core.mem_units) == (2, 2, 1, 1)
        assert core.rob_size == 32
        assert core.latencies.imul == 12
        assert core.latencies.idiv == 76
        assert core.latencies.fdiv == 15
        assert core.latencies.fsqrt == 20
        assert core.latencies.fp_other == 2

    def test_in_order_pipeline(self):
        core = ALPHA21164_SPEC.core
        assert core.issue_width == 4
        assert (core.int_units, core.fp_units, core.branch_units,
                core.mem_units) == (2, 2, 1, 0)
        assert core.latencies.fdiv == 17
        assert core.latencies.fp_other == 4

    def test_out_of_order_memory(self):
        mem = R10000_SPEC.hierarchy
        assert (mem.l1.size, mem.l1.assoc) == (32 * 1024, 2)
        assert (mem.l2.size, mem.l2.assoc) == (2 * 1024 * 1024, 2)
        assert mem.l1.line_size == 32
        assert mem.l1_to_l2_latency == 12
        assert mem.l1_to_mem_latency == 75
        assert mem.mshr_count == 8
        assert mem.data_banks == 2
        assert mem.fill_time == 4
        assert mem.mem_cycles_per_access == 20

    def test_in_order_memory(self):
        mem = ALPHA21164_SPEC.hierarchy
        assert (mem.l1.size, mem.l1.assoc) == (8 * 1024, 1)
        assert (mem.l2.size, mem.l2.assoc) == (2 * 1024 * 1024, 4)
        assert mem.l1_to_l2_latency == 11
        assert mem.l1_to_mem_latency == 50

    def test_icache_matches_dcache_geometry(self):
        assert R10000_SPEC.icache.size == 32 * 1024
        assert ALPHA21164_SPEC.icache.size == 8 * 1024


class TestBarConfigs:
    def test_baseline(self):
        assert bar_config("N").informing is None

    def test_single_trap(self):
        bar = bar_config("S10")
        assert bar.informing.mechanism is Mechanism.TRAP
        assert bar.informing.handler.length == 10
        assert not bar.informing.unique_handlers
        assert bar.per_ref_instrumentation is None

    def test_unique_trap(self):
        bar = bar_config("U1")
        assert bar.informing.unique_handlers
        assert bar.per_ref_instrumentation == "mhar"

    def test_exception_style(self):
        bar = bar_config("E10")
        assert bar.informing.trap_style is TrapStyle.EXCEPTION_LIKE

    def test_condition_code(self):
        bar = bar_config("CC1")
        assert bar.informing.mechanism is Mechanism.CONDITION_CODE
        assert bar.per_ref_instrumentation == "cc"

    def test_hundred(self):
        assert bar_config("S100").informing.handler.length == 100

    def test_unknown(self):
        with pytest.raises(ValueError):
            bar_config("Z3")

    @pytest.mark.parametrize("label", [
        "S", "U", "E", "CC",        # missing handler length
        "Ux", "S1x", "CCx", "CC1x",  # non-decimal handler length
        "", "n", "NN", "10", "S-1",  # junk
    ])
    def test_malformed_labels_raise_descriptive_error(self, label):
        with pytest.raises(ValueError, match="unknown bar label"):
            bar_config(label)


class TestRunners:
    def test_run_bar_produces_result(self):
        result = run_bar("espresso", "ooo", bar_config("S1"), N, W)
        assert result.cycles > 0
        # Commit is up to 4-wide, so the budget may overshoot by < width.
        assert N <= result.app_instructions < N + 4
        assert 0.99 <= result.busy + result.cache_stall + result.other_stall <= 1.01

    def test_figure_normalization(self):
        figure = run_figure("mini", ["espresso"], ["ooo"], ["N", "S1"], N, W)
        baseline = figure.get("espresso", "ooo", "N")
        informed = figure.get("espresso", "ooo", "S1")
        assert baseline.normalized == pytest.approx(1.0)
        assert informed.normalized == pytest.approx(
            informed.cycles / baseline.cycles)

    def test_missing_bar_raises(self):
        figure = run_figure("mini", ["espresso"], ["ooo"], ["N"], N, W)
        with pytest.raises(KeyError):
            figure.get("espresso", "inorder", "N")

    def test_overhead_ordering_s1_le_s10(self):
        figure = run_figure("mini", ["compress"], ["inorder"],
                            ["N", "S1", "S10"], N, W)
        s1 = figure.get("compress", "inorder", "S1").normalized
        s10 = figure.get("compress", "inorder", "S10").normalized
        assert 1.0 <= s1 <= s10

    def test_build_core_kinds(self):
        from repro.inorder import InOrderCore
        from repro.ooo import OutOfOrderCore
        assert isinstance(build_core(MACHINES["ooo"]), OutOfOrderCore)
        assert isinstance(build_core(MACHINES["inorder"]), InOrderCore)

    def test_build_core_raises_shadow_for_branch_like_informing(self):
        from repro.harness.configs import INFORMING_SHADOW_SLOTS
        bar = bar_config("S1")
        core = build_core(MACHINES["ooo"], informing=bar.informing)
        assert core.config.shadow_branches == INFORMING_SHADOW_SLOTS
        base = build_core(MACHINES["ooo"])
        assert base.config.shadow_branches == 4

    def test_shadow_override(self):
        bar = bar_config("S1")
        core = build_core(MACHINES["ooo"], informing=bar.informing,
                          shadow_override=3)
        assert core.config.shadow_branches == 3


class TestReportRendering:
    def figure(self):
        return run_figure("mini", ["espresso"], ["ooo"], ["N", "S1"], N, W)

    def test_render_figure(self):
        text = render_figure(self.figure(), "title")
        assert "espresso" in text
        assert "S1" in text

    def test_summarize_claims(self):
        notes = summarize_claims(self.figure())
        assert notes


class TestCoherenceHarness:
    def small_machine(self):
        return CoherenceMachineParams(processors=4)

    def test_figure4_rows(self):
        result = figure4(self.small_machine(),
                         workloads=["read_mostly", "mixed"])
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.reference_checking >= 0.95
            assert row.ecc >= 0.95
        assert result.mean_ecc > 0

    def test_render_figure4(self):
        result = figure4(self.small_machine(), workloads=["read_mostly"])
        text = render_figure4(result)
        assert "read_mostly" in text
        assert "mean" in text

    def test_sensitivity_latency_trend(self):
        points = sensitivity(workloads=["read_mostly"],
                             message_latencies=(100, 1800),
                             l1_sizes=())
        # Smaller network latency -> informing relatively better (larger
        # comparator ratios).
        by_latency = {p.message_latency: p for p in points}
        assert (by_latency[100].reference_checking
                >= by_latency[1800].reference_checking)


class TestCLI:
    def test_table_commands(self, capsys):
        from repro.harness.__main__ import main
        assert main(["table1"]) == 0
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "issue width" in out
        assert "message latency" in out
