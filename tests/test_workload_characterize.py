"""Unit tests for workload characterisation."""

import pytest

from repro.workloads import SPEC92, spec92_workload
from repro.workloads.characterize import characterize, render_profile


class TestCharacterize:
    def test_limit_respected(self):
        profile = characterize(spec92_workload("compress").stream(50_000),
                               limit=5_000)
        assert profile.instructions == 5_000

    def test_mix_sums_to_instructions(self):
        profile = characterize(spec92_workload("alvinn").stream(10_000))
        assert sum(profile.mix.values()) == profile.instructions

    @pytest.mark.parametrize("name", ["compress", "alvinn", "ora"])
    def test_realised_fractions_match_spec(self, name):
        spec = SPEC92[name]
        profile = characterize(spec92_workload(name).stream(20_000))
        assert profile.mem_fraction == pytest.approx(spec.mem_fraction,
                                                     abs=0.06)
        assert profile.branch_fraction == pytest.approx(
            spec.branch_fraction, abs=0.05)

    def test_branch_predictability_tracks_bias(self):
        profile = characterize(spec92_workload("swm256").stream(20_000))
        spec = SPEC92["swm256"]
        assert profile.mean_branch_predictability == pytest.approx(
            spec.branch_bias, abs=0.05)

    def test_footprints_differ_between_small_and_large(self):
        ora = characterize(spec92_workload("ora").stream(20_000))
        tomcatv = characterize(spec92_workload("tomcatv").stream(20_000))
        assert tomcatv.footprint_bytes > 4 * ora.footprint_bytes

    def test_static_refs_bounded_by_body(self):
        workload = spec92_workload("compress")
        profile = characterize(workload.stream(20_000))
        body = range(workload.spec.base_pc,
                     workload.spec.base_pc + 4 * workload.spec.body_length, 4)
        assert profile.static_ref_pcs <= set(body)

    def test_render(self):
        profile = characterize(spec92_workload("ora").stream(5_000))
        text = render_profile("ora", profile)
        assert "memory fraction" in text
        assert "ora" in text

    def test_empty_stream(self):
        profile = characterize(iter([]))
        assert profile.instructions == 0
        assert profile.mem_fraction == 0.0
        assert profile.mean_branch_predictability == 1.0
