"""``bench replacement``: the ablation grid and its committed artifact.

A tiny live grid proves the fold logic (deltas vs lru, spread, lru
forced into the policy list); the committed
``results/replacement_ablation.json`` and ``results/golden/explain``
artifacts are then checked for internal consistency — the acceptance
claim of this lab is that at least one workload separates the policies
measurably *and* the explain diagnosis names the mechanism, so a stale
or hand-edited artifact must fail loudly here.
"""

import json
from pathlib import Path

import pytest

from repro.harness.replacement import (
    _most_different_policy,
    render_ablation,
    run_ablation,
    write_explain_artifacts,
)

REPO = Path(__file__).resolve().parents[1]
ARTIFACT = REPO / "results" / "replacement_ablation.json"
EXPLAIN_DIR = REPO / "results" / "golden" / "explain"


class TestLiveGrid:
    @pytest.fixture(scope="class")
    def payload(self):
        return run_ablation(["compress"], ["lru", "rrip"], "lab",
                            3000, 1500)

    def test_cells_and_deltas(self, payload):
        row = payload["cells"]["compress"]
        assert row["lru"]["delta_vs_lru"] == 0.0
        expected = round(row["rrip"]["cycles"] / row["lru"]["cycles"] - 1.0,
                         6)
        assert row["rrip"]["delta_vs_lru"] == expected

    def test_spread_is_max_abs_delta(self, payload):
        row = payload["cells"]["compress"]
        assert payload["spread"]["compress"] == round(
            max(abs(cell["delta_vs_lru"]) for cell in row.values()), 6)

    def test_render_lists_every_policy_column(self, payload):
        text = render_ablation(payload)
        assert "compress" in text and "rrip" in text and "spread" in text

    def test_explain_artifacts_written(self, payload, tmp_path):
        written = write_explain_artifacts(payload, str(tmp_path),
                                          trace_threshold=2.0)
        # Threshold of 200% suppresses every raw trace; the analyses
        # (lru + the one rival policy) must still be written.
        names = sorted(Path(p).name for p in written)
        assert names == ["compress_lab_N.lru.explain.json",
                         "compress_lab_N.rrip.explain.json"]
        analysis = json.loads((tmp_path / names[1]).read_text())
        assert analysis["source"]["policy"] == "rrip"
        assert "diagnosis" in analysis


class TestRivalChoice:
    def test_all_zero_ties_follow_policy_order_not_key_order(self):
        """ora separates nothing: every delta is 0.  The rival must not
        depend on whether the row came from a live grid (policy order)
        or from the committed, key-sorted JSON."""
        policies = ["lru", "fifo", "random", "plru", "rrip", "brrip"]
        live = {p: {"delta_vs_lru": 0.0} for p in policies}
        sorted_row = dict(sorted(live.items()))
        assert _most_different_policy(live, policies) == "brrip"
        assert _most_different_policy(sorted_row, policies) == "brrip"

    def test_largest_delta_wins_regardless_of_order(self):
        row = {"rrip": {"delta_vs_lru": -0.05}, "lru": {"delta_vs_lru": 0.0},
               "fifo": {"delta_vs_lru": 0.01}}
        assert _most_different_policy(row, ["lru", "fifo", "rrip"]) == "rrip"

    def test_committed_artifact_picks_the_committed_rival(self):
        artifact = json.loads(ARTIFACT.read_text())
        rival = _most_different_policy(artifact["cells"]["ora"],
                                       artifact["policies"])
        assert (EXPLAIN_DIR / f"ora_lab_N.{rival}.explain.json").is_file()


class TestCommittedArtifact:
    @pytest.fixture(scope="class")
    def artifact(self):
        assert ARTIFACT.is_file(), "committed ablation artifact missing"
        return json.loads(ARTIFACT.read_text())

    def test_shape(self, artifact):
        assert artifact["kind"] == "replacement_ablation"
        assert artifact["machine"] == "lab"
        for benchmark in artifact["benchmarks"]:
            row = artifact["cells"][benchmark]
            assert set(row) == set(artifact["policies"])

    def test_a_workload_separates_the_policies(self, artifact):
        """The acceptance bar: >= 1% spread on at least one benchmark."""
        assert max(artifact["spread"].values()) >= 0.01

    def test_explain_names_the_winning_mechanism(self, artifact):
        """For the widest-spread benchmark, the committed explain
        analysis of its best non-lru policy must name that policy
        family in its diagnosis."""
        benchmark = max(artifact["spread"], key=artifact["spread"].get)
        row = artifact["cells"][benchmark]
        winner = min((p for p in row if p != "lru"),
                     key=lambda p: row[p]["cycles"])
        path = (EXPLAIN_DIR
                / f"{benchmark}_{artifact['machine']}_N.{winner}.explain.json")
        assert path.is_file(), f"missing committed explain for {winner}"
        analysis = json.loads(path.read_text())
        assert winner.replace("b", "") in analysis["diagnosis"] or \
            winner in analysis["diagnosis"]

    def test_committed_traces_parse(self):
        traces = sorted(EXPLAIN_DIR.glob("*.events.jsonl"))
        assert traces, "no committed explain traces"
        from repro.obs.export import read_jsonl
        for trace in traces:
            events = read_jsonl(str(trace), strict=True)
            assert events and all("kind" in event for event in events)
