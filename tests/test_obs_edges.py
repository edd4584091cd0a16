"""Obs edge paths: empty traces, corrupt JSONL, OpenMetrics round-trip."""

import json

import pytest

from repro.obs import (
    Registry,
    parse_openmetrics,
    read_jsonl,
    to_openmetrics,
    write_openmetrics,
)
from repro.obs.report import render_report, summarize


class TestEmptyTrace:
    def test_summarize_empty_event_list(self):
        summary = summarize([])
        assert summary["events"] == 0
        assert summary["accesses"] == 0
        assert summary["miss_rate"] == 0.0
        assert summary["cycles"] == (0, 0)

    def test_render_report_on_empty_trace(self):
        """A cell that never touched memory must still render cleanly."""
        text = render_report(summarize([]), title="empty")
        assert "obs report — empty" in text
        assert "0 events" in text
        # No division-by-zero percentages: blanks instead.
        assert "-" in text


class TestCorruptJsonl:
    def _write(self, tmp_path, lines):
        path = tmp_path / "trace.events.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_truncated_final_line_is_skipped(self, tmp_path):
        good = {"kind": "l1.hit", "cycle": 5}
        path = self._write(tmp_path, [
            json.dumps(good),
            json.dumps({"kind": "l1.miss", "cycle": 9})[:-7],  # cut short
        ])
        assert read_jsonl(path) == [good]

    def test_blank_lines_are_ignored(self, tmp_path):
        good = {"kind": "l1.hit", "cycle": 5}
        path = self._write(tmp_path, ["", json.dumps(good), "   ", ""])
        assert read_jsonl(path) == [good]

    def test_strict_mode_raises_with_location(self, tmp_path):
        path = self._write(tmp_path, [
            json.dumps({"kind": "l1.hit", "cycle": 5}),
            "{garbled",
        ])
        with pytest.raises(ValueError, match=r":2: corrupt JSONL line"):
            read_jsonl(path, strict=True)

    def test_recovered_prefix_still_summarizes(self, tmp_path):
        events = [{"kind": "l1.hit", "cycle": c, "address": 0, "level": 1}
                  for c in range(3)]
        lines = [json.dumps(e) for e in events] + ["{truncat"]
        summary = summarize(read_jsonl(self._write(tmp_path, lines)))
        assert summary["hits"] == 3
        assert summary["events"] == 3


def populated_registry():
    registry = Registry()
    registry.counter("l1.hit").inc(120)
    registry.counter("l1.miss").inc(7)
    latency = registry.histogram("l1.miss_latency")
    for value in (0, 1, 3, 8, 8, 21, 100):
        latency.record(value)
    return registry


class TestOpenMetrics:
    def test_round_trip_is_lossless(self):
        registry = populated_registry()
        parsed = parse_openmetrics(to_openmetrics(registry))
        expected = registry.to_dict()
        assert parsed["counters"] == {"l1_hit": 120, "l1_miss": 7}
        assert parsed["histograms"]["l1_miss_latency"] == \
            expected["histograms"]["l1.miss_latency"]

    def test_counters_become_total_samples(self):
        text = to_openmetrics(populated_registry())
        assert "# TYPE repro_l1_hit counter" in text
        assert "repro_l1_hit_total 120" in text
        assert text.endswith("# EOF\n")

    def test_histogram_buckets_are_cumulative_le_edges(self):
        registry = Registry()
        hist = registry.histogram("lat")
        for value in (0, 1, 3, 8):  # buckets 0, 1, 2, 8
            hist.record(value)
        text = to_openmetrics(registry)
        assert 'repro_lat_bucket{le="0"} 1' in text
        assert 'repro_lat_bucket{le="1"} 2' in text
        assert 'repro_lat_bucket{le="3"} 3' in text
        assert 'repro_lat_bucket{le="15"} 4' in text
        assert 'repro_lat_bucket{le="+Inf"} 4' in text
        assert "repro_lat_sum 12" in text
        assert "repro_lat_count 4" in text

    def test_empty_registry_exports_just_eof(self):
        assert to_openmetrics(Registry()) == "# EOF\n"
        assert parse_openmetrics("# EOF\n") == {"counters": {},
                                                "histograms": {}}

    def test_dict_payload_accepted(self):
        payload = populated_registry().to_dict()
        assert to_openmetrics(payload) == \
            to_openmetrics(populated_registry())

    def test_write_openmetrics_file(self, tmp_path):
        path = tmp_path / "metrics.om"
        write_openmetrics(populated_registry(), str(path))
        parsed = parse_openmetrics(path.read_text())
        assert parsed["counters"]["l1_hit"] == 120

    def test_custom_prefix(self):
        text = to_openmetrics(populated_registry(), prefix="sim_")
        assert "sim_l1_hit_total 120" in text
        parsed = parse_openmetrics(text, prefix="sim_")
        assert parsed["counters"]["l1_hit"] == 120
