"""Unit tests for result serialisation."""

import json

import pytest

from repro.harness.coherence_exp import Figure4Result, Figure4Row, SensitivityPoint
from repro.harness.export import (
    figure4_to_json,
    figure_to_json,
    sensitivity_to_json,
)
from repro.harness.runner import BarResult, FigureResult


def sample_figure():
    result = FigureResult(name="sample")
    for label, cycles in (("N", 1000), ("S1", 1100)):
        result.bars.append(BarResult(
            benchmark="compress", machine="ooo", label=label, cycles=cycles,
            busy=0.3, cache_stall=0.5, other_stall=0.2,
            app_instructions=5000, handler_instructions=200,
            handler_invocations=100, l1_miss_rate=0.08))
    result.normalize()
    return result


class TestFigureJSON:
    def test_json_is_valid(self):
        data = json.loads(figure_to_json(sample_figure()))
        assert data["bars"][1]["normalized"] == pytest.approx(1.1)


class TestFigure4JSON:
    def test_serialises_means(self):
        result = Figure4Result(rows=[
            Figure4Row("read_mostly", 1000, 1.2, 1.1),
            Figure4Row("mixed", 900, 1.3, 1.2),
        ])
        data = json.loads(figure4_to_json(result))
        assert data["mean_reference_checking"] == pytest.approx(1.25)
        assert data["rows"][0]["workload"] == "read_mostly"


class TestSensitivityJSON:
    def test_serialises_points(self):
        points = [SensitivityPoint(900, 16384, 1.2, 1.1)]
        data = json.loads(sensitivity_to_json(points))
        assert data["points"] == [{"message_latency": 900, "l1_size": 16384,
                                   "reference_checking": 1.2, "ecc": 1.1}]
