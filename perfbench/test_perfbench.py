"""Tests of the benchmark's own helpers.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from cells import (FIG2_LABELS, FIG2_MACHINES, cross_check_cells,  # noqa: E402
                   profile_benchmarks, serve_cells, serve_sequence)
from hostref import (NOMINAL_REF_MS, HostRef, normalization_factor,  # noqa: E402
                     ref_loop)
from layers import LayerTrace, layer_of  # noqa: E402
from report import END_TO_END, PER_LAYER, Report  # noqa: E402
from stats import percentile, quartile_spread, result_digest, tail  # noqa: E402

BENCHES = ["compress", "eqntott", "espresso", "gcc", "li", "sc", "alvinn",
           "doduc", "ear", "hydro2d", "mdljsp2", "nasa7", "ora"]


# -- percentiles with sample counts -------------------------------------------

def test_percentile_nearest_rank_and_count_beyond():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == (50, 50)
    assert percentile(values, 90) == (90, 10)
    assert percentile(values, 99) == (99, 1)
    assert percentile(values, 100) == (100, 0)


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == percentile(sorted(values), 50) == (3.0, 2)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tail_requires_enough_samples_beyond():
    values = [float(v) for v in range(3250)]
    p99 = tail(values, 99, 30)
    assert p99 == {"value": 3217.0, "n": 3250, "beyond": 32}
    with pytest.raises(ValueError, match="beyond"):
        tail(values[:3000], 99, 31)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


# -- host normalization ---------------------------------------------------------

def test_normalization_scales_by_nominal_over_measured():
    assert normalization_factor(NOMINAL_REF_MS) == 1.0
    # A host twice as slow as nominal has its times halved.
    assert 10.0 * normalization_factor(2 * NOMINAL_REF_MS) == \
        pytest.approx(5.0)
    assert 10.0 * normalization_factor(NOMINAL_REF_MS / 2) == \
        pytest.approx(20.0)
    with pytest.raises(ValueError):
        normalization_factor(0.0)


def test_factor_at_uses_the_samples_around_the_index():
    ref = HostRef()
    ref.samples_ms = [1.0] * 20 + [4.0] * 20
    assert ref.factor_at(2, window=2) == pytest.approx(NOMINAL_REF_MS)
    assert ref.factor_at(30, window=2) == pytest.approx(NOMINAL_REF_MS / 4)
    # One outlier inside the window does not move the median.
    ref.samples_ms[5] = 100.0
    assert ref.factor_at(5, window=2) == pytest.approx(NOMINAL_REF_MS)
    with pytest.raises(IndexError):
        ref.factor_at(40)


def test_host_ref_records_samples_and_time_spent():
    ref = HostRef()
    spent = ref.sample(3)
    assert len(ref.samples_ms) == 3 and ref.last == 2
    assert spent == pytest.approx(sum(ref.samples_ms) / 1e3)
    assert ref.spent_s == spent
    assert ref_loop(1000) > 0


def test_hostref_imports_nothing_from_the_program():
    import ast

    with open(os.path.join(HERE, "hostref.py")) as fh:
        tree = ast.parse(fh.read())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    assert names and not any(n.split(".")[0] == "repro" for n in names)


# -- seeded inputs --------------------------------------------------------------

def test_serve_sequence_is_a_function_of_the_seed():
    assert serve_sequence(7, BENCHES) == serve_sequence(7, BENCHES)
    assert serve_cells(7, BENCHES) == serve_cells(7, BENCHES)
    assert serve_sequence(7, BENCHES) != serve_sequence(8, BENCHES)
    assert serve_cells(7, BENCHES) != serve_cells(8, BENCHES)


def test_serve_sequence_shape():
    cells = serve_cells(3, BENCHES)
    sequence = serve_sequence(3, BENCHES, hits=3200)
    firsts = [r["cell"] for r in sequence if r["first"]]
    # Every cell once as a miss, in order, and the full product of cells.
    assert firsts == list(range(len(cells)))
    assert len(cells) == len(BENCHES) * len(FIG2_MACHINES) * len(FIG2_LABELS)
    assert len({(c["benchmark"], c["machine"], c["label"])
                for c in cells}) == len(cells)
    assert sum(not r["first"] for r in sequence) == 3200
    # A re-request only names a cell already served.
    served = set()
    for request in sequence:
        if request["first"]:
            served.add(request["cell"])
        else:
            assert request["cell"] in served
    assert sequence[0]["first"]


def test_serve_hits_are_skewed():
    sequence = serve_sequence(1, BENCHES)
    counts = {}
    for request in sequence:
        if not request["first"]:
            counts[request["cell"]] = counts.get(request["cell"], 0) + 1
    ranked = sorted(counts.values(), reverse=True)
    assert ranked[0] > 10 * statistics.median(ranked)


def test_grid_samples_are_seeded():
    assert cross_check_cells(0, BENCHES) == cross_check_cells(0, BENCHES)
    assert cross_check_cells(0, BENCHES) != cross_check_cells(1, BENCHES)
    assert [c["benchmark"] for c in cross_check_cells(5, BENCHES)] == BENCHES
    assert profile_benchmarks(2, BENCHES) == profile_benchmarks(2, BENCHES)
    assert len(set(profile_benchmarks(2, BENCHES))) == 4


# -- result digest --------------------------------------------------------------

ROWS = [{"benchmark": "compress", "machine": "ooo", "label": "N",
         "cycles": 12836, "busy": 0.14613197257712682},
        {"benchmark": "compress", "machine": "ooo", "label": "S1",
         "cycles": 13001, "busy": 0.1442}]


def test_digest_is_order_independent_and_exact():
    digest = result_digest(ROWS)
    assert digest == result_digest(list(reversed(ROWS)))
    assert len(digest) == 64
    # One unit in the last place of one field changes the digest.
    changed = [dict(ROWS[0], busy=math.nextafter(ROWS[0]["busy"], 1.0)),
               ROWS[1]]
    assert result_digest(changed) != digest
    renamed = [dict(ROWS[0], cycles=12837), ROWS[1]]
    assert result_digest(renamed) != digest
    assert result_digest(ROWS[:1]) != digest


# -- layer tracing --------------------------------------------------------------

def test_layer_trace_self_time_excludes_wrapped_children():
    trace = LayerTrace()

    def child():
        return sum(range(20000))

    wrapped_child = trace.timed(child, "child")

    def parent():
        return wrapped_child() + wrapped_child()

    wrapped_parent = trace.timed(parent, "parent")
    wrapped_parent()
    stats = trace.stats
    assert stats.calls == {"child": 2, "parent": 1}
    assert stats.self_time["parent"] == pytest.approx(
        stats.total["parent"] - stats.total["child"])
    assert stats.self_time["child"] == stats.total["child"]
    # A call recorded in another bucket still counts as the parent's child.
    trace.use("side")
    wrapped_child()
    trace.use("main")
    assert trace.buckets["side"].calls == {"child": 1}
    assert trace.snapshot()["buckets"]["main"]["calls"]["child"] == 2


def test_layer_trace_counts_and_false_returns():
    trace = LayerTrace()
    counted = trace.counted(lambda x: x, "calls")
    items = trace.counted_items(lambda n: iter(range(n)), "items")
    append = trace.timed(lambda ok: ok, "append")
    for _ in range(3):
        counted(1)
    assert list(items(5)) == [0, 1, 2, 3, 4]
    append(True)
    append(False)
    assert trace.stats.calls["calls"] == 3
    assert trace.stats.calls["items"] == 5
    assert trace.stats.false_returns["append"] == 1


def test_layer_of_maps_program_files():
    assert layer_of("/x/src/repro/ooo/core.py") == "ooo"
    assert layer_of("/x/src/repro/vec/decode.py") == "vec.decode"
    assert layer_of("/x/src/repro/vec/ooo.py") == "vec.replay"
    assert layer_of("/x/src/repro/exec/engine.py") == "repro.other"
    assert layer_of("~") is None


# -- the result line --------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)


def test_result_line_has_exactly_the_contract_keys():
    report = Report("fig2-vec", 0)
    for name, unit in END_TO_END:
        report.host_time(name, unit, 2.0, 1.0, 10)
    report.attempted = 10
    report.fail(2, "two wrong cells")
    line = json.loads(report.result_line(END_TO_END))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False and line["failed"] == 2
    assert set(line["metrics"]) == {name for name, _ in END_TO_END}
    assert line["metrics"]["grid_s"] == {"value": 2.0, "unit": "s"}
    assert any("fail_ratio" in text for text in report.lines(END_TO_END))
