"""repro.trace core: context propagation, spans, sampling and the
export formats."""

import os

import pytest

from repro.trace import ambient, clear_ambient, maybe_tracer, set_ambient
from repro.trace.context import (
    TraceContext,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from repro.trace.exporters import spans_to_chrome
from repro.trace.span import Tracer


@pytest.fixture(autouse=True)
def _clean_ambient():
    clear_ambient()
    yield
    clear_ambient()


class TestTraceparent:
    def test_round_trip(self):
        ctx = TraceContext(new_trace_id(), new_span_id(), sampled=True)
        parsed = parse_traceparent(format_traceparent(ctx))
        assert parsed == ctx

    def test_unsampled_flag_round_trips(self):
        ctx = TraceContext(new_trace_id(), new_span_id(), sampled=False)
        header = format_traceparent(ctx)
        assert header.endswith("-00")
        assert parse_traceparent(header).sampled is False

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-abc-def-01",                            # wrong lengths
        "00-" + "g" * 32 + "-" + "1" * 16 + "-01",  # non-hex trace id
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace id
        "00-" + "1" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
        "ff-" + "1" * 32 + "-" + "2" * 16 + "-01",  # forbidden version
        "00-" + "1" * 32 + "-" + "2" * 16,          # missing flags
        "00-" + "1" * 32 + "-" + "2" * 16 + "-01-extra-extra",
    ])
    def test_malformed_headers_parse_to_none(self, header):
        assert parse_traceparent(header) is None

    def test_child_keeps_trace_id(self):
        ctx = TraceContext(new_trace_id(), new_span_id())
        child = ctx.child()
        assert child.trace_id == ctx.trace_id
        assert child.span_id != ctx.span_id


class TestTracer:
    def test_fresh_trace_roots_have_no_parent(self):
        tracer = Tracer()
        span = tracer.start_span("run")
        assert span.parent_id is None

    def test_propagated_context_parents_root_spans(self):
        ctx = TraceContext(new_trace_id(), new_span_id())
        tracer = Tracer(ctx)
        span = tracer.start_span("http.request")
        assert span.trace_id == ctx.trace_id
        assert span.parent_id == ctx.span_id

    def test_span_scope_marks_errors(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("no")
        assert span.status == "error"
        assert span.end is not None

    def test_explicit_parent_wins(self):
        tracer = Tracer(TraceContext(new_trace_id(), new_span_id()))
        parent = tracer.start_span("outer")
        child = tracer.start_span("inner", parent=parent)
        assert child.parent_id == parent.span_id

    def test_span_record_shape(self):
        tracer = Tracer()
        span = tracer.start_span("a", label="x")
        span.finish()
        record = span.to_record()
        assert record["rec"] == "span"
        assert record["name"] == "a"
        assert record["attrs"] == {"label": "x"}
        assert record["end"] >= record["start"]
        assert record["pid"] == os.getpid()
        assert "parent_id" not in record

    def test_records_stamp_ts_and_close_open_spans(self):
        tracer = Tracer()
        tracer.start_span("done").finish()
        dangling = tracer.start_span("dangling")
        records = tracer.records(123.0)
        assert [r["name"] for r in records] == ["done", "dangling"]
        assert all(r["ts"] == 123.0 for r in records)
        assert records[0]["status"] == "ok"
        assert records[1]["status"] == "unfinished"
        assert records[1]["end"] >= records[1]["start"]
        assert dangling.end is not None


class TestSampling:
    def test_default_is_off(self):
        assert maybe_tracer() is None

    def test_explicit_rate_one_traces(self):
        assert maybe_tracer(1.0) is not None

    def test_rate_is_clamped(self):
        assert maybe_tracer(7.5) is not None
        assert maybe_tracer(-2.0) is None

    def test_sampled_parent_wins_over_local_rate(self):
        header = format_traceparent(
            TraceContext(new_trace_id(), new_span_id(), sampled=True))
        tracer = maybe_tracer(0.0, parent=header)
        assert tracer is not None
        assert tracer.trace_id == header.split("-")[1]

    def test_unsampled_parent_disables_tracing(self):
        header = format_traceparent(
            TraceContext(new_trace_id(), new_span_id(), sampled=False))
        assert maybe_tracer(1.0, parent=header) is None

    def test_malformed_parent_falls_back_to_rate(self):
        assert maybe_tracer(0.0, parent="garbage") is None
        assert maybe_tracer(1.0, parent="garbage") is not None

    def test_environment_carries_no_parent(self, monkeypatch):
        """Context travels explicitly (HTTP header, pool-call argument),
        never through the process environment."""
        header = format_traceparent(
            TraceContext(new_trace_id(), new_span_id(), sampled=True))
        monkeypatch.setenv("REPRO_TRACEPARENT", header)
        assert maybe_tracer(0.0) is None

    def test_ambient_round_trip(self):
        tracer = Tracer()
        span = tracer.start_span("run")
        set_ambient(tracer, span)
        assert ambient() == (tracer, span)
        clear_ambient()
        assert ambient() == (None, None)


class TestExporters:
    def _records(self):
        tracer = Tracer()
        root = tracer.start_span("run", label="grid")
        child = tracer.start_span("job", parent=root)
        child.finish("error")
        root.finish()
        return tracer.records(0.0)

    def test_chrome_export_shape(self):
        records = self._records()
        chrome = spans_to_chrome(records)
        events = chrome["traceEvents"]
        assert [e["ph"] for e in events] == ["X", "X"]
        assert events[0]["args"]["label"] == "grid"
        assert events[1]["args"]["parent_id"] == records[0]["span_id"]
