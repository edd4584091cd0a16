"""Tracing across the HTTP boundary: traceparent continuation, foreign
and malformed headers, the unsampled span-free path, healthz metadata
and the serve span artifacts."""

import asyncio
import json
import os
import subprocess
import time

import pytest

from repro.durable import read_records
from repro.sanitize.chaos import truncate_tail
from repro.serve.client import mint_traceparent
from repro.serve.gateway import Gateway, QueueFull, ServeOptions
from repro.harness.spans_cli import build_tree, group_by_trace
from repro.trace import clear_ambient

from tests.test_serve_gateway import LiveServer, echo_execute, tiny_spec


@pytest.fixture(autouse=True)
def _clean_ambient():
    clear_ambient()
    yield
    clear_ambient()


def read_spans(path):
    """(span records, distrusted lines) of a crc-framed journal."""
    records, bad, _ = read_records(path)
    return [r for r in records if r["rec"] == "span"], bad


@pytest.fixture
def traced_server(tmp_path):
    options = ServeOptions(shards=1,
                           cache_dir=str(tmp_path / "cache"),
                           manifest_dir=str(tmp_path / "runs"),
                           trace_sample=0.0)
    with LiveServer(options) as server:
        yield server


class TestTraceparentPropagation:
    def test_one_connected_tree_across_the_http_boundary(self,
                                                         traced_server):
        header = mint_traceparent()
        client_trace_id = header.split("-")[1]
        client_span_id = header.split("-")[2]
        with traced_server.client() as client:
            status, body = client.submit(tiny_spec(), traceparent=header)
        assert status == 200
        meta = body["meta"]
        assert meta["trace_id"] == client_trace_id
        spans_path = meta["spans"]
        records, bad = read_spans(spans_path)
        assert bad == 0
        groups = group_by_trace(records)
        assert set(groups) == {client_trace_id}
        tree = build_tree(records)
        assert len(tree["roots"]) == 1
        root = tree["roots"][0]
        # The gateway's root span continues the client's context.
        assert root["name"] == "http.request"
        assert root["parent_id"] == client_span_id
        names = {r["name"] for r in tree["by_id"].values()}
        assert {"http.request", "request.parse", "dispatch", "run",
                "job", "sim.execute"} <= names
        # ... and the run's own journal holds the whole tree.
        assert spans_path == meta["journal"]
        with open(spans_path.replace("journal.jsonl",
                                     "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["run_id"] in spans_path

    def test_unsampled_header_stays_span_free(self, traced_server,
                                              tmp_path):
        header = mint_traceparent(sampled=False)
        with traced_server.client() as client:
            status, body = client.submit(tiny_spec(seed=1),
                                         traceparent=header)
        assert status == 200
        assert "trace_id" not in body["meta"]
        assert body["meta"]["spans"] is None
        records, _, _ = read_records(body["meta"]["journal"])
        assert [r for r in records if r["rec"] == "span"] == []
        assert list(tmp_path.rglob("serve_spans-*.jsonl")) == []

    def test_malformed_header_is_tolerated(self, traced_server):
        with traced_server.client() as client:
            status, body = client.submit(
                tiny_spec(seed=2), traceparent="not-a-traceparent")
            assert status == 200
            assert "trace_id" not in body["meta"]
        counters = traced_server.gateway.registry.counters()
        assert counters.get("serve.trace.malformed_context") == 1

    def test_foreign_header_is_counted_and_continued(self, traced_server):
        header = mint_traceparent()
        with traced_server.client() as client:
            status, _ = client.submit(tiny_spec(seed=3),
                                      traceparent=header)
            assert status == 200
        counters = traced_server.gateway.registry.counters()
        assert counters.get("serve.trace.foreign_context") == 1
        assert counters.get("serve.trace.sampled") == 1

    def test_traced_results_digit_exact_vs_untraced(self, traced_server):
        spec = tiny_spec(seed=4)
        with traced_server.client() as client:
            _, untraced = client.submit(spec)
            _, traced = client.submit(spec,
                                      traceparent=mint_traceparent())
        assert traced["result"] == untraced["result"]

    def test_cache_hit_flushes_to_fallback_file(self, traced_server,
                                                tmp_path):
        spec = tiny_spec(seed=5)
        with traced_server.client() as client:
            client.submit(spec)  # warm the cache, untraced
            status, body = client.submit(spec,
                                         traceparent=mint_traceparent())
        assert status == 200
        assert body["meta"]["cache"] == "hit"
        spans_path = body["meta"]["spans"]
        assert os.path.basename(spans_path) == \
            traced_server.gateway.spans_name
        assert spans_path.startswith(str(tmp_path / "runs"))
        records, _ = read_spans(spans_path)
        names = {r["name"] for r in records}
        assert "http.request" in names
        assert "cache.probe" in names
        assert "dispatch" not in names  # never reached the engine
        # The hit came from memory and still kept its probe span.
        counters = traced_server.gateway.registry.counters()
        assert counters["serve.memory_hits"] == 1
        (probe,) = [r for r in records if r["name"] == "cache.probe"]
        assert probe["attrs"]["hit"] is True


    def test_traced_repeat_body_keeps_its_spans(self, tmp_path):
        """A body the gateway already validated is recalled, not parsed;
        its trace still shows the parse and the probe."""
        options = ServeOptions(shards=1, cache_dir=str(tmp_path / "cache"),
                               trace_dir=str(tmp_path / "spans"))
        body = json.dumps(tiny_spec(seed=9)).encode("utf-8")

        async def scenario():
            gateway = Gateway(options, execute=echo_execute)
            await gateway.start()
            await gateway.submit(body)  # miss, untraced: body remembered
            outcome = await gateway.submit(body,
                                           traceparent=mint_traceparent())
            await gateway.drain(grace=5)
            return gateway, outcome

        gateway, outcome = asyncio.run(scenario())
        assert outcome["meta"]["cache"] == "hit"
        assert len(gateway.memo) == 1
        records, bad = read_spans(outcome["meta"]["spans"])
        assert bad == 0
        by_name = {r["name"]: r for r in records}
        assert {"http.request", "request.parse", "cache.probe"} <= \
            set(by_name)
        assert by_name["cache.probe"]["attrs"]["hit"] is True


class TestHealthz:
    def test_healthz_carries_build_and_subsystem_metadata(self,
                                                          traced_server):
        with traced_server.client() as client:
            status, health = client.healthz()
        assert status == 200
        assert health["schemas"]["journal"] == 1
        assert set(health["schemas"]) == {"job", "manifest", "journal"}
        subsystems = health["subsystems"]
        assert set(subsystems) == {"trace", "durable"}
        assert subsystems["trace"] is False  # trace_sample 0.0
        assert subsystems["durable"] is False
        assert "git_sha" in health

    def test_health_after_start_runs_no_subprocess(self, tmp_path,
                                                   monkeypatch):
        """The build's git sha is resolved once at boot, before the
        listener accepts: a probe never waits on ``git``."""
        from repro.exec.telemetry import git_sha

        git_sha.cache_clear()
        gateway = Gateway(ServeOptions(shards=1,
                                       cache_dir=str(tmp_path / "cache")))

        def no_subprocess(*args, **kwargs):
            raise AssertionError(f"health() started {args!r}")

        async def scenario():
            await gateway.start()
            with monkeypatch.context() as patch:
                patch.setattr(subprocess, "Popen", no_subprocess)
                health = gateway.health()
            await gateway.drain(grace=5)
            return health

        health = asyncio.run(scenario())
        assert health["status"] == "ok"
        assert health["git_sha"] == git_sha()


class TestServerSideSampling:
    def test_gateway_rate_traces_headerless_requests(self, tmp_path):
        options = ServeOptions(shards=1,
                               cache_dir=str(tmp_path / "cache"),
                               manifest_dir=str(tmp_path / "runs"),
                               trace_sample=1.0)
        with LiveServer(options) as server:
            with server.client() as client:
                status, body = client.submit(tiny_spec(seed=6))
                _, health = client.healthz()
        assert status == 200
        assert body["meta"]["trace_id"]
        assert health["subsystems"]["trace"] is True
        records, _ = read_spans(body["meta"]["spans"])
        tree = build_tree(records)
        assert len(tree["roots"]) == 1
        assert tree["roots"][0]["name"] == "http.request"
        assert tree["roots"][0].get("parent_id") is None  # minted here


class TestServeSpanFiles:
    def test_rejection_keeps_its_open_span_unfinished(self, tmp_path):
        def slow_execute(job):
            time.sleep(0.4)
            return {"label": job.label}

        async def scenario():
            gateway = Gateway(ServeOptions(
                shards=1, queue_limit=1, cache_dir=str(tmp_path / "cache"),
                trace_dir=str(tmp_path / "spans")), execute=slow_execute)
            await gateway.start()
            first = asyncio.ensure_future(gateway.submit(tiny_spec(seed=1)))
            await asyncio.sleep(0.1)  # shard dequeues it
            second = asyncio.ensure_future(
                gateway.submit(tiny_spec(seed=2)))
            await asyncio.sleep(0.05)  # sits in the queue
            with pytest.raises(QueueFull):
                await gateway.submit(tiny_spec(seed=3),
                                     traceparent=mint_traceparent())
            await first
            await second
            await gateway.drain(grace=5)
            return os.path.join(tmp_path, "spans", gateway.spans_name)

        records, bad = read_spans(asyncio.run(scenario()))
        assert bad == 0
        by_name = {r["name"]: r for r in records}
        assert by_name["http.request"]["status"] == "error"
        wait = by_name["queue.wait"]
        assert wait["status"] == "unfinished"
        assert wait["end"] >= wait["start"]

    def test_torn_span_file_hides_no_later_gateway(self, tmp_path):
        options = ServeOptions(shards=1, cache_dir=str(tmp_path / "cache"),
                               trace_dir=str(tmp_path / "spans"))

        async def traced_hit(seed):
            gateway = Gateway(options, execute=echo_execute)
            await gateway.start()
            await gateway.submit(tiny_spec(seed=seed))  # warm, untraced
            outcome = await gateway.submit(tiny_spec(seed=seed),
                                           traceparent=mint_traceparent())
            await gateway.drain(grace=5)
            assert outcome["meta"]["cache"] == "hit"
            return outcome["meta"]["spans"]

        first = asyncio.run(traced_hit(7))
        truncate_tail(first, 5)  # the first gateway died mid-append
        time.sleep(0.002)  # a later gateway starts in a later millisecond
        second = asyncio.run(traced_hit(8))
        assert second != first
        records, bad = read_spans(second)
        assert bad == 0
        assert {"http.request", "cache.probe"} <= {r["name"]
                                                   for r in records}
        # The torn file still yields its intact prefix.
        records, bad = read_spans(first)
        assert bad == 1 and records
