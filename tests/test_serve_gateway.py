"""The serving gateway: digit-exact parity with direct runs, the backend
it resolves at boot, caching, coalescing, admission control, SSE
streaming, metrics, structured errors."""

import asyncio
import json
import threading
import time

import pytest

from repro.durable import read_records
from repro.exec import ExecOptions, JobRunner
from repro.obs.export import parse_openmetrics
from repro.serve import (
    Draining,
    Gateway,
    JobError,
    QueueFull,
    ServeClient,
    ServeOptions,
    validate_job_spec,
)
from repro.serve.app import App
from repro.vec import BACKEND_ENV


def tiny_spec(**overrides):
    spec = {"kind": "bar", "benchmark": "compress", "machine": "ooo",
            "label": "S10", "instructions": 2000, "warmup": 500, "seed": 0}
    spec.update(overrides)
    return spec


def echo_execute(job):
    return {"label": job.label, "benchmark": job.benchmark,
            "seed": job.seed}


class LiveServer:
    """Boot an App on an ephemeral port in a background event loop."""

    def __init__(self, options=None, execute=None):
        kwargs = {} if execute is None else {"execute": execute}
        self.gateway = Gateway(options, **kwargs)
        self.app = App(self.gateway)
        self.host = None
        self.port = None
        self.loop = None
        self.abandoned = 0
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self.loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.host, self.port = await self.app.start("127.0.0.1", 0)
        self._ready.set()
        await self._stop.wait()
        self.abandoned = await self.app.shutdown(grace=10)

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "server failed to boot"
        return self

    def __exit__(self, *exc_info):
        self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(15)

    def client(self, tenant=None):
        return ServeClient(self.host, self.port, tenant=tenant)


@pytest.fixture
def served(tmp_path):
    options = ServeOptions(shards=2, cache_dir=str(tmp_path / "cache"),
                           manifest_dir=str(tmp_path / "runs"))
    with LiveServer(options) as server:
        yield server


class TestParityWithDirectRuns:
    def test_served_result_is_digit_exact(self, served, tmp_path):
        spec = tiny_spec()
        with served.client() as client:
            status, outcome = client.submit(spec)
        assert status == 200
        assert outcome["meta"]["cache"] == "miss"

        # Cross-backend by construction: the gateway serves vec unless
        # REPRO_BACKEND says otherwise; the reference runs interp.
        direct = JobRunner(ExecOptions(jobs=1, cache=False,
                                       backend="interp")).run(
            [validate_job_spec(spec)])[0]
        assert outcome["result"] == direct

    def test_served_manifest_digest_matches_direct_run(self, served,
                                                       tmp_path):
        """The config digest in a served run's manifest equals a direct
        harness run's digest for the same cell — the byte-identity proof."""
        spec = tiny_spec(seed=7)
        with served.client() as client:
            status, outcome = client.submit(spec)
            assert status == 200
            run_id = outcome["meta"]["run_id"]
            status, served_manifest = client.run_manifest(run_id)
        assert status == 200

        direct_runner = JobRunner(ExecOptions(
            jobs=1, cache=False, manifest_dir=str(tmp_path / "direct"),
            run_meta={"experiment": "direct"}))
        direct_result = direct_runner.run([validate_job_spec(spec)])[0]
        with open(direct_runner.last_manifest) as fh:
            direct_manifest = json.load(fh)

        assert (served_manifest["config_digest"]
                == direct_manifest["config_digest"])
        assert outcome["result"] == direct_result

    def test_second_submit_hits_the_cache(self, served):
        spec = tiny_spec(seed=3)
        with served.client() as client:
            _, first = client.submit(spec)
            _, second = client.submit(spec)
        assert first["meta"]["cache"] == "miss"
        assert second["meta"]["cache"] == "hit"
        assert second["result"] == first["result"]


class TestBackend:
    """The gateway resolves its backend once at boot — ``REPRO_BACKEND``
    when set, else ``vec`` — and every served run records it."""

    @pytest.mark.parametrize("env, want", [(None, "vec"),
                                           ("interp", "interp")])
    def test_served_run_records_the_boot_backend(self, tmp_path,
                                                 monkeypatch, env, want):
        if env is None:
            monkeypatch.delenv(BACKEND_ENV, raising=False)
        else:
            monkeypatch.setenv(BACKEND_ENV, env)
        options = ServeOptions(shards=1, cache_dir=str(tmp_path / "cache"),
                               manifest_dir=str(tmp_path / "runs"))
        with LiveServer(options) as server:
            # Read once at boot: a later change to the environment
            # reaches no served run.
            monkeypatch.setenv(BACKEND_ENV, "turbo")
            with server.client() as client:
                status, health = client.healthz()
                _, outcome = client.submit(tiny_spec(seed=51))
                _, manifest = client.run_manifest(outcome["meta"]["run_id"])
        assert status == 200
        assert health["backend"] == want
        assert outcome["meta"]["cache"] == "miss"
        assert manifest["settings"]["backend"] == want
        records, _, _ = read_records(outcome["meta"]["journal"])
        assert [r["backend"] for r in records
                if r["rec"] == "job_finish"] == [want]


class TestCoalescing:
    def test_identical_concurrent_requests_run_once(self, tmp_path):
        release = threading.Event()
        started = threading.Event()

        def gated_execute(job):
            started.set()
            assert release.wait(10)
            return {"label": job.label, "seed": job.seed}

        options = ServeOptions(shards=2,
                               cache_dir=str(tmp_path / "cache"))
        with LiveServer(options, execute=gated_execute) as server:
            spec = tiny_spec()
            outcomes = [None, None]

            def submit(slot):
                with server.client() as client:
                    outcomes[slot] = client.submit(spec)

            first = threading.Thread(target=submit, args=(0,))
            first.start()
            assert started.wait(10)  # request 0 is in the engine
            second = threading.Thread(target=submit, args=(1,))
            second.start()
            time.sleep(0.2)  # request 1 reaches the in-flight map
            release.set()
            first.join(10)
            second.join(10)

            counters = server.gateway.registry.counters()
        assert counters["serve.executed"] == 1
        assert counters["serve.coalesced"] == 1
        assert counters.get("serve.cache_hits", 0) == 0
        (s0, out0), (s1, out1) = outcomes
        assert s0 == 200 and s1 == 200
        assert out0["result"] == out1["result"]
        assert sorted([out0["meta"]["coalesced"],
                       out1["meta"]["coalesced"]]) == [False, True]


def count_probes(gateway):
    """Record the key of every ``ResultCache.get`` on *gateway*'s cache
    (the engine's probes included: each run shares the instance)."""
    keys = []
    inner = gateway.cache.get

    def get(job):
        keys.append(job.cache_key())
        return inner(job)

    gateway.cache.get = get
    return keys


def submit_all(options, specs, execute=None):
    """Boot an in-process gateway, submit *specs* in order, drain it.
    Returns ``(gateway, outcomes, probes)``; a failed submission's
    outcome is the exception it raised."""
    async def scenario():
        kwargs = {} if execute is None else {"execute": execute}
        gateway = Gateway(options, **kwargs)
        await gateway.start()
        probes = count_probes(gateway)
        outcomes = []
        for spec in specs:
            try:
                outcomes.append(await gateway.submit(spec))
            except Exception as exc:
                outcomes.append(exc)
        await gateway.drain(grace=5)
        return gateway, outcomes, probes

    return asyncio.run(scenario())


class TestSettledResults:
    """The gateway keeps the results it verified or ran: a re-request
    reads no blob and answers exactly as a disk hit does."""

    def test_rerequest_reads_no_blob(self, tmp_path):
        options = ServeOptions(shards=1, cache_dir=str(tmp_path / "cache"))
        spec = tiny_spec(seed=61)
        gateway, (miss, hit), probes = submit_all(options, [spec, spec])
        assert miss["meta"]["cache"] == "miss"
        assert hit["meta"]["cache"] == "hit"
        assert hit["result"] == miss["result"]
        # The gateway's probe and the engine's, both on the miss.
        assert len(probes) == 2
        counters = gateway.registry.counters()
        assert counters["serve.cache_hits"] == 1
        assert counters["serve.memory_hits"] == 1

        # A fresh gateway reads the verified blob once, then remembers.
        fresh, (disk, memory), probes = submit_all(options, [spec, spec])
        assert [disk["meta"]["cache"], memory["meta"]["cache"]] == \
            ["hit", "hit"]
        assert disk["result"] == memory["result"] == miss["result"]
        assert len(probes) == 1
        assert fresh.cache.stats.hits == 1
        counters = fresh.registry.counters()
        assert counters["serve.cache_hits"] == 2
        assert counters["serve.memory_hits"] == 1

    def test_corrupted_blob(self, tmp_path):
        """The loaded gateway keeps serving the right result; the next
        one to boot quarantines the blob and re-runs the cell."""
        from repro.sanitize.chaos import flip_byte

        options = ServeOptions(shards=1, cache_dir=str(tmp_path / "cache"))
        spec = tiny_spec(seed=62)
        blob = Gateway(options).cache.path_for(
            validate_job_spec(spec).cache_key())

        async def scenario():
            gateway = Gateway(options)
            await gateway.start()
            first = await gateway.submit(spec)
            flip_byte(str(blob))
            again = await gateway.submit(spec)
            await gateway.drain(grace=5)
            return first, again

        first, again = asyncio.run(scenario())
        assert again["meta"]["cache"] == "hit"
        assert again["result"] == first["result"]

        fresh, (rerun,), _ = submit_all(options, [spec])
        assert rerun["meta"]["cache"] == "miss"
        assert rerun["result"] == first["result"]
        assert fresh.cache.stats.corrupt == 1
        assert (tmp_path / "cache" / "quarantine" / blob.name).exists()
        assert blob.exists()  # the re-run stored a good blob again

    def test_least_recently_served_is_evicted(self, tmp_path, monkeypatch):
        from repro.serve import gateway as gateway_module

        monkeypatch.setattr(gateway_module, "MAX_SETTLED", 2)
        options = ServeOptions(shards=1, cache_dir=str(tmp_path / "cache"))
        a, b, c = (tiny_spec(seed=s) for s in (63, 64, 65))
        # a, b run; a is served again; c runs and evicts b, not a.
        _, outcomes, probes = submit_all(
            options, [a, b, a, c, a, b], execute=echo_execute)
        assert [o["meta"]["cache"] for o in outcomes] == \
            ["miss", "miss", "hit", "miss", "hit", "hit"]
        key_b = validate_job_spec(b).cache_key()
        # Two probes per miss, then only b is read from disk again.
        assert probes[6:] == [key_b]

    def test_failed_job_is_not_remembered(self, tmp_path):
        calls = []

        def flaky_execute(job):
            calls.append(job.seed)
            if len(calls) == 1:
                raise RuntimeError("transient engine failure")
            return echo_execute(job)

        options = ServeOptions(shards=1, cache_dir=str(tmp_path / "cache"))
        spec = tiny_spec(seed=66)
        gateway, (failed, retried), _ = submit_all(
            options, [spec, spec], execute=flaky_execute)
        assert isinstance(failed, JobError)
        assert retried["meta"]["cache"] == "miss"
        assert retried["result"] == {"label": "compress/ooo/S10",
                                     "benchmark": "compress", "seed": 66}
        assert len(calls) == 2
        assert gateway.registry.counters().get("serve.memory_hits", 0) == 0


class TestAdmission:
    def test_rate_limit_gives_structured_429(self, tmp_path):
        options = ServeOptions(shards=1, rate=0.001, burst=1,
                               cache_dir=str(tmp_path / "cache"))
        with LiveServer(options, execute=echo_execute) as server:
            with server.client(tenant="alice") as client:
                status, _ = client.submit(tiny_spec())
                assert status == 200
                status, body = client.submit(tiny_spec(seed=1))
            assert status == 429
            assert body["error"] == "rate_limited"
            assert body["tenant"] == "alice"
            assert body["retry_after"] > 0

            # A different tenant has its own bucket.
            with server.client(tenant="bob") as client:
                status, _ = client.submit(tiny_spec(seed=2))
            assert status == 200

    def test_client_retries_429_to_success(self, tmp_path):
        """The client-side backoff loop: a rate-limited submit sleeps out
        the ``retry_after`` hint and lands on its feet."""
        options = ServeOptions(shards=1, rate=5.0, burst=1,
                               cache_dir=str(tmp_path / "cache"))
        with LiveServer(options, execute=echo_execute) as server:
            with server.client(tenant="carol") as client:
                status, _ = client.submit(tiny_spec())  # drains the bucket
                assert status == 200
                status, outcome = client.submit(tiny_spec(seed=1),
                                                retries=5)
            assert status == 200
            assert outcome["result"]["seed"] == 1
            assert client.rate_limit_retries >= 1

    def test_client_retry_budget_returns_final_429(self, tmp_path,
                                                   monkeypatch):
        from repro.serve import client as client_module

        sleeps = []
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        options = ServeOptions(shards=1, rate=0.001, burst=1,
                               cache_dir=str(tmp_path / "cache"))
        with LiveServer(options, execute=echo_execute) as server:
            with server.client(tenant="dave") as client:
                assert client.submit(tiny_spec())[0] == 200
                status, body = client.submit(tiny_spec(seed=1), retries=2)
            assert status == 429  # budget spent: returned, not raised
            assert body["error"] == "rate_limited"
            assert client.rate_limit_retries == 2
            assert len(sleeps) == 2
            # Each sleep honors the hint, jittered, capped at the max.
            assert all(0 < delay <= client_module.MAX_RETRY_WAIT
                       for delay in sleeps)

    def test_full_queue_gives_queue_full(self, tmp_path):
        def slow_execute(job):
            time.sleep(0.4)
            return {"label": job.label}

        async def scenario():
            gateway = Gateway(ServeOptions(
                shards=1, queue_limit=1,
                cache_dir=str(tmp_path / "cache")), execute=slow_execute)
            await gateway.start()
            first = asyncio.ensure_future(
                gateway.submit(tiny_spec(seed=1)))
            await asyncio.sleep(0.1)  # shard dequeues it
            second = asyncio.ensure_future(
                gateway.submit(tiny_spec(seed=2)))
            await asyncio.sleep(0.05)  # sits in the queue
            with pytest.raises(QueueFull):
                await gateway.submit(tiny_spec(seed=3))
            rejected = gateway.registry.counters()[
                "serve.rejected.queue_full"]
            await first
            await second
            await gateway.drain(grace=5)
            return rejected

        assert asyncio.run(scenario()) == 1

    def test_draining_gateway_rejects_submissions(self, tmp_path):
        async def scenario():
            gateway = Gateway(ServeOptions(
                shards=1, cache_dir=str(tmp_path / "cache")),
                execute=echo_execute)
            await gateway.start()
            await gateway.drain(grace=1)
            with pytest.raises(Draining):
                await gateway.submit(tiny_spec())

        asyncio.run(scenario())


class TestStreaming:
    def test_sse_sends_the_run_records(self, served):
        from repro.durable import read_records

        spec = tiny_spec(seed=11)
        with served.client() as client:
            status, events = client.submit_stream(spec)
            _, plain = client.submit(spec)  # now cached: same result
        assert status == 200
        names = [e["event"] for e in events]
        assert set(names[:-1]) == {"record"}
        assert names[-1] == "result"
        records = [e["data"] for e in events[:-1]]
        assert [r["rec"] for r in records] == [
            "journal_header", "run_start", "job_start", "job_finish",
            "run_end"]
        header = records[0]
        assert header["schema"] == 1
        assert header["experiment"] == "serve"
        assert events[-1]["data"]["result"] == plain["result"]
        # The very records the run's journal holds.
        journal = events[-1]["data"]["meta"]["journal"]
        assert read_records(journal)[0] == records

    def test_stream_of_invalid_spec_is_plain_400(self, served):
        with served.client() as client:
            status, events = client.submit_stream({"kind": "bar"})
        assert status == 400
        assert events == [{"error": "invalid_spec", "field": "benchmark",
                           "message": events[0]["message"]}]


class TestIntrospection:
    def test_healthz(self, served):
        with served.client() as client:
            status, body = client.healthz()
        assert status == 200
        assert body["status"] == "ok"
        assert body["shards"] == 2

    def test_metrics_round_trip_openmetrics(self, served):
        with served.client() as client:
            client.submit(tiny_spec(seed=21))
            client.submit(tiny_spec(seed=21))
            status, text = client.metrics_text()
        assert status == 200
        parsed = parse_openmetrics(text)
        counters = parsed["counters"]
        assert counters["serve_requests"] >= 2
        assert counters["serve_executed"] >= 1
        assert counters["serve_cache_hits"] >= 1
        assert "serve_request_latency_ms" in parsed["histograms"]

    def test_stats_endpoint(self, served):
        with served.client() as client:
            client.submit(tiny_spec(seed=31))
            status, body = client.stats()
        assert status == 200
        assert body["health"]["status"] == "ok"
        assert body["cache"]["entries"] >= 1
        assert body["metrics"]["counters"]["serve.requests"] >= 1

    def test_runs_lists_served_manifests(self, served):
        with served.client() as client:
            _, outcome = client.submit(tiny_spec(seed=41))
            status, body = client.runs()
        assert status == 200
        assert outcome["meta"]["run_id"] in body["runs"]


class TestStructuredErrors:
    """Clients get a definite status and JSON body — never a traceback."""

    def test_unknown_path_is_404(self, served):
        with served.client() as client:
            status, body = client.json("GET", "/nope")
        assert status == 404
        assert body == {"error": "not_found", "path": "/nope"}

    def test_wrong_method_is_405(self, served):
        with served.client() as client:
            status, body = client.json("GET", "/v1/jobs")
        assert (status, body["error"]) == (405, "method_not_allowed")
        with served.client() as client:
            status, body = client.json("POST", "/healthz")
        assert (status, body["error"]) == (405, "method_not_allowed")

    def test_garbage_body_is_400(self, served):
        import http.client

        conn = http.client.HTTPConnection(served.host, served.port,
                                          timeout=10)
        try:
            conn.request("POST", "/v1/jobs", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["error"] == "bad_request"

    def test_invalid_spec_is_structured_400(self, served):
        with served.client() as client:
            status, body = client.submit(tiny_spec(machine="vax"))
        assert status == 400
        assert body["error"] == "invalid_spec"
        assert body["field"] == "machine"

    # The oversized label is S101, not S1000000000: should the cap ever
    # regress, this test must fail, not build a 10**9-row handler.
    @pytest.mark.parametrize("spec, field", [
        (tiny_spec(label="S101"), "label"),
        (tiny_spec(label="S03"), "label"),
        ({"kind": "access_control", "workload": "migratory",
          "method": "INFORMING", "machine_params": {"coherence_unit": 0}},
         "machine_params"),
        ({"kind": "access_control", "workload": "migratory",
          "method": "INFORMING", "machine_params": {"l1_size": 3}},
         "machine_params")])
    def test_spec_the_simulator_refuses_costs_no_run(self, served, spec,
                                                    field):
        with served.client() as client:
            status, body = client.submit(spec)
        assert status == 400
        assert (body["error"], body["field"]) == ("invalid_spec", field)
        counters = served.gateway.registry.counters()
        assert counters.get("serve.admitted", 0) == 0

    def test_unknown_run_is_404(self, served):
        with served.client() as client:
            status, body = client.run_manifest("20000101T000000-none-0-0")
        assert status == 404
        assert body["error"] == "run_not_found"


class TestGracefulShutdown:
    def test_in_flight_job_finishes_during_drain(self, tmp_path):
        release = threading.Event()

        def gated_execute(job):
            assert release.wait(10)
            return {"label": job.label}

        options = ServeOptions(shards=1, cache_dir=str(tmp_path / "cache"))
        server = LiveServer(options, execute=gated_execute)
        with server:
            result_box = {}

            def submit():
                with server.client() as client:
                    result_box["outcome"] = client.submit(tiny_spec())

            worker = threading.Thread(target=submit)
            worker.start()
            time.sleep(0.2)  # the job is in flight, still gated
            # Release the job only after the drain has begun: the
            # with-block exit below starts the shutdown while the job is
            # executing, and the drain must wait for it.
            threading.Timer(0.3, release.set).start()
        worker.join(10)
        status, outcome = result_box["outcome"]
        assert status == 200
        assert outcome["result"] == {"label": "compress/ooo/S10"}
        assert server.abandoned == 0
