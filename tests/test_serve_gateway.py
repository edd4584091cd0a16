"""The serving gateway: digit-exact parity with direct runs, the backend
it resolves at boot, caching, coalescing, admission control, metrics,
structured errors."""

import asyncio
import http.client
import json
import socket
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.durable import read_records
from repro.exec import ExecOptions, JobRunner
from repro.obs.export import parse_openmetrics
from repro.serve.app import App
from repro.serve.client import ServeClient
from repro.serve.gateway import (
    Draining,
    Gateway,
    JobError,
    QueueFull,
    ServeOptions,
)
from repro.serve.http import json_body, json_response
from repro.serve.spec import validate_job_spec
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

    def client(self):
        return ServeClient(self.host, self.port)


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


def post(server, body: bytes):
    """POST raw *body* bytes to /v1/jobs; ``(status, response bytes)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", "/v1/jobs", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def count_validations(monkeypatch):
    """Record the payload of every ``validate_job_spec`` the gateway runs."""
    from repro.serve import gateway as gateway_module

    calls = []
    inner = gateway_module.validate_job_spec

    def validate(payload):
        calls.append(payload)
        return inner(payload)

    monkeypatch.setattr(gateway_module, "validate_job_spec", validate)
    return calls


def body_of(spec, **dumps):
    return json.dumps(spec, **dumps).encode("utf-8")


class TestSpecMemo:
    """A repeated request body is neither decoded nor validated again,
    and a settled hit's response body is encoded once."""

    def test_repeat_body_is_not_validated_again(self, served, monkeypatch):
        spec = tiny_spec(seed=71)
        job = validate_job_spec(spec)
        calls = count_validations(monkeypatch)
        replies = [post(served, body_of(spec)) for _ in range(3)]
        assert [status for status, _ in replies] == [200, 200, 200]
        assert calls == [spec]
        miss = json.loads(replies[0][1])
        assert miss["meta"]["cache"] == "miss"
        # Byte for byte the JSON encoding of the hit outcome dict.
        hit = {"result": miss["result"],
               "meta": {"key": job.cache_key()[:16], "label": job.label,
                        "cache": "hit", "coalesced": False,
                        "run_id": None, "wall": 0.0}}
        encoded = (json.dumps(hit, sort_keys=True) + "\n").encode("utf-8")
        assert replies[1][1] == replies[2][1] == encoded
        counters = served.gateway.registry.counters()
        assert counters["serve.requests"] == 3
        assert counters["serve.cache_hits"] == 2
        assert counters["serve.memory_hits"] == 2

    def test_reordered_body_validates_once_more_and_hits(self, tmp_path,
                                                         monkeypatch):
        calls = count_validations(monkeypatch)
        spec = tiny_spec(seed=72)
        body = body_of(spec)
        reordered = body_of(dict(reversed(list(spec.items()))), indent=1)
        options = ServeOptions(shards=1, cache_dir=str(tmp_path / "cache"))
        gateway, (miss, *hits), probes = submit_all(
            options, [body, body, reordered, reordered],
            execute=echo_execute)
        assert miss["meta"]["cache"] == "miss"
        assert len(calls) == 2
        assert len(set(hits)) == 1
        assert json.loads(hits[0])["meta"]["cache"] == "hit"
        assert len(gateway.memo) == 2
        assert {key for _, key in gateway.memo.values()} == \
            {validate_job_spec(spec).cache_key()}
        assert len(probes) == 2  # both on the miss

    @pytest.mark.parametrize("body, error, counted", [
        (b"{not json", "bad_request", 0),
        (b"", "bad_request", 0),
        (body_of(tiny_spec(machine="vax")), "invalid_spec", 3)],
        ids=["not-json", "empty", "invalid-spec"])
    def test_bad_body_gets_its_400_every_time(self, tmp_path, body, error,
                                              counted):
        options = ServeOptions(shards=1, cache_dir=str(tmp_path / "cache"))
        with LiveServer(options, execute=echo_execute) as server:
            replies = [post(server, body) for _ in range(3)]
            counters = server.gateway.registry.counters()
            remembered = len(server.gateway.memo)
        assert replies == [replies[0]] * 3
        status, payload = replies[0]
        assert status == 400
        assert json.loads(payload)["error"] == error
        assert remembered == 0
        assert counters.get("serve.requests", 0) == counted
        assert counters.get("serve.rejected.invalid_spec", 0) == counted

    def test_repeat_body_meets_the_drain(self, tmp_path):
        options = ServeOptions(shards=1, cache_dir=str(tmp_path / "cache"))
        body = body_of(tiny_spec(seed=76))

        async def scenario():
            gateway = Gateway(options, execute=echo_execute)
            await gateway.start()
            await gateway.submit(body)
            await gateway.submit(body)
            await gateway.drain(grace=1)
            with pytest.raises(Draining):
                await gateway.submit(body)
            return gateway

        counters = asyncio.run(scenario()).registry.counters()
        assert counters["serve.rejected.draining"] == 1
        assert counters["serve.cache_hits"] == 1

    def test_least_recently_used_body_is_validated_again(self, tmp_path,
                                                         monkeypatch):
        from repro.serve import gateway as gateway_module

        monkeypatch.setattr(gateway_module, "MAX_SETTLED", 2)
        calls = count_validations(monkeypatch)
        options = ServeOptions(shards=1, cache_dir=str(tmp_path / "cache"))
        a, b, c = (body_of(tiny_spec(seed=s)) for s in (73, 74, 75))
        # a is used again before c evicts b, the least recently used.
        _, outcomes, _ = submit_all(options, [a, b, a, c, a, b],
                                    execute=echo_execute)
        assert not any(isinstance(o, Exception) for o in outcomes)
        assert [payload["seed"] for payload in calls] == [73, 74, 75, 74]

    def test_json_response_is_one_write(self):
        class Writer:
            def __init__(self):
                self.writes = []

            def write(self, data):
                self.writes.append(data)

        payload = {"b": 1, "a": [1.5, None]}
        plain, stored = Writer(), Writer()
        json_response(plain, 200, payload)
        json_response(stored, 200, json_body(payload))
        assert len(plain.writes) == 1
        assert stored.writes == plain.writes
        assert plain.writes[0].endswith(
            b'\r\n\r\n{"a": [1.5, null], "b": 1}\n')

    @given(spec=st.fixed_dictionaries({
               "kind": st.just("bar"),
               "benchmark": st.sampled_from(["compress", "su2cor", "ear"]),
               "machine": st.sampled_from(["ooo", "inorder"]),
               "label": st.sampled_from(["N", "S1", "U10", "E10", "CC1"]),
               "instructions": st.integers(1, 10 ** 6),
               "seed": st.integers(-(2 ** 31), 2 ** 31)}),
           order=st.randoms(use_true_random=False),
           indent=st.sampled_from([None, 0, 2]))
    @settings(max_examples=25, deadline=None)
    def test_memo_path_equals_a_fresh_gateway(self, spec, order, indent):
        items = list(spec.items())
        order.shuffle(items)
        body = body_of(dict(items), indent=indent)
        with tempfile.TemporaryDirectory() as root:
            options = ServeOptions(shards=1, cache_dir=root)
            _, (miss, hit, again), _ = submit_all(
                options, [body, body, body], execute=echo_execute)
            _, (fresh,), _ = submit_all(options, [spec],
                                        execute=echo_execute)
        assert fresh["meta"]["cache"] == "hit"
        assert miss["result"] == fresh["result"]
        assert hit == again == json_body(fresh)


class TestAdmission:
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
    """``?stream=1`` and ``Accept: text/event-stream`` ask for nothing
    special: a job is answered as plain JSON, as every POST is."""

    def test_stream_of_invalid_spec_is_plain_400(self, served):
        with served.client() as client:
            status, body, headers = client.request(
                "POST", "/v1/jobs?stream=1", {"kind": "bar"})
        assert status == 400
        assert headers["content-type"] == "application/json"
        error = json.loads(body)
        assert error == {"error": "invalid_spec", "field": "benchmark",
                         "message": error["message"]}

    def test_event_stream_accept_is_answered_as_json(self, served):
        conn = http.client.HTTPConnection(served.host, served.port,
                                          timeout=30)
        try:
            conn.request("POST", "/v1/jobs", body=body_of(tiny_spec(seed=11)),
                         headers={"Accept": "text/event-stream"})
            response = conn.getresponse()
            outcome = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/json"
        assert outcome["meta"]["cache"] == "miss"


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
        (tiny_spec(label="S03"), "label")])
    def test_spec_the_simulator_refuses_costs_no_run(self, served, spec,
                                                    field):
        with served.client() as client:
            status, body = client.submit(spec)
        assert status == 400
        assert (body["error"], body["field"]) == ("invalid_spec", field)
        counters = served.gateway.registry.counters()
        assert counters.get("serve.admitted", 0) == 0

    @pytest.mark.parametrize("field", ["benchmark", "kind", "backend",
                                       "fields"])
    def test_huge_rejected_input_gets_a_small_400(self, served, field):
        """A 400 quotes at most 32 characters of a value or name, and
        lists a few unknown names with a count of the rest."""
        many = {f"{i:05d}" + "z" * 58: 1 for i in range(20_000)}
        if field == "fields":
            spec = dict(tiny_spec(), **many)
        else:
            spec = tiny_spec(**{field: "x" * 1_000_000})
        with served.client() as client:
            status, body, _ = client.request("POST", "/v1/jobs", spec)
        assert status == 400
        assert len(body) < 1024
        error = json.loads(body)
        assert error["error"] == "invalid_spec"
        assert len(error["field"]) <= 32

    def test_unknown_run_is_404(self, served):
        with served.client() as client:
            status, body = client.run_manifest("20000101T000000-none-0-0")
        assert status == 404
        assert body["error"] == "run_not_found"

    def test_damaged_manifest_is_404(self, served):
        with served.client() as client:
            _, outcome = client.submit(tiny_spec(seed=42))
            run_id, path = (outcome["meta"]["run_id"],
                            outcome["meta"]["manifest"])
            with open(path, "rb") as fh:
                data = fh.read()
            for damaged in (data[:300], b"[1, 2]"):
                with open(path, "wb") as fh:
                    fh.write(damaged)
                status, body = client.run_manifest(run_id)
                assert status == 404
                assert (body["error"], body["run"]) == ("run_not_found",
                                                        run_id)


def exchange(server, data: bytes) -> bytes:
    """Send *data* on a fresh connection, half-close it, and read the
    raw bytes the gateway sends until it closes."""
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        out = b""
        while True:
            got = sock.recv(65536)
            if not got:
                return out
            out += got


def raw_post(body: bytes, target: bytes = b"/v1/jobs") -> bytes:
    return (b"POST " + target + b" HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % len(body) + body)


PINNED_SPEC = json.dumps(tiny_spec(seed=12)).encode()
PINNED_HIT = (b'{"meta": {"cache": "hit", "coalesced": false, '
              b'"key": "9f521253870974cd", "label": "compress/ooo/S10", '
              b'"run_id": null, "wall": 0.0}, '
              b'"result": {"label": "compress/ooo/S10", "seed": 12}}\n')

#: One response per route and status, byte for byte as the gateway has
#: always sent them.
PINNED = [
    ("job-200", raw_post(PINNED_SPEC),
     b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
     b"Content-Length: 185\r\nConnection: keep-alive\r\n\r\n" + PINNED_HIT),
    ("job-stream-200", raw_post(PINNED_SPEC, b"/v1/jobs?stream=1"),
     b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
     b"Content-Length: 185\r\nConnection: keep-alive\r\n\r\n" + PINNED_HIT),
    ("job-400-body", raw_post(b""),
     b"HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     b"Content-Length: 60\r\nConnection: keep-alive\r\n\r\n"
     b'{"error": "bad_request", "message": "expected a JSON body"}\n'),
    ("job-400-spec", raw_post(json.dumps(tiny_spec(machine="vax")).encode()),
     b"HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     b"Content-Length: 123\r\nConnection: keep-alive\r\n\r\n"
     b'{"error": "invalid_spec", "field": "machine", "message": '
     b"\"unknown value 'vax'; expected one of ['inorder', 'lab', "
     b"'ooo']\"}\n"),
    ("job-400-kind", raw_post(json.dumps(
        {"kind": "access_control", "workload": "migratory",
         "method": "INFORMING"}).encode()),
     b"HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     b"Content-Length: 112\r\nConnection: keep-alive\r\n\r\n"
     b'{"error": "invalid_spec", "field": "kind", "message": '
     b"\"unknown kind 'access_control'; expected one of ['bar']\"}\n"),
    ("job-500", raw_post(json.dumps(tiny_spec(seed=13)).encode()),
     b"HTTP/1.1 500 Internal Server Error\r\n"
     b"Content-Type: application/json\r\nContent-Length: 139\r\n"
     b"Connection: keep-alive\r\n\r\n"
     b'{"error": "job_failed", "kind": "JobFailedError", "message": '
     b'"job compress/ooo/S10 failed after 1 attempt(s): RuntimeError: '
     b'engine fault"}\n'),
    ("line-400", b"GARBAGE\r\n\r\n",
     b"HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     b"Content-Length: 79\r\nConnection: close\r\n\r\n"
     b'{"error": "bad_request", "message": "malformed request line '
     b"b'GARBAGE\\\\r\\\\n'\"}\n"),
    ("path-404", b"GET /nope HTTP/1.1\r\n\r\n",
     b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n"
     b"Content-Length: 40\r\nConnection: keep-alive\r\n\r\n"
     b'{"error": "not_found", "path": "/nope"}\n'),
    ("path-404-http10", b"GET /nope HTTP/1.0\r\n\r\n",
     b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n"
     b"Content-Length: 40\r\nConnection: close\r\n\r\n"
     b'{"error": "not_found", "path": "/nope"}\n'),
    ("stats-404", b"GET /stats HTTP/1.1\r\n\r\n",
     b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n"
     b"Content-Length: 41\r\nConnection: keep-alive\r\n\r\n"
     b'{"error": "not_found", "path": "/stats"}\n'),
    ("runs-404", b"GET /runs HTTP/1.1\r\n\r\n",
     b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n"
     b"Content-Length: 40\r\nConnection: keep-alive\r\n\r\n"
     b'{"error": "not_found", "path": "/runs"}\n'),
    ("run-404", b"GET /runs/x HTTP/1.1\r\n\r\n",
     b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n"
     b"Content-Length: 32\r\nConnection: keep-alive\r\n\r\n"
     b'{"error": "manifests_disabled"}\n'),
    ("method-405", b"GET /v1/jobs HTTP/1.1\r\n\r\n",
     b"HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json"
     b"\r\nContent-Length: 51\r\nConnection: keep-alive\r\n\r\n"
     b'{"allowed": "POST", "error": "method_not_allowed"}\n'),
    ("body-413", b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n",
     b"HTTP/1.1 413 Payload Too Large\r\nContent-Type: application/json"
     b"\r\nContent-Length: 46\r\nConnection: close\r\n\r\n"
     b'{"error": "body_too_large", "limit": 2097152}\n'),
    ("headers-431", b"GET / HTTP/1.1\r\nX: " + b"x" * 33000 + b"\r\n\r\n",
     b"HTTP/1.1 431 Request Header Fields Too Large\r\n"
     b"Content-Type: application/json\r\nContent-Length: 31\r\n"
     b"Connection: close\r\n\r\n"
     b'{"error": "headers_too_large"}\n'),
]


class TestWireFormat:
    def test_each_route_and_status_sends_its_pinned_bytes(self, tmp_path):
        def execute(job):
            if job.seed == 13:
                raise RuntimeError("engine fault")
            return {"label": job.label, "seed": job.seed}

        options = ServeOptions(shards=1, cache_dir=str(tmp_path / "cache"))
        with LiveServer(options, execute=execute) as server:
            assert exchange(server, b"GET /metrics HTTP/1.1\r\n\r\n") == (
                b"HTTP/1.1 200 OK\r\nContent-Type: application/openmetrics-"
                b"text; version=1.0.0; charset=utf-8\r\nContent-Length: 6"
                b"\r\nConnection: keep-alive\r\n\r\n# EOF\n")
            exchange(server, raw_post(PINNED_SPEC))  # the miss to hit
            for name, request, response in PINNED:
                assert exchange(server, request) == response, name
            server.loop.call_soon_threadsafe(
                setattr, server.gateway, "draining", True)
            time.sleep(0.1)
            assert exchange(server, raw_post(PINNED_SPEC)) == (
                b"HTTP/1.1 503 Service Unavailable\r\n"
                b"Content-Type: application/json\r\nContent-Length: 61\r\n"
                b"Connection: keep-alive\r\n\r\n"
                b'{"error": "draining", "message": '
                b'"gateway is shutting down"}\n')


def read_to_eof(sock) -> bytes:
    out = b""
    while True:
        got = sock.recv(65536)
        if not got:
            return out
        out += got


class TestGracefulShutdown:
    def test_connections_close_once_answered(self, tmp_path):
        """Shutdown closes an idle keep-alive connection, and one with a
        request in flight once it has answered: nothing is left for the
        listener to wait on (Python 3.12's ``wait_closed`` waits)."""
        release = threading.Event()

        def gated_execute(job):
            assert release.wait(10)
            return {"label": job.label}

        options = ServeOptions(shards=1, cache_dir=str(tmp_path / "cache"))
        with LiveServer(options, execute=gated_execute) as server:
            idle = socket.create_connection((server.host, server.port),
                                            timeout=10)
            busy = socket.create_connection((server.host, server.port),
                                            timeout=10)
            idle.sendall(b"GET /nope HTTP/1.1\r\n\r\n")
            assert idle.recv(65536).startswith(b"HTTP/1.1 404 ")
            busy.sendall(raw_post(json.dumps(tiny_spec(seed=81)).encode()))
            time.sleep(0.2)  # the miss is in the shard, gated
            threading.Timer(0.3, release.set).start()
        with idle, busy:
            assert read_to_eof(idle) == b""
            answer = read_to_eof(busy)
        assert answer.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: keep-alive" in answer
        assert server.abandoned == 0

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
