"""Fuzzing the request path.

Arbitrary bytes off a connection end as requests, a clean EOF, or a
structured 4xx, never a stray exception; arbitrary JSON into the
job-spec validator ends as a job or a ``SpecError``, and every accepted
spec builds the machine its shard would build.
"""

import asyncio
from dataclasses import asdict

from hypothesis import example, given, settings, strategies as st

from repro.coherence import (
    TABLE2_MACHINE,
    AccessControlMethod,
    CoherenceMachineParams,
)
from repro.coherence.multiproc import MultiprocessorSim
from repro.exec import SimJob
from repro.harness.configs import MACHINES
from repro.harness.runner import bar_config
from repro.serve.http import HttpError, Request, read_request
from repro.serve.spec import (
    MAX_HANDLER_INSTRUCTIONS,
    MAX_PROCESSORS,
    SpecError,
    validate_job_spec,
)
from repro.workloads.parallel import PARALLEL_KERNELS


def read_all(data: bytes):
    """Every outcome of reading *data* off one keep-alive connection:
    requests until a clean EOF (None) or an error."""
    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        outcomes = []
        while True:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                return outcomes + [exc]
            outcomes.append(request)
            if request is None:
                return outcomes

    return asyncio.run(read())


def latin1(max_size):
    return st.text(st.characters(max_codepoint=255), max_size=max_size)


header_names = st.sampled_from(["Content-Length", "Connection",
                                "Transfer-Encoding", "X-Tenant",
                                "Accept", "traceparent"]) | latin1(8)
header_values = st.sampled_from(["0", "2", "7", "-1", "1_0", "abc",
                                 "99999999", "close", "chunked",
                                 "text/event-stream"]) | latin1(12)


@st.composite
def near_requests(draw):
    """One or two requests built from plausible parts, then maybe cut."""
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    out = b""
    for _ in range(draw(st.integers(1, 2))):
        method = draw(st.sampled_from(["GET", "POST", "get"]) | latin1(6))
        target = draw(st.sampled_from(["/v1/jobs", "/healthz", "//[",
                                       "/runs/%zz?stream=1", "*"])
                      | latin1(16))
        version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0",
                                        "HTTP/2"]) | latin1(8))
        lines = [f"{method} {target} {version}"]
        for name, value in draw(st.lists(st.tuples(header_names,
                                                   header_values),
                                         max_size=4)):
            lines.append(f"{name}: {value}")
        head = (eol.join(lines) + eol + eol).encode("latin-1")
        out += head + draw(st.binary(max_size=12))
    cut = draw(st.none() | st.integers(0, len(out)))
    return out if cut is None else out[:cut]


class TestReadRequest:
    @given(st.binary(max_size=200) | near_requests())
    @example(b"GET //[ HTTP/1.1\r\n\r\n")
    @example(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 8000\r\n\r\n"
             + b"[" * 4000 + b"]" * 4000)
    @settings(max_examples=150, deadline=None)
    def test_bytes_end_in_a_request_eof_or_4xx(self, data):
        outcomes = read_all(data)
        *requests, last = outcomes
        assert all(isinstance(r, Request) for r in requests)
        if isinstance(last, HttpError):
            assert 400 <= last.status < 500
        else:
            assert last is None or isinstance(last, Request)
        for request in [r for r in outcomes if isinstance(r, Request)]:
            assert isinstance(request.tenant, str)
            request.wants_stream()
            if request.body:
                try:
                    request.json()
                except HttpError as exc:
                    assert exc.status == 400


def build_machine(job: SimJob) -> None:
    """Build what a shard builds for *job*, short of running it."""
    cfg = job.config_dict()
    if job.kind == "bar":
        assert job.machine in MACHINES
        bar = bar_config(cfg["label"])
        if bar.informing is not None:
            length = bar.informing.handler.length
            assert length <= MAX_HANDLER_INSTRUCTIONS
            # Canonical: one simulation, one label, one cache key.
            assert cfg["label"][-len(str(length)):] == str(length)
        return
    params = cfg["machine_params"]
    assert params["processors"] <= MAX_PROCESSORS
    MultiprocessorSim(CoherenceMachineParams(**params),
                      AccessControlMethod[cfg["method"]])


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)

edge_ints = st.sampled_from([-1, 0, 1, 2, 3, 32, 48, 64, 65, 100, 101,
                             4096, 2 ** 31]) | st.integers()
labels = st.sampled_from(["N", "S1", "U10", "E10", "CC1", "S100", "S101",
                          "S03", "S0", "S٣", "CC", "S1000000000"])
field_values = labels | edge_ints | json_values

bar_base = {"kind": "bar", "benchmark": "compress", "machine": "ooo",
            "label": "S10", "instructions": 2000, "warmup": 500}
machine_fields = sorted(asdict(TABLE2_MACHINE))


@st.composite
def near_specs(draw):
    """A valid spec with a few fields replaced, dropped or added."""
    if draw(st.booleans()):
        spec = dict(bar_base)
    else:
        spec = {"kind": "access_control",
                "workload": draw(st.sampled_from(sorted(PARALLEL_KERNELS))),
                "method": draw(st.sampled_from(
                    [m.name for m in AccessControlMethod])),
                "machine_params": draw(st.dictionaries(
                    st.sampled_from(machine_fields), edge_ints,
                    max_size=3))}
    names = st.sampled_from(sorted(spec) + ["seed", "policy", "backend",
                                            "extra"])
    for name in draw(st.lists(names, max_size=2)):
        if draw(st.booleans()):
            spec[name] = draw(field_values)
        else:
            spec.pop(name, None)
    return spec


class TestValidateJobSpec:
    @given(json_values | near_specs())
    @example({"kind": "access_control", "workload": "migratory",
              "method": "ECC", "machine_params": {"l1_size": 3}})
    @example({"kind": "access_control", "workload": "migratory",
              "method": "ECC", "machine_params": {"l1_assoc": 0}})
    @example({"kind": "access_control", "workload": "migratory",
              "method": "ECC", "machine_params": {"processors": 0}})
    @example({"kind": "access_control", "workload": "migratory",
              "method": "ECC", "machine_params": {"message_latency": -1}})
    @example({"kind": "access_control", "workload": "migratory",
              "method": "ECC", "machine_params": {"coherence_unit": 0}})
    @example(dict(bar_base, label="S03"))
    @example(dict(bar_base, label="S1000000000"))
    @settings(max_examples=150, deadline=None)
    def test_accepted_specs_build_their_machine(self, payload):
        try:
            job = validate_job_spec(payload)
        except SpecError as exc:
            assert exc.to_dict()["error"] == "invalid_spec"
            return
        build_machine(job)
