"""Fuzzing the request path.

Arbitrary bytes in a connection's buffer end as requests, a clean EOF
or "need more", or a structured 4xx, never a stray exception; one
connection answers the same bytes with the same responses however they
are split into reads; arbitrary JSON into the job-spec validator ends
as a job or a ``SpecError``, and every accepted spec builds the machine
its shard would build; a ``/runs/<ref>`` lookup reads nothing outside
the manifest root.
"""

import json
import os
from urllib.parse import unquote

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exec import SimJob
from repro.harness.configs import MACHINES
from repro.harness.runner import bar_config
from repro.durable import frame, header_record
from repro.serve.gateway import Gateway, ServeOptions
from repro.serve.app import App, Connection
from repro.serve.http import HttpError, Request, decode_json, parse_request
from repro.serve.spec import (
    MAX_HANDLER_INSTRUCTIONS,
    SpecError,
    validate_job_spec,
)


def parse_all(data: bytes, eof: bool = True):
    """Every outcome of parsing *data* off one keep-alive connection:
    requests until None (a clean EOF, or with *eof* false, "need more")
    or an error."""
    outcomes = []
    while True:
        try:
            parsed = parse_request(data, eof)
        except HttpError as exc:
            return outcomes + [exc]
        if parsed is None:
            return outcomes + [None]
        request, used = parsed
        assert 0 < used <= len(data)
        outcomes.append(request)
        data = data[used:]


def latin1(max_size):
    return st.text(st.characters(max_codepoint=255), max_size=max_size)


header_names = st.sampled_from(["Content-Length", "Connection",
                                "Transfer-Encoding", "Host",
                                "Accept", "traceparent"]) | latin1(8)
header_values = st.sampled_from(["0", "2", "7", "010", "-1", "-0", "+2",
                                 "1_0", "abc", "99999999", "close",
                                 "chunked", "text/event-stream"]) | latin1(12)


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


def check_requests(outcomes):
    """Requests, then None or a 4xx; each request framed by one plain
    decimal Content-Length, or by none."""
    *requests, last = outcomes
    assert all(isinstance(r, Request) for r in requests)
    if isinstance(last, HttpError):
        assert 400 <= last.status < 500
    else:
        assert last is None or isinstance(last, Request)
    for request in [r for r in outcomes if isinstance(r, Request)]:
        assert "transfer-encoding" not in request.headers
        length = request.headers.get("content-length", "0")
        assert length.isascii() and length.isdigit()
        assert int(length) == len(request.body)
        assert isinstance(request.body, bytes)
        if request.body:
            try:
                decode_json(request.body)
            except HttpError as exc:
                assert exc.status == 400


class TestParseRequest:
    @given(st.binary(max_size=200) | near_requests())
    @example(b"GET //[ HTTP/1.1\r\n\r\n")
    @example(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 8000\r\n\r\n"
             + b"[" * 4000 + b"]" * 4000)
    @settings(max_examples=150, deadline=None)
    def test_bytes_end_in_a_request_eof_or_4xx(self, data):
        check_requests(parse_all(data))

    @given(st.binary(max_size=200) | near_requests())
    @settings(max_examples=150, deadline=None)
    def test_bytes_end_in_a_request_need_more_or_4xx(self, data):
        """Without an EOF an incomplete request is "need more"; each
        request found is the one a reader at EOF finds."""
        outcomes = parse_all(data, eof=False)
        check_requests(outcomes)
        at_eof = parse_all(data)
        found = [r for r in outcomes if isinstance(r, Request)]
        assert [r.target for r in found] == \
            [r.target for r in at_eof[:len(found)]]


FRAME = b"POST /v1/jobs HTTP/1.1\r\n%s\r\n0123456789"


@pytest.mark.parametrize("headers", [
    b"Content-Length: 1_0\r\n", b"Content-Length: +10\r\n",
    b"Content-Length: -0\r\n", b"Content-Length: \xb9\xb2\r\n",
    b"Content-Length: 3\r\nContent-Length: 10\r\n",
    b"Content-Length: 10\r\nContent-Length: 010\r\n",
    b"Content-Length: 10\r\nTransfer-Encoding: chunked\r\n",
    b"Transfer-Encoding: chunked\r\nContent-Length: 10\r\n",
    b"Transfer-Encoding: gzip\r\n"],
    ids=["underscore", "plus", "minus-zero", "latin1-digits",
         "two-lengths", "two-spellings", "length-then-chunked",
         "chunked-then-length", "gzip"])
def test_framing_a_proxy_could_read_otherwise_is_400(headers):
    """RFC 9112 §6.1 and §6.3: no length but 1*DIGIT, no two lengths,
    no Transfer-Encoding."""
    (outcome,) = parse_all(FRAME % headers)
    assert isinstance(outcome, HttpError)
    assert outcome.status == 400


@pytest.mark.parametrize("headers", [
    b"Content-Length: 10\r\n", b"Content-Length: 010\r\n",
    b"Content-Length: 10\r\ncontent-length: 10\r\n"],
    ids=["plain", "leading-zero", "repeated"])
def test_plain_length_frames_the_body(headers):
    request, eof = parse_all(FRAME % headers)
    assert request.body == b"0123456789"
    assert eof is None


@pytest.mark.parametrize("data", [
    b"GET /" + b"a" * 8000 + b" HTTP/1.1 x\r\n\r\n",
    b"GET / HTTP/" + b"9" * 8000 + b"\r\n\r\n",
    b"GET / HTTP/1.1\r\n" + b"X" * 30000 + b"\r\n\r\n",
    b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 30000 + b"x\r\n\r\n",
    b"GET / HTTP/1." + b"1" * 8000 + b"\r\n\r\n",
    b"GET / HTTP/1.\r\n\r\n",
    b"GET / HTTP/1.x\r\n\r\n",
    b"GET / HTTP/1.10\r\n\r\n",
    b"GET / http/1.1\r\n\r\n"],
    ids=["request-line", "protocol", "header-line", "length",
         "minor-8000-digits", "no-minor", "letter-minor", "two-digit-minor",
         "lowercase-name"])
def test_a_400_quotes_little_of_the_request(data):
    (outcome,) = parse_all(data)
    assert outcome.status == 400
    assert len(outcome.payload["message"]) < 100


def test_a_later_minor_version_is_served_as_1_1():
    """RFC 9110 §2.5: a 1.x minor we do not know is read as 1.1."""
    request, eof = parse_all(b"GET /healthz HTTP/1.2\r\n\r\n")
    assert request.path == "/healthz"
    assert request.keep_alive
    assert eof is None


class Transport:
    """What a :class:`Connection` writes, and whether it closed."""

    def __init__(self):
        self.written = bytearray()
        self.closed = False

    def write(self, data):
        assert not self.closed, "a write after close"
        self.written += data

    def close(self):
        self.closed = True

    def is_closing(self):
        return self.closed

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass


HIT_SPEC = {"kind": "bar", "benchmark": "compress", "machine": "ooo",
            "label": "S10", "instructions": 2000, "warmup": 500, "seed": 5}


def post(body: bytes, *extra: bytes) -> bytes:
    return (b"POST /v1/jobs HTTP/1.1\r\n" + b"".join(extra)
            + b"Content-Length: %d\r\n\r\n" % len(body) + body)


#: Requests whose responses do not change from one connection to the
#: next: no /healthz (uptime) or /metrics (counters), and no job that
#: would wait for a shard.
KEEP = [
    b"GET /nope?x=%20 HTTP/1.1\r\nHost: a\r\n\r\n",
    b"GET /v1/jobs HTTP/1.1\r\n\r\n",
    b"POST /healthz HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
    b"GET /runs/x HTTP/1.1\r\n\r\n",
    post(json.dumps(HIT_SPEC).encode()),
    post(json.dumps(HIT_SPEC, indent=1).encode(), b"Host: b\r\n"),
    post(b"{not json"),
    post(json.dumps(dict(HIT_SPEC, machine="vax")).encode()),
]
CLOSE = [
    b"GET /nope HTTP/1.0\r\n\r\n",
    b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n",
    b"GARBAGE\r\n\r\n",
    b"GET / HTTP/2.0\r\n\r\n",
    b"GET / HTTP/1.1\r\nno colon\r\n\r\n",
    b"POST /v1/jobs HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}",
    b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n",
]


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    """An app whose gateway holds HIT_SPEC's result on disk, unstarted:
    every request in KEEP and CLOSE is answered without waiting."""
    gateway = Gateway(ServeOptions(
        cache_dir=str(tmp_path_factory.mktemp("cache"))))
    job = validate_job_spec(HIT_SPEC)
    gateway.cache.put(job, {"label": job.label, "seed": job.seed})
    return App(gateway)


def feed(app, pieces, eof=True):
    """Deliver *pieces* as reads on one connection, then EOF; the bytes
    written back and whether the connection closed."""
    transport = Transport()
    connection = Connection(app)
    connection.connection_made(transport)
    for piece in pieces:
        if transport.closed:
            break
        connection.data_received(piece)
    if eof and not transport.closed:
        connection.eof_received()
    assert connection.task is None
    return bytes(transport.written), transport.closed


def cut(data, offsets):
    points = sorted({0, len(data), *(o % (len(data) + 1) for o in offsets)})
    return [data[a:b] for a, b in zip(points, points[1:])]


class TestOneConnection:
    """The same bytes get the same responses, in the same order, however
    they arrive: whole, cut anywhere, one byte per read, or pipelined."""

    @given(requests=st.lists(st.sampled_from(KEEP), min_size=1, max_size=4),
           last=st.none() | st.sampled_from(CLOSE),
           tail=st.integers(0, 40),
           offsets=st.lists(st.integers(0, 4000), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_splits_do_not_change_the_responses(self, app, requests, last,
                                                tail, offsets):
        requests = requests + ([last] if last is not None else [])
        data = b"".join(requests)
        if last is None:  # maybe cut the last request short of its EOF
            tail %= len(requests[-1])
            data = data[:len(data) - tail]
        whole = feed(app, [data])
        assert feed(app, cut(data, offsets)) == whole
        assert feed(app, [data[i:i + 1] for i in range(len(data))]) == whole
        assert whole[1]  # EOF or a closing request ends the connection

        # Pipelined is sequential: each request alone, in order.
        alone = [feed(app, [request], eof=False) for request in requests]
        if last is None and tail:
            alone[-1] = feed(app, [requests[-1][:len(requests[-1]) - tail]])
        expected = b"".join(written for written, _ in alone)
        assert whole[0] == expected
        assert [closed for _, closed in alone[:-1]] == \
            [False] * (len(alone) - 1)

    @pytest.mark.parametrize("request_bytes", CLOSE[2:],
                             ids=["line", "version", "header", "length",
                                  "chunked", "too-large"])
    def test_a_malformed_request_closes_after_its_4xx(self, app,
                                                      request_bytes):
        written, closed = feed(app, [request_bytes + KEEP[0]], eof=False)
        assert closed
        head = written.split(b"\r\n", 1)[0]
        assert 400 <= int(head.split()[1]) < 500
        assert written.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close\r\n" in written


def build_machine(job: SimJob) -> None:
    """Build what a shard builds for *job*, short of running it."""
    cfg = job.config_dict()
    assert job.kind == "bar"
    assert job.machine in MACHINES
    bar = bar_config(cfg["label"])
    if bar.informing is not None:
        length = bar.informing.handler.length
        assert length <= MAX_HANDLER_INSTRUCTIONS
        # Canonical: one simulation, one label, one cache key.
        assert cfg["label"][-len(str(length)):] == str(length)


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


@st.composite
def near_specs(draw):
    """A valid spec with a few fields replaced, dropped or added."""
    spec = dict(bar_base)
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


#: The one run the manifest root of :func:`runs_app` holds.
RUN_ID = "20260101T000000-serve-1-0"


@pytest.fixture(scope="module")
def runs_app(tmp_path_factory):
    """An app serving the manifest root ``<tmp>/runs``, which holds
    :data:`RUN_ID`; ``<tmp>/elsewhere`` holds a run journal outside it."""
    base = tmp_path_factory.mktemp("manifests")
    for directory in (base / "runs" / RUN_ID, base / "elsewhere"):
        directory.mkdir(parents=True)
        (directory / "journal.jsonl").write_text(frame(header_record(
            "exec_run", run_id=directory.name)))
    gateway = Gateway(ServeOptions(cache_dir=str(base / "cache"),
                                   manifest_dir=str(base / "runs")))
    return App(gateway), str(base)


#: ``/runs/<ref>`` refs as they appear in a request target, ``{base}``
#: standing for the directory that holds the manifest root: the real id,
#: dot segments, absolute and working-directory-relative paths,
#: percent-encoded ``/`` and NUL, and long ids.
NEAR_REFS = [
    RUN_ID, "", ".", "..", "%2E%2E", "..%2Felsewhere", "..%2F" + RUN_ID,
    "../elsewhere", "{base}/elsewhere", "{base}/elsewhere/journal.jsonl",
    "{base}/runs/" + RUN_ID, "%2F{base}%2Felsewhere", "/etc/hostname",
    "pyproject.toml", "src%2Frepro", "%00", RUN_ID + "%00", "%00" + RUN_ID,
    RUN_ID + "%2F", RUN_ID + "/.", "x" * 255, "x" * 256, "y" * 8000]

run_refs = (
    st.sampled_from(NEAR_REFS)
    | st.sampled_from(sorted(os.listdir(".")) or ["."])
    | st.text(st.sampled_from(list("ab.-_/%0123456789F")), max_size=40)
    | st.builds("".join, st.lists(st.sampled_from(
        [RUN_ID, "..", ".", "/", "%2F", "%00"]), max_size=4)))


def one_json_response(written: bytes):
    """The status and body of the one JSON response in *written*."""
    assert written.count(b"HTTP/1.1 ") == 1, written[:200]
    head, body = written.split(b"\r\n\r\n", 1)
    assert b"Content-Type: application/json\r\n" in head
    assert b"Content-Length: %d\r\n" % len(body) in head
    return int(head.split()[1]), json.loads(body)


@given(ref=run_refs)
@example(ref="..%2Felsewhere")
@example(ref="{base}/elsewhere/journal.jsonl")
@example(ref="/etc/hostname")
@example(ref="pyproject.toml")
@example(ref=RUN_ID)
@settings(max_examples=150, deadline=None)
def test_a_run_lookup_reads_only_the_manifest_root(runs_app, ref):
    """Each ``/runs/<ref>`` gets exactly one JSON response, and only the
    real run id a 200: no dot segment, path or NUL reaches another
    file."""
    app, base = runs_app
    ref = ref.replace("{base}", base)
    written, closed = feed(app, [b"GET /runs/%s HTTP/1.1\r\n\r\n"
                                 % ref.encode("utf-8")])
    assert closed
    status, body = one_json_response(written)
    if unquote(ref) == RUN_ID:
        assert (status, body["run_id"]) == (200, RUN_ID)
    else:
        assert status != 200, ref


def test_a_run_lookup_folds_a_failed_cell_as_failed(tmp_path):
    """``/runs/<id>`` serves the one fold of the run's journal: a cell
    whose ``job_fail`` carries no violation (an exception, a serial
    timeout) is ``failed``, with its error."""
    run_dir = tmp_path / "runs" / RUN_ID
    run_dir.mkdir(parents=True)
    key = "a" * 64
    job = {"kind": "bar", "machine": "ooo", "benchmark": "compress",
           "instructions": 1, "warmup": 0, "config": {"label": "N"}}
    records = [
        header_record("exec_run", run_id=RUN_ID),
        {"rec": "run_start", "ts": 1.0, "jobs": [{"key": key, "job": job}]},
        {"rec": "job_start", "key": key, "ts": 1.1, "attempt": 0},
        {"rec": "job_fail", "key": key, "ts": 1.2, "attempt": 0,
         "error": "timeout"},
        {"rec": "run_end", "ts": 1.3, "status": "failed",
         "error": "JobTimeoutError: slow", "stats": {}}]
    (run_dir / "journal.jsonl").write_text(
        "".join(frame(record) for record in records))
    app = App(Gateway(ServeOptions(cache_dir=str(tmp_path / "cache"),
                                   manifest_dir=str(tmp_path / "runs"))))
    written, _ = feed(app, [b"GET /runs/%s HTTP/1.1\r\n\r\n"
                            % RUN_ID.encode("ascii")])
    status, body = one_json_response(written)
    assert (status, body["status"]) == (200, "failed")
    assert [(cell["label"], cell["status"], cell["error"])
            for cell in body["cells"]] == [
        ("compress/ooo/N", "failed", "timeout")]
