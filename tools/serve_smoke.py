"""CI smoke test for the repro.serve gateway, out of process.

Boots ``python -m repro.serve`` as a real subprocess (ephemeral port,
ready-file handshake, no ``REPRO_BACKEND``), requires ``/healthz`` to
report the default ``vec`` backend, then:

1. submits a tiny cell and verifies the served result is digit-exact
   against a direct in-process ``interp`` JobRunner run of the same
   SimJob — a cross-backend check;
2. re-submits it: a hit, equal to the direct run; then flips a byte of
   its blob under ``cache/`` and re-submits again: the gateway serves
   the result it remembers, still equal to the direct run; sends the
   same body once more, and requires every repeat's response body to
   be byte-identical; then sends the spec with its keys in another
   order, which must be a hit equal to the direct run too; then, over
   raw sockets, sends the request in 1-byte writes and twice in one
   write, and requires responses byte-identical to the whole request's;
3. exercises coalescing: two identical *uncached* concurrent requests
   must produce exactly one execution and one coalesce;
4. scrapes ``/metrics`` (the exposition must parse back losslessly;
   ``serve_memory_hits`` must count all four re-requests) and fetches the
   served run's manifest, which must record ``settings.backend ==
   "vec"``;
5. sends SIGTERM and requires a clean drain: exit code 0;
6. boots with ``REPRO_BACKEND=turbo`` and requires exit code 2.

The work directory (result cache, journals, manifests) is removed when
every check passes; a failed run keeps it and prints its path.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.exec import ExecOptions, JobRunner, ResultCache
from repro.obs.export import parse_openmetrics
from repro.sanitize.chaos import flip_byte
from repro.serve.client import ServeClient
from repro.serve.spec import validate_job_spec
from repro.vec import BACKEND_ENV

SPEC = {"kind": "bar", "benchmark": "compress", "machine": "ooo",
        "label": "S10", "instructions": 2000, "warmup": 500, "seed": 0}


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def wait_for_ready(ready_file: Path, process, timeout: float = 30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            fail(f"server exited early with code {process.returncode}")
        if ready_file.exists() and ready_file.read_text().strip():
            host, port = ready_file.read_text().split()
            return host, int(port)
        time.sleep(0.05)
    fail("server did not become ready in time")


def raw_responses(host: str, port: int, data: bytes, count: int,
                  step: int = 0):
    """Send *data* on a fresh connection, whole or in *step*-byte
    writes, and return the raw bytes of the first *count* responses."""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for i in range(0, len(data), step or len(data)):
            sock.sendall(data[i:i + (step or len(data))])
        buffer, responses = b"", []
        while len(responses) < count:
            head = buffer.find(b"\r\n\r\n")
            if head >= 0:
                length = re.search(rb"Content-Length: (\d+)", buffer[:head])
                end = head + 4 + int(length.group(1))
                if len(buffer) >= end:
                    responses.append(buffer[:end])
                    buffer = buffer[end:]
                    continue
            try:
                got = sock.recv(65536)
            except socket.timeout:
                got = b""
            if not got:
                fail(f"got {len(responses)} of {count} response(s)")
            buffer += got
    return responses


def serve_command(workdir: Path, ready: Path):
    return [sys.executable, "-m", "repro.serve", "--port", "0",
            "--shards", "2",
            "--cache-dir", str(workdir / "cache"),
            "--manifest-dir", str(workdir / "runs"),
            "--ready-file", str(ready)]


def smoke(workdir: Path) -> None:
    ready = workdir / "ready"
    env = {k: v for k, v in os.environ.items() if k != BACKEND_ENV}
    process = subprocess.Popen(serve_command(workdir, ready), env=env)
    try:
        host, port = wait_for_ready(ready, process)
        print(f"server up at {host}:{port}")

        with ServeClient(host, port, timeout=60) as client:
            status, health = client.healthz()
            if status != 200 or health["status"] != "ok":
                fail(f"healthz: {status} {health}")
            if health.get("backend") != "vec":
                fail(f"healthz backend {health.get('backend')!r}, "
                     f"want 'vec'")
            print("healthz OK (backend vec)")

            # 1. Digit-exact parity with a direct engine run.
            status, outcome = client.submit(SPEC)
            if status != 200:
                fail(f"submit: {status} {outcome}")
            direct = JobRunner(ExecOptions(jobs=1, cache=False,
                                           backend="interp")).run(
                [validate_job_spec(SPEC)])[0]
            if outcome["result"] != direct:
                fail("served vec result differs from a direct interp "
                     "JobRunner run")
            print("digit-exact parity OK (served vec == direct interp)")

            # 2. Re-requests: from memory, even after the blob rots.
            def resubmit(step: str, spec=SPEC) -> bytes:
                status, data, _ = client.request("POST", "/v1/jobs", spec)
                again = json.loads(data)
                if status != 200 or again["meta"]["cache"] != "hit":
                    fail(f"{step}: {status} {again.get('meta')}")
                if again["result"] != direct:
                    fail(f"{step}: result differs from the direct run")
                return data

            repeats = [resubmit("re-request")]
            flip_byte(str(ResultCache(workdir / "cache").path_for(
                validate_job_spec(SPEC).cache_key())))
            repeats.append(resubmit("re-request after a byte flip"))
            repeats.append(resubmit("exact body again"))
            if len(set(repeats)) != 1:
                fail("repeated requests got different response bodies")
            resubmit("keys in another order",
                     dict(reversed(list(SPEC.items()))))
            print("re-requests OK (hits equal to the direct run, "
                  "byte-identical repeats, corrupted blob never read)")

            body = json.dumps(SPEC).encode()
            request = (b"POST /v1/jobs HTTP/1.1\r\nHost: smoke\r\n"
                       b"Content-Type: application/json\r\n"
                       b"Content-Length: %d\r\n\r\n" % len(body) + body)
            whole = raw_responses(host, port, request, 1)
            if raw_responses(host, port, request, 1, step=1) != whole:
                fail("a request sent in 1-byte writes got another response")
            if raw_responses(host, port, request * 2, 2) != whole * 2:
                fail("two requests in one write got other responses")
            print("framing OK (1-byte writes and two pipelined requests "
                  "answered byte for byte as one whole request)")

            # 3. Coalescing: identical uncached concurrent requests.
            proof = dict(SPEC, seed=777, instructions=20_000, warmup=2_000)
            outcomes = [None, None]

            def submit(slot):
                with ServeClient(host, port, timeout=60) as c:
                    outcomes[slot] = c.submit(proof)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if any(s != 200 for s, _ in outcomes):
                fail(f"coalesce submissions failed: {outcomes}")
            if outcomes[0][1]["result"] != outcomes[1][1]["result"]:
                fail("coalesced twins returned different results")

            # 4. Metrics: scrape, parse back, check the proof counters.
            status, text = client.metrics_text()
            if status != 200:
                fail(f"/metrics: {status}")
            counters = parse_openmetrics(text)["counters"]
            executed = counters.get("serve_executed")
            coalesced = counters.get("serve_coalesced")
            # Exactly 2 executions total: the parity cell + one (not
            # two!) for the coalesced twins.
            if executed != 2 or coalesced != 1:
                fail(f"coalesce proof: executed={executed} "
                     f"coalesced={coalesced} (want 2 and 1)")
            print("coalescing OK (executed=2 total, coalesced=1)")
            memory_hits = counters.get("serve_memory_hits", 0)
            if memory_hits < 4:
                fail(f"serve_memory_hits={memory_hits}, want at least 4")
            print(f"memory hits OK ({memory_hits})")

            run_id = outcome["meta"]["run_id"]
            status, manifest = client.run_manifest(run_id)
            if status != 200 or manifest["run_id"] != run_id:
                fail(f"/runs/{run_id}: {status}")
            if manifest["settings"]["backend"] != "vec":
                fail(f"served run ran {manifest['settings']['backend']!r},"
                     f" want 'vec'")
            print(f"manifest lookup OK ({run_id}, backend vec)")

        # 5. Clean shutdown on SIGTERM.
        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=30)
        if code != 0:
            fail(f"server exited with {code} after SIGTERM")
        print("graceful shutdown OK")

        # 6. An unknown backend fails the boot, before anything binds.
        bad = workdir / "bad"
        process = subprocess.Popen(serve_command(bad, bad / "ready"),
                                   env=dict(env, **{BACKEND_ENV: "turbo"}))
        code = process.wait(timeout=30)
        if code != 2:
            fail(f"REPRO_BACKEND=turbo boot exited {code}, want 2")
        print("bad backend refused at boot OK (exit 2)")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    try:
        smoke(workdir)
    except BaseException:
        print(f"work directory kept: {workdir}", file=sys.stderr)
        raise
    shutil.rmtree(workdir)
    print("serve smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
