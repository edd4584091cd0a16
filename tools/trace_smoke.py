"""CI smoke test for repro.trace, end to end and out of process.

Boots ``python -m repro.serve`` as a real subprocess (ephemeral port,
ready-file handshake), then:

1. submits one cell under a client-side span whose ``traceparent``
   header the gateway must continue, appends the client span as a
   crc-framed ``span`` record to the served run's journal, and requires
   ``harness spans --check`` to find ONE connected tree in that journal
   with spans from both processes and a critical path that agrees with
   the measured request wall;
2. verifies the traced served result is digit-exact against a direct
   untraced in-process JobRunner run of the same SimJob;
3. runs a traced ``jobs=2`` pool grid in-process and requires the same
   ``--check`` to prove the pool workers joined the run's trace
   (>= 2 pids, one root);
4. sends SIGTERM and requires a clean drain: exit code 0.

The work directory (result cache, journals, manifests) is removed when
every check passes; a failed run keeps it and prints its path.

Usage::

    PYTHONPATH=src python tools/trace_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.durable import RunJournal
from repro.exec import ExecOptions, JobRunner, SimJob
from repro.serve.client import ServeClient
from repro.serve.spec import validate_job_spec
from repro.trace import Tracer, TraceContext, format_traceparent

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


def check_spans(ref: str, *args: str) -> None:
    """Run ``harness spans <ref> --check ...`` as a real CLI call."""
    argv = [sys.executable, "-m", "repro.harness", "spans", ref,
            "--check", *args]
    proc = subprocess.run(argv, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"harness spans --check exited {proc.returncode}:\n"
             f"{proc.stderr}")


def smoke(workdir: Path) -> None:
    ready = workdir / "ready"
    trace_dir = workdir / "trace"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--shards", "2",
         "--cache-dir", str(workdir / "cache"),
         "--manifest-dir", str(workdir / "runs"),
         "--trace-dir", str(trace_dir),
         "--ready-file", str(ready)])
    try:
        host, port = wait_for_ready(ready, process)
        print(f"server up at {host}:{port}")

        # 1. One request under a client-side span: the trace must cross
        # the HTTP boundary and come back as one connected tree.
        tracer = Tracer()
        with ServeClient(host, port, timeout=60) as client:
            started = time.time()
            with tracer.span("client.request") as span:
                header = format_traceparent(TraceContext(
                    tracer.trace_id, span.span_id, sampled=True))
                status, outcome = client.submit(SPEC, traceparent=header)
            wall = time.time() - started
        if status != 200:
            fail(f"submit: {status} {outcome}")
        meta = outcome["meta"]
        if meta.get("trace_id") != tracer.trace_id:
            fail(f"gateway did not continue the client trace: "
                 f"{meta.get('trace_id')} != {tracer.trace_id}")
        journal_path = meta.get("spans")
        if not journal_path or journal_path != meta.get("journal") \
                or not os.path.isfile(journal_path):
            fail(f"served spans are not in the run's journal: "
                 f"{journal_path!r} vs {meta.get('journal')!r}")
        # The client is a process in this trace too: append its span to
        # the run's journal, framed like every other record.
        with RunJournal(journal_path, fsync="off") as journal:
            if not journal.extend(tracer.records(time.time())):
                fail("client span did not append to the run's journal")
        check_spans(journal_path, "--expect-processes", "2",
                    "--wall", f"{wall:.6f}")
        print(f"cross-process span tree OK ({wall:.2f}s request)")

        # 2. Digit-exact parity: tracing must not perturb results.
        direct = JobRunner(ExecOptions(jobs=1, cache=False)).run(
            [validate_job_spec(SPEC)])[0]
        if outcome["result"] != direct:
            fail("traced served result differs from a direct "
                 "untraced JobRunner run")
        print("digit-exact parity OK")

        # 3. Pool propagation: a jobs=2 grid with sampling on must show
        # worker pids inside the same tree as the parent's run span.
        pool_runs = workdir / "pool_runs"
        runner = JobRunner(ExecOptions(jobs=2, cache=False,
                                       trace_sample=1.0,
                                       manifest_dir=str(pool_runs)))
        runner.run([SimJob.bar(benchmark="compress", machine="ooo",
                               label=label, instructions=2000,
                               warmup=500, seed=0)
                    for label in ("N", "S1", "S10", "U10")])
        manifest = json.loads(Path(runner.last_manifest).read_text())
        check_spans(manifest["run_id"], "--expect-processes", "2",
                    "--manifest-dir", str(pool_runs))
        print(f"pool span propagation OK (run {manifest['run_id']})")

        # 4. Clean shutdown.
        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=30)
        if code != 0:
            fail(f"server exited with {code} after SIGTERM")
        print("graceful shutdown OK")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="trace-smoke-"))
    try:
        smoke(workdir)
    except BaseException:
        print(f"work directory kept: {workdir}", file=sys.stderr)
        raise
    shutil.rmtree(workdir)
    print("trace smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
