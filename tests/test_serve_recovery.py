"""Gateway durability: the service journal, restart recovery, and
service-level chaos (torn journals, ENOSPC, dropped clients)."""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.durable import read_records
from repro.obs.export import parse_openmetrics
from repro.sanitize.chaos import arm_journal_enospc, truncate_tail
from repro.serve.client import ServeClient
from repro.serve.gateway import Gateway, ServeOptions
from repro.serve.spec import validate_job_spec
from tests.test_serve_gateway import LiveServer, read_to_eof, tiny_spec

SRC = str(Path(__file__).resolve().parents[1] / "src")


def echo_execute(job):
    return {"label": job.label, "seed": job.seed}


def serve_options(tmp_path, **overrides):
    fields = dict(shards=1,
                  cache_dir=str(tmp_path / "cache"),
                  journal_path=str(tmp_path / "serve-journal.jsonl"))
    fields.update(overrides)
    return ServeOptions(**fields)


def run_incarnation(options, specs=(), execute=echo_execute,
                    wait_empty=False, after_start=None):
    """Boot a gateway, submit *specs*, drain; returns the gateway."""

    async def scenario():
        gateway = Gateway(options, execute=execute)
        await gateway.start()
        if after_start is not None:
            after_start(gateway)
        for spec in specs:
            await gateway.submit(spec)
        if wait_empty:
            deadline = time.monotonic() + 10
            while gateway.in_flight and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            assert not gateway.in_flight, "recovered jobs never finished"
        await gateway.drain(grace=5)
        return gateway

    return asyncio.run(scenario())


def forge_crash(journal_path, drop_final_finishes=1):
    """Rewrite the journal without its last *n* ``job_finished`` lines —
    the exact file a gateway SIGKILLed mid-execution leaves behind."""
    with open(journal_path) as fh:
        lines = fh.readlines()
    kept, dropped = [], 0
    for line in reversed(lines):
        if dropped < drop_final_finishes and '"job_finished"' in line:
            dropped += 1
            continue
        kept.append(line)
    assert dropped == drop_final_finishes
    with open(journal_path, "w") as fh:
        fh.writelines(reversed(kept))


class TestJournalWrites:
    def test_accepted_and_finished_are_journaled(self, tmp_path):
        options = serve_options(tmp_path)
        gateway = run_incarnation(options, [tiny_spec(seed=1)])
        records, bad, truncated = read_records(options.journal_path)
        assert not truncated and bad == 0
        recs = [r["rec"] for r in records]
        assert recs == ["journal_header", "job_accepted", "job_finished"]
        assert records[0]["kind"] == "serve"
        key = validate_job_spec(tiny_spec(seed=1)).cache_key()
        assert records[1]["key"] == key
        assert records[1]["job"]["benchmark"] == "compress"
        assert gateway.journal is not None

    def test_failed_job_journaled_as_failed(self, tmp_path):
        def broken_execute(job):
            raise ValueError("chaos: engine failure")

        from repro.serve.gateway import JobError

        async def scenario():
            gateway = Gateway(serve_options(tmp_path),
                              execute=broken_execute)
            await gateway.start()
            with pytest.raises(JobError):
                await gateway.submit(tiny_spec(seed=2))
            await gateway.drain(grace=5)
            return gateway

        gateway = asyncio.run(scenario())
        records, _, _ = read_records(gateway.options.journal_path)
        assert [r["rec"] for r in records][-1] == "job_failed"
        assert "chaos" in records[-1]["error"]


class TestRestartRecovery:
    def test_incomplete_job_reenqueued_and_finished(self, tmp_path):
        options = serve_options(tmp_path)
        first = run_incarnation(options,
                                [tiny_spec(seed=1), tiny_spec(seed=2)])
        # Forge the kill: seed=2 accepted but not finished, and its
        # result never reached the cache.
        forge_crash(options.journal_path)
        victim = validate_job_spec(tiny_spec(seed=2))
        first.cache.path_for(victim.cache_key()).unlink()

        second = run_incarnation(options, wait_empty=True)
        recovery = second.recovery
        assert recovery["recovered"] == 1
        assert recovery["orphaned"] == 0
        assert recovery["already_cached"] == 0
        # The recovered job really ran and its result is durable now.
        assert second.registry.counters()["serve.executed"] == 1
        assert second.cache.get(victim) is not None
        # The rewritten journal is a complete, settled history again.
        records, _, truncated = read_records(options.journal_path)
        assert not truncated
        recs = [r["rec"] for r in records]
        assert recs == ["journal_header", "job_accepted", "job_finished"]
        assert records[1]["recovered"] is True

    def test_cached_but_unjournaled_counts_already_cached(self, tmp_path):
        """Crash between the cache store and the journal mark: the work
        is done, recovery just notices and does not re-run it."""
        options = serve_options(tmp_path)
        run_incarnation(options, [tiny_spec(seed=3)])
        forge_crash(options.journal_path)  # drop the finish, keep the cache

        second = run_incarnation(options)
        assert second.recovery["recovered"] == 1
        assert second.recovery["already_cached"] == 1
        assert second.registry.counters().get("serve.executed", 0) == 0

    def test_new_request_coalesces_onto_recovered_ticket(self, tmp_path):
        release = threading.Event()

        def gated_execute(job):
            assert release.wait(10)
            return {"label": job.label, "seed": job.seed}

        options = serve_options(tmp_path)
        first = run_incarnation(options, [tiny_spec(seed=4)])
        forge_crash(options.journal_path)
        victim = validate_job_spec(tiny_spec(seed=4))
        first.cache.path_for(victim.cache_key()).unlink()

        async def scenario():
            gateway = Gateway(options, execute=gated_execute)
            await gateway.start()
            assert victim.cache_key() in gateway.in_flight
            submit = asyncio.ensure_future(
                gateway.submit(tiny_spec(seed=4)))
            await asyncio.sleep(0.1)
            release.set()
            outcome = await submit
            await gateway.drain(grace=5)
            return gateway, outcome

        gateway, outcome = asyncio.run(scenario())
        assert outcome["meta"]["coalesced"] is True
        assert gateway.registry.counters()["serve.coalesced"] == 1
        assert gateway.registry.counters()["serve.executed"] == 1

    def test_torn_record_orphans_nothing_it_can_trust(self, tmp_path):
        options = serve_options(tmp_path)
        run_incarnation(options, [tiny_spec(seed=5)])
        # Tear mid-record: the trusted prefix ends before the final
        # finish, so the (cached) job counts as recovered/already_cached.
        truncate_tail(options.journal_path, 5)
        second = run_incarnation(options)
        recovery = second.recovery
        assert recovery["truncated"] is True
        assert recovery["bad_lines"] == 1
        assert recovery["recovered"] == 1
        assert recovery["already_cached"] == 1
        assert second.registry.counters()["serve.journal_bad_lines"] == 1

    def test_unrebuildable_record_is_orphaned(self, tmp_path):
        from repro.durable import RunJournal

        options = serve_options(tmp_path)
        run_incarnation(options, [tiny_spec(seed=6)])
        # A journaled spec the current SimJob schema cannot rebuild
        # (schema drift across the restart).
        with RunJournal(options.journal_path, fsync="off") as journal:
            journal.record("job_accepted", key="f" * 64,
                           job={"alien": True})
        second = run_incarnation(options)
        assert second.recovery["orphaned"] == 1
        assert second.recovery["recovered"] == 0

    def test_alien_journal_orphans_every_record(self, tmp_path):
        from repro.durable import RunJournal, header_record

        options = serve_options(tmp_path)
        with RunJournal(options.journal_path, fsync="off") as journal:
            journal.append(header_record("exec_run", run_id="r1"))
            journal.record("job_start", key="a" * 64)
        gateway = run_incarnation(options)
        assert gateway.recovery["orphaned"] == 2
        # And the file was rewritten as a fresh serve journal.
        records, _, _ = read_records(options.journal_path)
        assert records[0]["kind"] == "serve"


class TestServiceChaos:
    @pytest.mark.filterwarnings(
        "ignore:run journal.*not writable:RuntimeWarning")
    def test_enospc_degrades_to_counted_outcome(self, tmp_path):
        options = serve_options(tmp_path)
        gateway = run_incarnation(
            options, [tiny_spec(seed=7), tiny_spec(seed=8)],
            after_start=lambda gw: arm_journal_enospc(gw.journal, after=1))
        # Both jobs served fine; the journal died quietly and visibly.
        assert gateway.registry.counters()["serve.executed"] == 2
        assert gateway.registry.counters()["serve.journal_errors"] >= 1
        assert gateway.journal.disabled is True

    def test_client_disconnect_mid_miss_is_counted(self, tmp_path):
        started = threading.Event()
        release = threading.Event()

        def gated_execute(job):
            started.set()
            assert release.wait(10)
            return {"label": job.label, "seed": job.seed}

        def request(spec, *headers):
            body = json.dumps(spec).encode()
            return (b"POST /v1/jobs HTTP/1.1\r\n" + b"".join(headers)
                    + b"Content-Length: %d\r\n\r\n" % len(body) + body)

        options = serve_options(tmp_path)
        with LiveServer(options, execute=gated_execute) as server:
            address = (server.host, server.port)
            # A miss answered normally, then closed, drops nobody.
            release.set()
            with socket.create_connection(address, timeout=10) as sock:
                sock.sendall(request(tiny_spec(seed=8),
                                     b"Connection: close\r\n"))
                answer = read_to_eof(sock)
            assert answer.startswith(b"HTTP/1.1 200 OK\r\n")
            counters = server.gateway.registry.counters()
            assert counters.get("serve.client_disconnects", 0) == 0

            release.clear()
            started.clear()
            sock = socket.create_connection(address, timeout=10)
            sock.sendall(request(tiny_spec(seed=9)))
            assert started.wait(10)  # the miss is in the shard
            # The client vanishes mid-run: reset, don't FIN-drain.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            b"\x01\x00\x00\x00\x00\x00\x00\x00")
            sock.close()
            release.set()

            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                counters = server.gateway.registry.counters()
                if counters.get("serve.client_disconnects", 0) >= 1:
                    break
                time.sleep(0.05)
            counters = server.gateway.registry.counters()
            assert counters["serve.client_disconnects"] == 1
            # The run itself survived the disconnect: executed, cached,
            # journaled finished.
            assert counters["serve.executed"] == 2
            victim = validate_job_spec(tiny_spec(seed=9))
            assert server.gateway.cache.get(victim) is not None
        records, _, _ = read_records(options.journal_path)
        assert [r["rec"] for r in records][-1] == "job_finished"

    def test_metrics_expose_the_recovery(self, tmp_path):
        options = serve_options(tmp_path, shards=2)
        run_incarnation(options, [tiny_spec(seed=10)])
        forge_crash(options.journal_path)
        with LiveServer(options) as server:
            with server.client() as client:
                status, text = client.metrics_text()
        assert status == 200
        counters = parse_openmetrics(text)["counters"]
        assert counters["serve_recovered"] == 1
        assert counters["serve_orphaned"] == 0
        assert counters["serve_journal_bad_lines"] == 0

    def test_torn_journal_is_counted_and_announced(self, tmp_path):
        """A journal of two garbage lines: ``/metrics`` counts them as
        ``serve.journal_bad_lines``, and the boot line says so."""
        journal = tmp_path / "serve-journal.jsonl"
        journal.write_text("garbage one\ngarbage two\n")
        ready = tmp_path / "ready"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--shards", "1", "--cache-dir", str(tmp_path / "cache"),
             "--journal", str(journal), "--ready-file", str(ready)],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC))
        try:
            deadline = time.monotonic() + 30
            while not (ready.exists() and ready.read_text().endswith("\n")):
                assert process.poll() is None, "the gateway exited"
                assert time.monotonic() < deadline, "the gateway never rose"
                time.sleep(0.02)
            host, port = ready.read_text().split()
            with ServeClient(host, int(port)) as client:
                status, text = client.metrics_text()
        finally:
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
        assert status == 200
        counters = parse_openmetrics(text)["counters"]
        assert counters["serve_journal_bad_lines"] == 2
        assert ("journal replay recovered 0 job(s) (0 already cached), "
                "0 orphaned, 2 unreadable line(s)") in out
        assert process.returncode == 0
