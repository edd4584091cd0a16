"""The serve-mix workload: one closed-loop client against the gateway.

Each pass boots ``python -m repro.serve --port 0 --shards 2`` with a
private cache, manifest directory and journal, sends the seeded request
sequence over one keep-alive connection, one request at a time, and
stops the gateway with SIGTERM.  Passes repeat until ``--seconds`` of
measuring have passed; every pass starts from the same empty state.
The host reference loop runs before the first request and after every
:data:`REF_EVERY` responses, while no request is in flight.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from typing import Dict, List

from cells import serve_cells, serve_sequence
from common import (Ctx, measured_passes, report_end_to_end, report_layers,
                    report_unattributed, setup_launches)
from hostref import LOCAL_WINDOW, HostRef
from report import Report
from stats import result_digest

SHIM = os.path.join("perfbench", "serveshim.py")
REF_EVERY = 32
HEADERS = {"Content-Type": "application/json"}


class Gateway:
    """One gateway process with private state under *work*."""

    def __init__(self, ctx: Ctx, shim: bool = False,
                 layers: bool = False) -> None:
        self.work = ctx.fresh_dir("serve")
        ready = os.path.join(self.work, "ready")
        self.shim_out = os.path.join(self.work, "shim.json")
        serve_args = ["--port", "0", "--shards", "2",
                      "--cache-dir", os.path.join(self.work, "cache"),
                      "--manifest-dir", os.path.join(self.work, "runs"),
                      "--journal", os.path.join(self.work, "journal.jsonl"),
                      "--ready-file", ready]
        if shim:
            argv = [SHIM, self.shim_out] + (["--layers"] if layers else [])
            argv += ["--"] + serve_args
        else:
            argv = ["-m", "repro.serve"] + serve_args
        self._log = open(os.path.join(self.work, "gateway.log"), "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable] + argv, cwd=ctx.root, env=ctx.env(),
            stdout=self._log, stderr=subprocess.STDOUT)
        try:
            self.host, self.port = self._wait_ready(ready)
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=60)
            conn.request("GET", "/healthz")
            status = conn.getresponse().status
            conn.close()
        except BaseException:
            self.stop()
            raise
        if status != 200:
            self.stop()
            raise RuntimeError(f"gateway /healthz answered {status}")
        self.launch_s = time.perf_counter() - start

    def _wait_ready(self, path: str, timeout: float = 60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"gateway exited {self.proc.returncode} "
                                   f"before it was ready")
            try:
                with open(path) as fh:
                    text = fh.read()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                host, port = text.split()
                return host, int(port)
            time.sleep(0.001)
        raise RuntimeError("gateway not ready within 60 s")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def counters(self) -> Dict[str, int]:
        """The gateway's OpenMetrics counters, by exposition name."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        out = {}
        for line in text.splitlines():
            name, _, value = line.partition(" ")
            if name.endswith("_total"):
                out[name] = int(float(value))
        return out

    def stop(self) -> int:
        """SIGTERM, wait for the drain; return the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._log.close()
        return code

    def shim_result(self) -> Dict:
        with open(self.shim_out) as fh:
            return json.load(fh)


def setup_samples(ctx: Ctx, shim: bool = False):
    def launch():
        gateway = Gateway(ctx, shim=shim)
        code = gateway.stop()
        if code != 0:
            raise RuntimeError(f"set-up gateway exited {code}")
        return (gateway.launch_s,
                gateway.shim_result()["import_s"] if shim else 0.0)
    return setup_launches(ctx, launch)


def mix_pass(ctx: Ctx, cells: List[Dict], sequence: List[Dict],
             layers: bool = False) -> Dict:
    """Boot a gateway, send the whole sequence, stop it.

    The reference loop runs after every :data:`REF_EVERY` responses;
    each request, and each stretch of the wall, is normalized by the
    samples around the one that follows it."""
    gateway = Gateway(ctx, shim=layers, layers=layers)
    ref = HostRef()
    conn = http.client.HTTPConnection(gateway.host, gateway.port,
                                      timeout=120)
    bodies = [json.dumps(cell) for cell in cells]
    latency = {True: [], False: []}
    stretches = []
    first: Dict[int, Dict] = {}
    failures: List[str] = []
    try:
        ref.sample(LOCAL_WINDOW)
        mark = time.perf_counter()
        for index, request in enumerate(sequence):
            cell, is_first = request["cell"], request["first"]
            sent = time.perf_counter()
            conn.request("POST", "/v1/jobs", bodies[cell], HEADERS)
            response = conn.getresponse()
            data = response.read()
            done = time.perf_counter()
            # Tagged with the sample taken after this request's group.
            latency[is_first].append((done - sent, ref.last + 1))
            failure = _check(response.status, data, cell, is_first, first)
            if failure:
                failures.append(failure)
            if (index + 1) % REF_EVERY == 0 or index + 1 == len(sequence):
                stretches.append((time.perf_counter() - mark, ref.last + 1))
                ref.sample()
                mark = time.perf_counter()
        ref.sample(LOCAL_WINDOW)
        rss = gateway.peak_rss_mb()
        counters = gateway.counters() if layers else {}
    finally:
        conn.close()
        code = gateway.stop()
    if code != 0:
        failures.append(f"gateway exited {code}")
    ctx.ref.extend(ref.samples_ms)

    def normalized(pairs):
        return [(raw, ref.factor_at(at)) for raw, at in pairs]

    wall = normalized(stretches)
    grid_raw = sum(raw for raw, _ in wall)
    out = {"grid_raw_s": grid_raw,
           "factor": sum(raw * f for raw, f in wall) / grid_raw,
           "miss": normalized(latency[True]),
           "hit": normalized(latency[False]),
           "first": first, "failures": failures, "peak_rss_mb": rss,
           "counters": counters}
    if layers:
        out.update(gateway.shim_result())
    return out


def _check(status: int, data: bytes, cell: int, is_first: bool,
           first: Dict[int, Dict]):
    """Record a first response; compare a re-request with it.  Returns a
    failure description, or None."""
    if status != 200:
        return f"cell {cell}: HTTP {status} {data[:200]!r}"
    try:
        body = json.loads(data)
        result, cache = body["result"], body["meta"]["cache"]
    except (ValueError, KeyError, TypeError):
        return f"cell {cell}: malformed response {data[:200]!r}"
    if is_first:
        first[cell] = result
        if cache != "miss":
            return f"cell {cell}: first request answered as {cache!r}"
        return None
    if cache != "hit":
        return f"cell {cell}: re-request answered as {cache!r}"
    if result != first.get(cell):
        return f"cell {cell}: hit differs from the first response"
    return None


def check_outputs(ctx: Ctx, report: Report, cells: List[Dict],
                  passes: List[Dict], profiler=None) -> None:
    """Every served miss must equal an in-process ``run_bar`` of the same
    cell; every pass must serve the same results."""
    from repro.harness.runner import bar_config, run_bar

    for p in passes:
        report.attempted += len(p["miss"]) + len(p["hit"])
        report.fail(len(p["failures"]), "; ".join(p["failures"][:3]))
    served = passes[0]["first"]
    bad = 0
    for index, cell in enumerate(cells):
        if profiler is not None:
            profiler.enable()
        want = asdict(run_bar(cell["benchmark"], cell["machine"],
                              bar_config(cell["label"]),
                              cell["instructions"], cell["warmup"],
                              seed=cell["seed"]))
        if profiler is not None:
            profiler.disable()
        bad += served.get(index) != want
    report.note(f"served misses equal to in-process run_bar: "
                f"{len(cells) - bad}/{len(cells)}")
    report.fail(bad, "served misses differing from in-process run_bar")
    for p in passes[1:]:
        report.fail(sum(1 for k, v in p["first"].items()
                        if served.get(k) != v),
                    "served results differing between passes")
    report.note(f"result digest {result_digest(served.values())[:16]} "
                f"over {len(served)} served cells")


def _inputs(ctx: Ctx):
    from repro.workloads import FIGURE2_BENCHMARKS

    cells = serve_cells(ctx.seed, FIGURE2_BENCHMARKS)
    return cells, serve_sequence(ctx.seed, FIGURE2_BENCHMARKS)


def timed(ctx: Ctx, report: Report, backend=None) -> None:
    cells, sequence = _inputs(ctx)
    setups = setup_samples(ctx)
    passes = measured_passes(ctx, lambda: mix_pass(ctx, cells, sequence))
    check_outputs(ctx, report, cells, passes)
    report_end_to_end(report, setups, passes)


def traced(ctx: Ctx, report: Report, backend=None) -> None:
    import cProfile
    import pstats

    from layers import module_split

    cells, sequence = _inputs(ctx)
    setups = setup_samples(ctx, shim=True)
    plain = mix_pass(ctx, cells, sequence)
    run = mix_pass(ctx, cells, sequence, layers=True)
    profiler = cProfile.Profile()
    check_outputs(ctx, report, cells, [plain, run], profiler)
    main = run["layers"]["buckets"]["main"]
    calls, total, self_ = main["calls"], main["total"], main["self"]
    f = run["factor"]
    attributed = report_layers(report, ctx, setups, plain, run,
                               run["first"].values(),
                               module_split(pstats.Stats(profiler)),
                               self_.get("exec.run", 0.0))

    def seconds(name: str, raw: float) -> float:
        report.host_time(name, "s", raw * f, raw)
        return raw

    submit = run["submit"]
    attributed += sum((
        seconds("exec.probe_s", total.get("exec.probe", 0.0)),
        seconds("serve.request_s", self_.get("serve.dispatch", 0.0)),
        seconds("serve.spec_s", total.get("serve.spec", 0.0)),
        seconds("serve.submit_s", submit["hit_self_s"]),
        seconds("serve.wait_s", submit["wait_s"])))
    counters = run["counters"]

    def counter(name: str) -> int:
        return counters.get(f"repro_serve_{name}_total", 0)

    for name in ("cache_hits", "executed", "coalesced"):
        report.value(f"serve.{name}", "count", counter(name))
    report.value("serve.rejected", "count",
                 sum(v for k, v in counters.items()
                     if k.startswith("repro_serve_rejected_")))
    report.value("exec.failed", "count", counter("failures"))
    report.value("exec.retries", "count",
                 calls.get("exec.execute", 0) - counter("executed"))
    report.value("durable.journal_errors", "count",
                 counter("journal_errors"))
    wall = sum(raw for raw, _ in run["miss"] + run["hit"])
    report_unattributed(report, run, wall, attributed,
                        "of client-measured latency")
