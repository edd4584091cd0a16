"""Load benchmark for the repro.serve gateway.

Boots an in-process gateway (real engine, real cache) and drives it
through four phases:

1. **coalesce proof** — two identical concurrent *uncached* requests;
   the gateway must execute once and coalesce once (asserted from
   ``/metrics``).
2. **digit-exact proof** — one served cell compared ``==`` against the
   same SimJob run directly through a JobRunner (no cache): the service
   must be byte-identical to a local run.
3. **cache warm-up** — every catalog cell submitted once, so phase 4
   measures gateway overhead rather than simulation time.
4. **load** — N concurrent clients (default 1000, each its own
   connection) submitting cells drawn from a zipf-skewed popularity
   distribution over the catalog, all warm-cache hits.  Reports wall,
   throughput and p50/p95/p99 latency.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --clients 2000 --record-to BENCH_serve.json

``--record-to`` writes a schema-1 microbenchmarks snapshot understood by
``python -m repro.harness compare`` (the perf-gate CI job compares a
fresh run against the committed ``BENCH_serve.json``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import resource
import shutil
import sys
import tempfile
import threading
import time
from typing import Dict, List

from repro.exec import ExecOptions, JobRunner
from repro.obs.export import parse_openmetrics
from repro.serve.app import App
from repro.serve.client import ServeClient
from repro.serve.gateway import Gateway, ServeOptions
from repro.serve.spec import validate_job_spec

#: Keep individual cells small: the load phase is about the gateway, not
#: the simulator, and the warm-up must run every catalog cell once.
CELL_INSTRUCTIONS = 1500
CELL_WARMUP = 300

BENCHMARKS = ["compress", "espresso", "ora", "su2cor"]
LABELS = ["N", "S10", "U8"]


def build_catalog(size: int) -> List[Dict]:
    """*size* distinct bar cells (benchmark x label x seed)."""
    catalog = []
    seed = 0
    while len(catalog) < size:
        for benchmark in BENCHMARKS:
            for label in LABELS:
                catalog.append({"kind": "bar", "benchmark": benchmark,
                                "machine": "ooo", "label": label,
                                "instructions": CELL_INSTRUCTIONS,
                                "warmup": CELL_WARMUP, "seed": seed})
                if len(catalog) == size:
                    return catalog
        seed += 1
    return catalog


def zipf_picks(catalog: List[Dict], count: int, exponent: float,
               seed: int) -> List[Dict]:
    """*count* catalog draws with zipf-skewed popularity (rank^-s)."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(catalog))]
    return rng.choices(catalog, weights=weights, k=count)


def raise_fd_limit(needed: int) -> None:
    """Best-effort bump of RLIMIT_NOFILE for the connection burst."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= needed:
        return
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE,
                           (min(needed, hard), hard))
    except (ValueError, OSError):
        print(f"warning: could not raise fd limit past {soft}; "
              f"the client burst may hit EMFILE", file=sys.stderr)


class BenchServer:
    """The gateway in a background thread with its own event loop."""

    def __init__(self, options: ServeOptions) -> None:
        self.app = App(Gateway(options))
        self.host = None
        self.port = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.host, self.port = await self.app.start("127.0.0.1", 0)
        self._ready.set()
        await self._stop.wait()
        await self.app.shutdown(grace=30)

    def __enter__(self) -> "BenchServer":
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("gateway failed to boot")
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60)


async def _http_post(host: str, port: int, payload: bytes) -> int:
    """One connection, one POST /v1/jobs, parse the status, close."""
    for attempt in (1, 2, 3):
        try:
            reader, writer = await asyncio.open_connection(host, port)
            break
        except OSError:
            if attempt == 3:
                raise
            await asyncio.sleep(0.05 * attempt)
    try:
        writer.write(b"POST /v1/jobs HTTP/1.1\r\n"
                     b"Host: bench\r\n"
                     b"Content-Type: application/json\r\n"
                     b"Connection: close\r\n"
                     + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                     + payload)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        await reader.read()  # drain headers + body to EOF
        return status
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def client_burst(host: str, port: int, specs: List[Dict]
                       ) -> List[float]:
    """All *specs* as simultaneous clients; per-request latencies."""
    latencies = [0.0] * len(specs)
    statuses = [0] * len(specs)

    async def one(index: int, spec: Dict) -> None:
        payload = json.dumps(spec).encode()
        t0 = time.perf_counter()
        statuses[index] = await _http_post(host, port, payload)
        latencies[index] = time.perf_counter() - t0

    await asyncio.gather(*(one(i, s) for i, s in enumerate(specs)))
    failed = sum(1 for s in statuses if s != 200)
    if failed:
        raise RuntimeError(f"{failed}/{len(specs)} load requests failed "
                           f"(statuses {sorted(set(statuses))})")
    return latencies


def percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def run_bench(args) -> Dict:
    raise_fd_limit(args.clients * 2 + 256)
    catalog = build_catalog(args.catalog)
    options = ServeOptions(shards=args.shards,
                           queue_limit=max(64, args.catalog * 2),
                           cache_dir=args.cache_dir)

    with BenchServer(options) as server:
        client = ServeClient(server.host, server.port, timeout=120)

        # Phase 1: coalesce proof.  Two identical uncached submissions
        # racing; the slower one must join the in-flight run.
        proof_spec = dict(catalog[0], seed=90_000,
                          instructions=20_000, warmup=2_000)
        results = [None, None]

        def submit_proof(slot):
            with ServeClient(server.host, server.port, timeout=120) as c:
                results[slot] = c.submit(proof_spec)

        threads = [threading.Thread(target=submit_proof, args=(i,))
                   for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        _, metrics_text = client.metrics_text()
        counters = parse_openmetrics(metrics_text)["counters"]
        coalesce_ok = (counters.get("serve_executed") == 1
                       and counters.get("serve_coalesced") == 1)
        print(f"coalesce proof: executed={counters.get('serve_executed')} "
              f"coalesced={counters.get('serve_coalesced')} "
              f"-> {'OK' if coalesce_ok else 'FAILED'}")
        if not coalesce_ok:
            raise SystemExit("coalesce proof failed: two identical "
                             "concurrent requests did not share one run")
        assert results[0][1]["result"] == results[1][1]["result"]

        # Phase 2: digit-exact proof against a direct engine run.
        t0 = time.perf_counter()
        status, outcome = client.submit(catalog[0])
        single_miss = time.perf_counter() - t0
        assert status == 200, outcome
        direct = JobRunner(ExecOptions(jobs=1, cache=False)).run(
            [validate_job_spec(catalog[0])])[0]
        exact = outcome["result"] == direct
        print(f"digit-exact proof: served == direct -> "
              f"{'OK' if exact else 'FAILED'}")
        if not exact:
            raise SystemExit("served result differs from a direct run")

        # Phase 3: warm every catalog cell.
        t0 = time.perf_counter()
        for spec in catalog:
            status, _ = client.submit(spec)
            assert status == 200
        warm_wall = time.perf_counter() - t0
        print(f"warm-up: {len(catalog)} cells in {warm_wall:.2f}s")

        # Single warm round trip (best of 5): pure gateway overhead.
        hit_samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            status, _ = client.submit(catalog[0])
            assert status == 200
            hit_samples.append(time.perf_counter() - t0)
        single_hit = min(hit_samples)

        # Phase 4: the concurrent burst, zipf-skewed, all cache hits.
        picks = zipf_picks(catalog, args.clients, args.zipf, args.seed)
        t0 = time.perf_counter()
        latencies = asyncio.run(client_burst(server.host, server.port,
                                             picks))
        burst_wall = time.perf_counter() - t0
        rps = args.clients / burst_wall

        _, metrics_text = client.metrics_text()
        counters = parse_openmetrics(metrics_text)["counters"]
        client.close()

    p50 = percentile(latencies, 0.50)
    p95 = percentile(latencies, 0.95)
    p99 = percentile(latencies, 0.99)
    print(f"load: {args.clients} concurrent clients, "
          f"{len(catalog)}-cell catalog (zipf s={args.zipf})")
    print(f"  wall {burst_wall:.3f}s  ({rps:.0f} req/s)")
    print(f"  latency p50 {p50 * 1000:.1f}ms  p95 {p95 * 1000:.1f}ms  "
          f"p99 {p99 * 1000:.1f}ms")
    print(f"  gateway counters: requests={counters.get('serve_requests')} "
          f"cache_hits={counters.get('serve_cache_hits')} "
          f"executed={counters.get('serve_executed')}")

    return {
        "schema": 1,
        "microbenchmarks": {
            "timings": {
                "serve_single_miss": round(single_miss, 4),
                "serve_single_hit": round(single_hit, 4),
                "serve_burst_wall": round(burst_wall, 4),
                "serve_burst_p50": round(p50, 4),
                "serve_burst_p95": round(p95, 4),
                "serve_burst_p99": round(p99, 4),
            },
            "unit": "seconds (single run; burst over all clients)",
        },
        "load": {
            "clients": args.clients,
            "catalog_cells": len(catalog),
            "zipf_exponent": args.zipf,
            "requests_per_second": round(rps, 1),
            "coalesce_proof": "executed=1 coalesced=1",
            "digit_exact_proof": "served == direct JobRunner run",
            "measured": time.strftime("%Y-%m-%d"),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=1000,
                        help="concurrent clients in the load phase "
                             "(default 1000)")
    parser.add_argument("--catalog", type=int, default=24,
                        help="distinct cells in the popularity catalog")
    parser.add_argument("--zipf", type=float, default=1.1,
                        help="zipf exponent for cell popularity")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: a temp dir, "
                             "removed at exit)")
    parser.add_argument("--record-to", default=None, metavar="PATH",
                        help="write the snapshot JSON here")
    args = parser.parse_args(argv)

    made = None
    if args.cache_dir is None:
        made = args.cache_dir = tempfile.mkdtemp(prefix="bench-serve-cache-")
    try:
        snapshot = run_bench(args)
    finally:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
    if args.record_to:
        with open(args.record_to, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"snapshot written to {args.record_to}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
