"""``python -m repro.serve`` — run the simulation gateway.

::

    python -m repro.serve --port 8123 --shards 4 \
        --manifest-dir results/runs --max-cache-bytes 500M

    curl -s localhost:8123/healthz
    curl -s localhost:8123/metrics
    curl -s -XPOST localhost:8123/v1/jobs -d \
        '{"kind": "bar", "benchmark": "compress", "machine": "ooo",
          "label": "S10"}'

The process runs until SIGTERM/SIGINT, then drains gracefully: the
listener closes, in-flight jobs finish and close their run journals, new
submissions get a structured 503, and the process exits 0.  A second
signal aborts the drain.  ``--port 0`` binds an ephemeral port (printed
on stdout and to ``--ready-file``), which is how the tests and the CI
smoke job boot throwaway instances.

Served misses run on the ``vec`` backend unless ``REPRO_BACKEND``
names another; an unknown name exits 2 at boot, before the port binds.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Optional

from repro.exec.cache import parse_size
from repro.serve.app import App
from repro.serve.gateway import Gateway, ServeOptions


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="simulation-as-a-service gateway over the exec engine")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8123,
                        help="listen port; 0 picks an ephemeral one")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker threads executing jobs (default 2)")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="admission queue depth; beyond it, 503")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default: "
                             "REPRO_CACHE_DIR or ~/.cache/repro-exec)")
    parser.add_argument("--max-cache-bytes", default=None, metavar="SIZE",
                        help="cache size cap (K/M/G suffix ok); evicts "
                             "oldest entries under service traffic")
    parser.add_argument("--manifest-dir", default=None,
                        help="keep each served execution's run journal "
                             "under this root (enables /runs/<id>)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        help="per-job wall-clock limit in seconds")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="service write-ahead journal (repro.durable): "
                             "accepted jobs are journaled before running, "
                             "and a restarted gateway replays the file to "
                             "re-enqueue incomplete ones")
    parser.add_argument("--trace-sample", type=float, default=0.0,
                        metavar="RATE",
                        help="repro.trace sampling rate in [0,1] for "
                             "requests without their own traceparent "
                             "header (default 0 = off); sampled requests "
                             "keep their span tree in their run journal")
    parser.add_argument("--trace-dir", default=None,
                        help="span destination for traced requests that "
                             "reach no run journal (cache hits, "
                             "rejections): the crc-framed "
                             "<dir>/serve_spans-<pid>-<start ms>.jsonl "
                             "(default: --manifest-dir)")
    parser.add_argument("--drain-grace", type=float, default=30.0,
                        help="seconds to wait for in-flight jobs on "
                             "shutdown")
    parser.add_argument("--ready-file", default=None,
                        help="write 'host port' here once listening "
                             "(test/smoke handshake)")
    return parser


def options_from_args(args) -> ServeOptions:
    """The gateway's options from parsed flags; ValueError on a bad one."""
    if not 0.0 <= args.trace_sample <= 1.0:
        raise ValueError("--trace-sample must be in [0, 1]")
    max_bytes: Optional[int] = None
    if args.max_cache_bytes is not None:
        max_bytes = parse_size(args.max_cache_bytes)
    return ServeOptions(
        shards=args.shards,
        queue_limit=args.queue_limit,
        cache_dir=args.cache_dir,
        cache_max_bytes=max_bytes,
        manifest_dir=args.manifest_dir,
        job_timeout=args.job_timeout,
        drain_grace=args.drain_grace,
        journal_path=args.journal,
        trace_sample=args.trace_sample,
        trace_dir=args.trace_dir,
    )


async def serve(gateway: Gateway, host: str, port: int,
                ready_file: Optional[str] = None) -> int:
    """Start the gateway, run until a signal, drain, exit."""
    options = gateway.options
    app = App(gateway)
    bound_host, bound_port = await app.start(host, port)
    print(f"repro.serve listening on http://{bound_host}:{bound_port} "
          f"({options.shards} shard(s), queue {options.queue_limit})",
          flush=True)
    recovery = gateway.recovery
    if recovery["recovered"] or recovery["orphaned"] or recovery["bad_lines"]:
        print(f"repro.serve: journal replay recovered "
              f"{recovery['recovered']} job(s) "
              f"({recovery['already_cached']} already cached), "
              f"{recovery['orphaned']} orphaned, "
              f"{recovery['bad_lines']} unreadable line(s)", flush=True)
    if ready_file:
        with open(ready_file, "w") as fh:
            fh.write(f"{bound_host} {bound_port}\n")

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def _on_signal() -> None:
        if stop.is_set():  # second signal: abort the drain
            raise KeyboardInterrupt
        print("repro.serve: shutdown requested, draining...", flush=True)
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, _on_signal)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread / exotic platform: Ctrl-C still works

    await stop.wait()
    abandoned = await app.shutdown()
    if abandoned:
        print(f"repro.serve: drain deadline hit, {abandoned} job(s) "
              f"abandoned", file=sys.stderr, flush=True)
    print("repro.serve: drained, bye", flush=True)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A bad REPRO_BACKEND (BackendError) fails here, before binding.
        gateway = Gateway(options_from_args(args))
    except ValueError as exc:
        build_parser().error(str(exc))
    try:
        return asyncio.run(serve(gateway, args.host, args.port,
                                 args.ready_file))
    except KeyboardInterrupt:
        print("repro.serve: aborted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
