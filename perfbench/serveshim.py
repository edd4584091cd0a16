"""The gateway of a traced serve-mix run.

::

    python3 perfbench/serveshim.py OUT.json [--layers] -- <repro.serve args>

Imports ``repro.serve.cli`` (timing the import), optionally wraps the
layer entry points (``--layers``), then runs ``repro.serve.cli.main``
with the given arguments.  When the gateway has drained and returned,
it writes the import time and the layer totals to ``OUT.json``.

Besides the wrappers every cell crosses, the gateway's own boundaries
are wrapped: ``App.handle_connection`` (one connection, idle time
included), ``App.dispatch`` (one request), ``validate_job_spec`` and
``Gateway.submit``.  ``submit`` also learns how much engine time ran
during it, which splits its self time into hit handling and, for
misses, the wait for a shard: the admission queue plus the thread hop.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _wrap_submit(trace, split) -> None:
    from repro.serve.gateway import Gateway

    inner = Gateway.submit

    async def submit(self, *args, **kwargs):
        stats = trace.stats
        own0 = stats.self_time["serve.submit"]
        engine0 = stats.total["exec.run"]
        try:
            return await inner(self, *args, **kwargs)
        finally:
            own = stats.self_time["serve.submit"] - own0
            engine = stats.total["exec.run"] - engine0
            if engine > 0:
                split["wait_s"] += own - engine
            else:
                split["hit_self_s"] += own

    Gateway.submit = submit


def main(argv) -> int:
    out = argv[0]
    layers = "--layers" in argv[1:argv.index("--")]
    serve_args = argv[argv.index("--") + 1:]
    start = time.perf_counter()
    import repro.serve.cli as cli
    result = {"import_s": time.perf_counter() - start}
    trace = None
    split = {"wait_s": 0.0, "hit_self_s": 0.0}
    if layers:
        from layers import LayerTrace, install_program_layers

        trace = LayerTrace()
        install_program_layers(trace)
        trace.patch_method("repro.serve.app", "App", "handle_connection",
                           "serve.connection")
        trace.patch_method("repro.serve.app", "App", "dispatch",
                           "serve.dispatch")
        trace.patch_function("repro.serve.spec", "validate_job_spec",
                             "serve.spec")
        trace.patch_method("repro.serve.gateway", "Gateway", "submit",
                           "serve.submit")
        _wrap_submit(trace, split)
    try:
        return cli.main(serve_args)
    finally:
        if trace is not None:
            result["layers"] = trace.snapshot()
            result["submit"] = split
        with open(out, "w") as fh:
            json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
