"""Bar-cell entry point for the vec backend.

`run_bar_vec` is the vec twin of :func:`repro.harness.runner.run_bar`:
same arguments, same :class:`BarResult`, digit-exact statistics.  The
difference is purely mechanical — the cell reads its stream as rows
(:mod:`repro.isa.rows`), generated and instrumented as rows, from the
per-process stream cache (:func:`repro.harness.runner.shared_stream`
with ``rows=True``), and the flat kernels replay them instead of the
object interpreters.
"""

from __future__ import annotations

from repro.harness.configs import MACHINES, build_core
from repro.harness.runner import (
    BarConfig,
    BarResult,
    shared_stream,
    stream_bound,
)
from repro.vec.inorder import run_inorder_vec
from repro.vec.ooo import run_ooo_vec


def run_bar_vec(
    benchmark: str,
    machine_key: str,
    bar: BarConfig,
    instructions: int,
    warmup: int,
    seed: int = 0,
    policy: str = "lru",
) -> BarResult:
    """Run one benchmark/machine/bar cell on the flat replay kernels.

    *policy* is any registered replacement policy: the kernels' inline
    L1-hit path makes the same recency update ``MemoryHierarchy.access``
    does (the LRU refresh, or the stateful policy's ``on_hit``), and
    everything past a hit runs in the shared hierarchy objects.
    """
    from repro.memory import derive_seed

    spec = MACHINES[machine_key]
    core = build_core(spec, informing=bar.informing,
                      replacement_policy=policy,
                      replacement_seed=derive_seed(seed))
    stream = shared_stream(benchmark, seed, stream_bound(instructions, warmup),
                           bar.per_ref_instrumentation or "plain", rows=True)
    kernel = run_ooo_vec if spec.out_of_order else run_inorder_vec
    stats = kernel(core, stream, max_app_insts=instructions + warmup,
                   warmup_insts=warmup)
    breakdown = stats.breakdown()
    return BarResult(
        benchmark=benchmark,
        machine=machine_key,
        label=bar.label,
        cycles=stats.cycles,
        busy=breakdown["busy"],
        cache_stall=breakdown["cache_stall"],
        other_stall=breakdown["other_stall"],
        app_instructions=stats.app_instructions,
        handler_instructions=stats.handler_instructions,
        handler_invocations=stats.handler_invocations,
        l1_miss_rate=core.hierarchy.stats.l1_miss_rate,
    )
