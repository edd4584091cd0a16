"""Microbenchmarks for the simulator's hot paths.

Unlike the figure/table benches in this directory (one expensive
experiment per test), these isolate the inner loops the profiler blames:
cache probe/fill, the hierarchy's miss and fill path, dynamic-stream
generation (as rows and as ``DynInst`` objects), and the two cores'
cycle loops on each backend.  They exist to
catch hot-path regressions early — run them before and after touching
anything under ``repro.memory``, ``repro.pipeline``, or the cores.

Usage::

    # timed comparison (pytest-benchmark)
    PYTHONPATH=src python -m pytest benchmarks/test_hotpath_micro.py --benchmark-only

    # check-only mode (CI): everything runs once, nothing is timed
    PYTHONPATH=src python -m pytest benchmarks/test_hotpath_micro.py \
        --benchmark-disable -q

A timing means something only against another taken in the same
sitting: ``benchmarks/hotpath_pair.py`` times these scenarios on two
source trees in alternation, which is how the perf-gate CI job gates a
change against its merge base (see DESIGN.md §6).

Each scenario returns a checksum-ish value that is asserted against a
pinned constant, so the check-only mode doubles as a cheap functional
regression test of the optimized paths (the golden-parity suite in
``tests/test_golden_parity.py`` is the authoritative cycle-exactness
check).
"""

import pytest

from repro.harness.runner import bar_config, run_bar
from repro.memory import HierarchyConfig, MemoryHierarchy
from repro.memory.cache import Cache
from repro.memory.config import CacheConfig
from repro.pipeline.stream import SharedStream, StreamStack
from repro.workloads import spec92_workload


# -- scenarios ---------------------------------------------------------------
def cache_probe_hits() -> int:
    """Steady-state L1 hits: the single most executed memory-layer path."""
    cache = Cache(CacheConfig(size=8 * 1024, assoc=4, line_size=32))
    for addr in range(0, 8 * 1024, 32):
        cache.fill(addr)
    hits = 0
    probe = cache.probe
    for _ in range(40):
        for addr in range(0, 8 * 1024, 32):
            hits += probe(addr)
    return hits


def cache_fill_evictions() -> int:
    """Capacity-miss churn: every fill evicts (exercises victim choice)."""
    cache = Cache(CacheConfig(size=4 * 1024, assoc=4, line_size=32))
    evicted = 0
    fill = cache.fill
    for round_no in range(20):
        base = round_no * 64 * 1024
        for addr in range(base, base + 16 * 1024, 32):
            if fill(addr) is not None:
                evicted += 1
    return evicted


def hierarchy_miss_fill() -> int:
    """20k references through ``MemoryHierarchy.access`` that all miss
    the L1: a 24-byte-stride sweep of 48 KB through an 8 KB
    direct-mapped L1, every fourth a store.  Each line's first reference
    allocates an MSHR and its second merges; fills install lines and
    write dirty victims back; the first sweep queues on the memory port
    and retries on a full MSHR file.  Returns the primary misses."""
    hierarchy = MemoryHierarchy(HierarchyConfig(
        l1=CacheConfig(size=8 * 1024, assoc=1, line_size=32),
        l2=CacheConfig(size=64 * 1024, assoc=4, line_size=32)))
    access = hierarchy.access
    cycle = 0
    for index in range(20_000):
        addr = index * 24 % (48 * 1024)
        while access(addr, index % 4 == 0, cycle) is None:
            cycle += 1
        cycle += 2
    hierarchy.drain()
    return hierarchy.stats.l1_misses


def row_generation() -> int:
    """Row generation for 20k instructions, drawn through one
    SharedStream as a vec cell draws them."""
    stream = SharedStream(spec92_workload("compress").rows(20_000))
    stream.grow(20_000)
    return len(stream.insts)


def stream_generation() -> int:
    """Workload generation as ``DynInst`` objects + fetch plumbing for
    20k instructions (the interp cores' path)."""
    workload = spec92_workload("compress")
    stack = StreamStack(workload.stream(20_000))
    fetched = 0
    fetch = stack.fetch
    while True:
        item = fetch()
        if item is None:
            break
        stack.committed(item[1])
        fetched += 1
    return fetched


def inorder_10k() -> int:
    """10k-instruction in-order (21164-like) baseline run.

    Repeated calls reuse the process's shared application stream
    (``runner.shared_stream``), so a best-of-N timing measures the cycle
    loop; ``stream_generation`` times generation and fetch on their own.
    """
    result = run_bar("compress", "inorder", bar_config("N"), 10_000, 0)
    return result.cycles


def ooo_10k() -> int:
    """10k-instruction out-of-order (R10000-like) baseline run (the
    stream is shared as in :func:`inorder_10k`)."""
    result = run_bar("compress", "ooo", bar_config("N"), 10_000, 0)
    return result.cycles


def inorder_10k_vec() -> int:
    """:func:`inorder_10k` on the vec backend's flat replay kernel."""
    result = run_bar("compress", "inorder", bar_config("N"), 10_000, 0,
                     backend="vec")
    return result.cycles


def ooo_10k_vec() -> int:
    """:func:`ooo_10k` on the vec backend's flat replay kernel."""
    result = run_bar("compress", "ooo", bar_config("N"), 10_000, 0,
                     backend="vec")
    return result.cycles


SCENARIOS = {
    "cache_probe_hits": cache_probe_hits,
    "cache_fill_evictions": cache_fill_evictions,
    "hierarchy_miss_fill": hierarchy_miss_fill,
    "row_generation": row_generation,
    "stream_generation": stream_generation,
    "inorder_10k": inorder_10k,
    "ooo_10k": ooo_10k,
    "inorder_10k_vec": inorder_10k_vec,
    "ooo_10k_vec": ooo_10k_vec,
}

#: Functional pins: the optimized paths must keep producing these exact
#: values (simulators and workloads are fully deterministic).
EXPECTED = {
    "cache_probe_hits": 40 * 256,
    "cache_fill_evictions": 20 * 512 - 128,
    "hierarchy_miss_fill": 15_000,
    "row_generation": 20_000,
    "stream_generation": 20_000,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_hotpath(name, benchmark):
    value = benchmark(SCENARIOS[name])
    if name in EXPECTED:
        assert value == EXPECTED[name]
    else:
        assert value > 0  # cycle counts; exactness lives in golden parity
