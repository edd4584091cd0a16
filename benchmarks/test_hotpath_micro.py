"""Microbenchmarks for the simulator's hot paths.

Unlike the figure/table benches in this directory (one expensive
experiment per test), these isolate the inner loops the profiler blames:
cache probe/fill, dynamic-stream generation (as rows and as ``DynInst``
objects), hierarchy access, and the two core cycle loops.  They exist to
catch hot-path regressions early — run them before and after touching
anything under ``repro.memory``, ``repro.pipeline``, or the cores.

Usage::

    # timed comparison (pytest-benchmark)
    PYTHONPATH=src python -m pytest benchmarks/test_hotpath_micro.py --benchmark-only

    # check-only mode (CI): everything runs once, nothing is timed
    PYTHONPATH=src python -m pytest benchmarks/test_hotpath_micro.py \
        --benchmark-disable -q

    # refresh the committed timing snapshot
    REPRO_HOTPATH_RECORD=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_hotpath_micro.py --benchmark-disable -q

    # record fresh timings to a separate file (the perf-gate CI job does
    # this, then `python -m repro.harness compare`s it against the
    # committed BENCH_hotpath.json with a noise threshold)
    REPRO_HOTPATH_RECORD=1 REPRO_HOTPATH_RECORD_TO=fresh.json \
        PYTHONPATH=src python -m pytest \
        benchmarks/test_hotpath_micro.py --benchmark-disable -q

Each scenario returns a checksum-ish value that is asserted against a
pinned constant, so the check-only mode doubles as a cheap functional
regression test of the optimized paths (the golden-parity suite in
``tests/test_golden_parity.py`` is the authoritative cycle-exactness
check).
"""

import json
import os
import statistics
import time

import pytest

from repro.harness.runner import bar_config, run_bar
from repro.memory.cache import Cache
from repro.memory.config import CacheConfig
from repro.pipeline.stream import SharedStream, StreamStack
from repro.workloads import spec92_workload

#: Committed timing snapshot (see ``record`` below).
BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_hotpath.json")

RECORD = os.environ.get("REPRO_HOTPATH_RECORD") == "1"

#: Redirect the recorded snapshot (perf-gate: record fresh timings next
#: to, not over, the committed baseline).
RECORD_TO = os.environ.get("REPRO_HOTPATH_RECORD_TO") or BENCH_PATH

#: Timing rule of a record: a sample repeats a scenario until it has run
#: for SAMPLE_SECONDS, and the record is the median over SAMPLES samples
#: of seconds per call.  Millisecond scenarios timed once per sample are
#: bimodal on a loaded host; a few hundred milliseconds of calls are not.
SAMPLE_SECONDS = 0.2
SAMPLES = 5


# -- scenarios ---------------------------------------------------------------
def calibration() -> int:
    """Fixed pure-Python spin: a host-speed yardstick, not a hot path.

    Its timing is recorded alongside the real scenarios so ``harness
    compare``'s bench mode can divide out host/sitting speed differences
    (the committed BENCH_hotpath.json note documents ~30% wall drift
    between sittings on one machine — more across machines).  Comparing
    calibration-normalized ratios turns the perf-gate's committed-vs-
    fresh diff into a same-units comparison instead of a drift lottery.
    """
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i) % 1_000_003
    return acc


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


SCENARIOS = {
    "calibration": calibration,
    "cache_probe_hits": cache_probe_hits,
    "cache_fill_evictions": cache_fill_evictions,
    "row_generation": row_generation,
    "stream_generation": stream_generation,
    "inorder_10k": inorder_10k,
    "ooo_10k": ooo_10k,
}

#: Functional pins: the optimized paths must keep producing these exact
#: values (simulators and workloads are fully deterministic).
EXPECTED = {
    "calibration": 21,
    "cache_probe_hits": 40 * 256,
    "cache_fill_evictions": 20 * 512 - 128,
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


def seconds_per_call(func) -> float:
    """Median over :data:`SAMPLES` samples of *func*'s seconds per call;
    a sample calls it until :data:`SAMPLE_SECONDS` have passed."""
    samples = []
    for _ in range(SAMPLES):
        calls = 0
        start = time.perf_counter()
        while True:
            func()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= SAMPLE_SECONDS:
                break
        samples.append(elapsed / calls)
    return statistics.median(samples)


def test_record_snapshot():
    """Rewrite BENCH_hotpath.json (opt-in via REPRO_HOTPATH_RECORD=1).

    Times each scenario by the :data:`SAMPLES` x :data:`SAMPLE_SECONDS`
    rule (:func:`seconds_per_call`) and merges the numbers
    into the committed snapshot, preserving any other sections (the cold
    figure2 wall-time evidence is maintained by hand — it needs a paired
    baseline measurement on the same machine in the same sitting).
    ``REPRO_HOTPATH_RECORD_TO=PATH`` records to a separate file instead —
    the perf-gate CI job uses that to get fresh timings to ``harness
    compare`` against the committed baseline.  The write is atomic
    (tmp + rename), so an interrupted recording never truncates the
    baseline.
    """
    if not RECORD:
        pytest.skip("set REPRO_HOTPATH_RECORD=1 to rewrite BENCH_hotpath.json")
    from repro.exec import atomic_write_json

    timings = {name: round(seconds_per_call(func), 6)
               for name, func in sorted(SCENARIOS.items())}
    payload = {}
    if os.path.exists(RECORD_TO):
        with open(RECORD_TO) as fh:
            payload = json.load(fh)
    payload["schema"] = 1
    payload["microbenchmarks"] = {
        "unit": f"seconds per call (median of {SAMPLES} samples of "
                f">= {SAMPLE_SECONDS} s)",
        "timings": timings,
    }
    atomic_write_json(RECORD_TO, payload)
