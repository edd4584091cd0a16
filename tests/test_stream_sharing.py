"""Decode once on both backends: a benchmark's cells share one stream.

The interp backend reads each cell's application stream from
:func:`repro.harness.runner.shared_stream`, the vec backend from
:func:`repro.vec.decode.decoded_stream`.  Sharing is sound only if

* the shared stream is exactly what a fresh generator, plus the
  variant's rewriter, yields;
* a cell's result does not depend on which cells ran before it;
* concurrent cells (the serve gateway's shard threads) grow a shared
  stream without corrupting it or driving one generator twice;
* a stream the cache lets go of is freed at once, not at the next
  full garbage collection.
"""

import gc
import os
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import add_cc_checks, add_mhar_sets
from repro.harness.runner import (
    bar_config,
    run_bar,
    shared_stream,
    stream_bound,
)
from repro.isa.opclass import OpClass
from repro.workloads import FIGURE2_BENCHMARKS, spec92_workload
from tests.test_golden_parity import (
    COMPARED_FIELDS,
    QUICK_INSTRUCTIONS,
    QUICK_WARMUP,
    _golden_index,
)

MACHINES = ("ooo", "inorder")
LABELS = ("N", "S1", "U1", "S10", "U10")

_REWRITERS = {"plain": lambda stream: stream, "mhar": add_mhar_sets,
              "cc": add_cc_checks}


def _shape(inst):
    return (inst.op, inst.dest, inst.srcs, inst.addr, inst.taken, inst.pc,
            inst.informing, inst.handler_code)


def _evict_interp_streams():
    """Any other benchmark's stream replaces the cached one."""
    shared_stream("ora", 12_345, 1_000)


def _backends():
    try:
        import numpy  # noqa: F401
    except ImportError:
        return ["interp"]
    return ["interp", "vec"]


class TestSharedStream:
    @given(st.sampled_from(FIGURE2_BENCHMARKS), st.integers(0, 1_000),
           st.sampled_from(sorted(_REWRITERS)), st.integers(200, 3_000),
           st.integers(0, 3_000))
    @settings(max_examples=30, deadline=None)
    def test_yields_what_a_fresh_stream_yields(self, benchmark, seed,
                                               variant, bound, head_start):
        # Another reader may have grown the plain stream before this
        # variant is first asked for.
        shared_stream(benchmark, seed, bound).grow(head_start)
        shared = shared_stream(benchmark, seed, bound, variant)
        fresh = _REWRITERS[variant](
            spec92_workload(benchmark, seed_offset=seed).stream(bound))
        assert [_shape(i) for i in shared] == [_shape(i) for i in fresh]
        # Read again: the list is kept, not regenerated.
        assert [_shape(i) for i in shared] == [
            _shape(i) for i in _REWRITERS[variant](
                spec92_workload(benchmark, seed_offset=seed).stream(bound))]

    def test_variants_draw_from_one_generated_stream(self):
        plain = shared_stream("compress", 0, 5_000)
        mhar = shared_stream("compress", 0, 5_000, "mhar")
        assert shared_stream("compress", 0, 5_000, "mhar") is mhar
        app = [inst for inst in mhar if inst.op is not OpClass.MHAR_SET]
        assert len(app) == len(plain.insts) == 5_000
        assert all(a is b for a, b in zip(app, plain.insts))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            shared_stream("compress", 0, 5_000, "bogus")

    def test_switching_benchmark_frees_the_streams(self):
        gc.disable()
        try:
            mhar = shared_stream("compress", 7, 5_000, "mhar")
            mhar.grow(100)
            refs = [weakref.ref(mhar),
                    weakref.ref(shared_stream("compress", 7, 5_000))]
            del mhar
            shared_stream("espresso", 7, 5_000)
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


@pytest.mark.parametrize("backend", _backends())
def test_cells_are_order_independent(backend):
    """A benchmark's cells in reverse order, every second one followed by
    another benchmark's cell (which evicts the interp stream), each
    reproduce their golden row."""
    golden = _golden_index()
    compress = [("compress", m, label) for m in MACHINES for label in LABELS]
    ora = iter([("ora", m, label) for m in MACHINES for label in LABELS])
    cells = []
    for index, cell in enumerate(reversed(compress)):
        cells.append(cell)
        if index % 2:
            cells.append(next(ora))
    for benchmark, machine, label in cells:
        result = run_bar(benchmark, machine, bar_config(label),
                         QUICK_INSTRUCTIONS, QUICK_WARMUP, backend=backend)
        row = golden[(benchmark, machine, label)]
        assert {f: getattr(result, f) for f in COMPARED_FIELDS} == {
            f: row[f] for f in COMPARED_FIELDS}, (benchmark, machine, label)


@pytest.mark.parametrize("backend", _backends())
def test_concurrent_cells_match_a_serial_run(backend):
    """More threads than cores run one benchmark's cells from a cold
    stream cache, switching often; every result equals the serial one."""
    cells = [(m, label) for m in MACHINES for label in LABELS]

    def run(cell):
        return run_bar("compress", cell[0], bar_config(cell[1]), 2_000, 500,
                       seed=3, backend=backend)

    serial = [run(cell) for cell in cells]
    if backend == "vec":
        from repro.vec.decode import clear_decode_cache
        clear_decode_cache()
    else:
        _evict_interp_streams()
    threads = max(len(cells), 2 * (os.cpu_count() or 1) + 1)
    results = [None] * threads
    errors = []

    def work(index):
        try:
            results[index] = run(cells[index % len(cells)])
        except Exception as exc:  # reported below, with the cell
            errors.append((cells[index % len(cells)], repr(exc)))

    workers = [threading.Thread(target=work, args=(i,), daemon=True)
               for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        deadline = time.monotonic() + 120
        for worker in workers:
            worker.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers), "timed out"
    assert errors == []
    for index, result in enumerate(results):
        assert result == serial[index % len(cells)], cells[index % len(cells)]


def test_evicted_decode_is_freed_without_gc():
    pytest.importorskip("numpy")
    from repro.vec.decode import clear_decode_cache, decoded_stream

    bound = stream_bound(1_000, 0)
    gc.disable()
    try:
        clear_decode_cache()
        view = decoded_stream("compress", 0, bound, "mhar")
        view.ensure(10)
        ref = weakref.ref(view._workload)
        del view
        for seed in (1, 2, 3):  # three newer decodes fill the LRU
            decoded_stream("compress", seed, bound, "plain")
        assert ref() is None
    finally:
        gc.enable()
        clear_decode_cache()
