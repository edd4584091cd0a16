"""Decode once on both backends: a benchmark's cells share one stream.

Both backends read each cell's application stream from
:func:`repro.harness.runner.shared_stream`: interp as ``DynInst``
objects, vec as row tuples (``each=to_row``).  Sharing is sound only if

* the shared stream is exactly what a fresh generator, plus the
  variant's rewriter (and, for rows, ``to_row``), yields;
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
    clear_streams,
    run_bar,
    shared_stream,
    stream_bound,
)
from repro.isa.opclass import OpClass
from repro.vec.decode import to_row
from repro.workloads import FIGURE2_BENCHMARKS, spec92_workload
from tests.test_golden_parity import (
    COMPARED_FIELDS,
    QUICK_INSTRUCTIONS,
    QUICK_WARMUP,
    _golden_index,
)

MACHINES = ("ooo", "inorder")
LABELS = ("N", "S1", "U1", "S10", "U10")
BACKENDS = ("interp", "vec")

_REWRITERS = {"plain": lambda stream: stream, "mhar": add_mhar_sets,
              "cc": add_cc_checks}


def _shape(inst):
    return (inst.op, inst.dest, inst.srcs, inst.addr, inst.taken, inst.pc,
            inst.informing, inst.handler_code)


def _evict_streams():
    """Any other benchmark's stream replaces the cached ones."""
    shared_stream("ora", 12_345, 1_000)


class TestSharedStream:
    @given(st.sampled_from(FIGURE2_BENCHMARKS), st.integers(0, 1_000),
           st.sampled_from(sorted(_REWRITERS)), st.booleans(),
           st.integers(200, 3_000), st.integers(0, 3_000))
    @settings(max_examples=30, deadline=None)
    def test_yields_what_a_fresh_stream_yields(self, benchmark, seed,
                                               variant, rows, bound,
                                               head_start):
        # Another reader may have grown the plain stream, and for rows the
        # variant's DynInst stream, before this form is first asked for.
        shared_stream(benchmark, seed, bound).grow(head_start)
        if rows:
            shared_stream(benchmark, seed, bound, variant).grow(head_start)
        shared = shared_stream(benchmark, seed, bound, variant,
                               each=to_row if rows else None)
        form = to_row if rows else _shape
        read = (lambda row: row) if rows else _shape
        workload = spec92_workload(benchmark, seed_offset=seed)
        fresh = [form(i) for i in _REWRITERS[variant](workload.stream(bound))]
        assert [read(i) for i in shared] == fresh
        # Read again: the list is kept, not regenerated.
        assert [read(i) for i in shared] == fresh

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


@pytest.mark.parametrize("backend", BACKENDS)
def test_cells_are_order_independent(backend):
    """A benchmark's cells in reverse order, every second one followed by
    another benchmark's cell (which evicts the cached streams), each
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_cells_match_a_serial_run(backend):
    """More threads than cores run one benchmark's cells from a cold
    stream cache, switching often; every result equals the serial one."""
    cells = [(m, label) for m in MACHINES for label in LABELS]

    def run(cell):
        return run_bar("compress", cell[0], bar_config(cell[1]), 2_000, 500,
                       seed=3, backend=backend)

    serial = [run(cell) for cell in cells]
    _evict_streams()
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
    """A vec cell's rows, and the generator they are drawn from, are freed
    by reference counting once a newer decode replaces them."""
    bound = stream_bound(1_000, 0)
    gc.disable()
    try:
        clear_streams()
        rows = shared_stream("compress", 0, bound, "mhar", each=to_row)
        rows.grow(10)
        generator = shared_stream("compress", 0, bound)._source
        refs = [weakref.ref(rows), weakref.ref(generator)]
        del rows, generator
        shared_stream("compress", 1, bound, each=to_row)  # a newer decode
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
        clear_streams()
