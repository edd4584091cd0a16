"""Decode-once stream layer: DynInst streams as flat numpy columns.

Generators are seeded and independent of simulation state, so the ten
cells of a benchmark's figure2 column read byte-identical instruction
streams.  The interp backend shares one generated ``DynInst`` list per
benchmark (:func:`repro.harness.runner.shared_stream`); this module
decodes a stream once into flat numpy column arrays and shares the
decoded form across every cell of the same
``(benchmark, seed, length-bound)``:

* the **base** stream is decoded lazily in chunks of
  :data:`CHUNK` instructions (a cell only consumes a few tens of
  thousands of the multi-hundred-thousand-instruction bound);
* the per-reference instrumentation rewrites of
  :mod:`repro.core.instrumentation` (``MHAR_SET`` before /
  ``BLMISS`` after every informing reference) are **array
  transforms**: one ``np.repeat`` over an informing-reference mask
  plus masked stores, instead of a per-instruction Python generator;
* replay kernels walk plain-tuple **rows** (one 13-tuple of ints per
  instruction, ``zip``-transposed from the columns once per chunk) —
  one list index per fetched instruction instead of one per field,
  and no numpy scalar boxing in the replay loop (the arrays are the
  storage/transform layer, the row lists are the replay layer).

Row/column order (everything is an int; ``-1`` encodes "absent"):
``op`` (dense :attr:`OpClass.op_code`), ``fu`` (dense FU code),
``dest``, ``src1``, ``src2``, ``addr``, ``taken`` (-1/0/1), ``pc``,
``line`` (``pc >> 5``, the fetch-line key both cores use), ``inf``
(informing flag), ``hand`` (handler-code flag), ``ovh`` (overhead
classification: handler code, ``MHAR_SET``, ``BLMISS`` or
``PREFETCH`` — the exact commit-classification predicate of both
cores, precomputed), ``cls`` (issue dispatch class: 0 plain ALU-like,
1 memory, 2 branch, 3 blmiss — collapses the op-identity chains the
interp issue loops evaluate per instruction into one precomputed
switch value).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import islice
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.isa.opclass import FU_BRANCH, FU_INT, OpClass
from repro.workloads import spec92_workload

#: Base-stream instructions decoded per refill.
CHUNK = 16384

#: Decoded workloads kept alive across cells (LRU).  Grid runners
#: enumerate cells benchmark-major, so adjacent cells share an entry.
_MAX_CACHED = 3

# Dense op codes the replay kernels and transforms switch on.
OP_IALU = OpClass.IALU.op_code
OP_LOAD = OpClass.LOAD.op_code
OP_STORE = OpClass.STORE.op_code
OP_PREFETCH = OpClass.PREFETCH.op_code
OP_BRANCH = OpClass.BRANCH.op_code
OP_MHAR_SET = OpClass.MHAR_SET.op_code
OP_MHRR_JUMP = OpClass.MHRR_JUMP.op_code
OP_BLMISS = OpClass.BLMISS.op_code

#: fu code per op code (op_code is declaration order).
_FU_BY_OP = np.array([op.fu_code for op in OpClass], dtype=np.int16)
_FU_BY_OP_LIST = _FU_BY_OP.tolist()

#: op codes classified as overhead at commit (plus any handler code).
_OVH_OPS = (OP_MHAR_SET, OP_BLMISS, OP_PREFETCH)

# Issue dispatch classes (the ``cls`` column / row slot 12).
CLS_PLAIN = 0
CLS_MEM = 1
CLS_BRANCH = 2
CLS_BLMISS = 3

#: Column names in storage (and row slot) order.
COLUMNS = ("op", "fu", "dest", "src1", "src2", "addr", "taken", "pc",
           "line", "inf", "hand", "ovh", "cls")

_DTYPES = {
    "op": np.int16, "fu": np.int16, "dest": np.int32, "src1": np.int32,
    "src2": np.int32, "addr": np.int64, "taken": np.int8, "pc": np.int64,
    "line": np.int64, "inf": np.int8, "hand": np.int8, "ovh": np.int8,
    "cls": np.int8,
}


def decode_chunk(insts) -> Optional[Dict[str, np.ndarray]]:
    """Decode an iterable of DynInst into base column arrays.

    Returns None for an empty chunk (stream exhausted).  The derived
    columns (``fu``/``line``/``ovh``) are computed vectorised from the
    base columns.
    """
    op_l: List[int] = []
    dest_l: List[int] = []
    src1_l: List[int] = []
    src2_l: List[int] = []
    addr_l: List[int] = []
    taken_l: List[int] = []
    pc_l: List[int] = []
    inf_l: List[int] = []
    hand_l: List[int] = []
    for inst in insts:
        op_l.append(inst.op.op_code)
        dest = inst.dest
        dest_l.append(-1 if dest is None else dest)
        srcs = inst.srcs
        n_srcs = len(srcs)
        src1_l.append(srcs[0] if n_srcs > 0 else -1)
        src2_l.append(srcs[1] if n_srcs > 1 else -1)
        if n_srcs > 2:
            raise ValueError(
                "vec decode supports at most two source registers per "
                f"instruction, got {n_srcs} at pc {inst.pc:#x}")
        addr = inst.addr
        addr_l.append(-1 if addr is None else addr)
        taken = inst.taken
        taken_l.append(-1 if taken is None else int(taken))
        pc_l.append(inst.pc)
        inf_l.append(1 if inst.informing else 0)
        hand_l.append(1 if inst.handler_code else 0)
    if not op_l:
        return None
    cols = {
        "op": np.array(op_l, dtype=np.int16),
        "dest": np.array(dest_l, dtype=np.int32),
        "src1": np.array(src1_l, dtype=np.int32),
        "src2": np.array(src2_l, dtype=np.int32),
        "addr": np.array(addr_l, dtype=np.int64),
        "taken": np.array(taken_l, dtype=np.int8),
        "pc": np.array(pc_l, dtype=np.int64),
        "inf": np.array(inf_l, dtype=np.int8),
        "hand": np.array(hand_l, dtype=np.int8),
    }
    _derive(cols)
    return cols


def _derive(cols: Dict[str, np.ndarray]) -> None:
    """Fill the fu/line/ovh/cls columns from op/pc/hand."""
    op = cols["op"]
    cols["fu"] = _FU_BY_OP[op]
    cols["line"] = cols["pc"] >> 5
    ovh = cols["hand"].astype(bool)
    for code in _OVH_OPS:
        ovh |= op == code
    cols["ovh"] = ovh.astype(np.int8)
    cls = np.zeros(len(op), dtype=np.int8)
    cls[(op == OP_LOAD) | (op == OP_STORE) | (op == OP_PREFETCH)] = CLS_MEM
    cls[op == OP_BRANCH] = CLS_BRANCH
    cls[op == OP_BLMISS] = CLS_BLMISS
    cols["cls"] = cls


def _rows(cols: Dict[str, np.ndarray]) -> List[tuple]:
    """Transpose a column chunk into per-instruction row tuples."""
    return list(zip(*(cols[name].tolist() for name in COLUMNS)))


def _informing_ref_mask(cols: Dict[str, np.ndarray]) -> np.ndarray:
    """The instrumentation predicate of repro.core.instrumentation."""
    op = cols["op"]
    return ((cols["inf"] != 0) & (cols["hand"] == 0)
            & ((op == OP_LOAD) | (op == OP_STORE)))


def _insert_per_reference(cols: Dict[str, np.ndarray], before: bool,
                          ins_op: int, pc_offset: int) -> Dict[str, np.ndarray]:
    """Duplicate every informing reference's row and overwrite one copy
    with the inserted instrumentation instruction.

    ``before=True`` inserts at the first copy (``MHAR_SET`` precedes its
    reference), ``before=False`` at the second (``BLMISS`` follows it).
    """
    mask = _informing_ref_mask(cols)
    if not mask.any():
        return cols
    reps = mask.astype(np.intp) + 1
    starts = np.cumsum(reps) - reps          # output index of each input row
    ins_pos = starts[mask] + (0 if before else 1)
    ref_pc = cols["pc"][mask]
    out = {name: np.repeat(arr, reps) for name, arr in cols.items()
           if name in ("op", "dest", "src1", "src2", "addr", "taken",
                       "pc", "inf", "hand")}
    out["op"][ins_pos] = ins_op
    out["dest"][ins_pos] = -1
    out["src1"][ins_pos] = -1
    out["src2"][ins_pos] = -1
    out["addr"][ins_pos] = -1
    out["taken"][ins_pos] = -1
    # mhar_set()/the BLMISS DynInst constructor leave ``informing`` at
    # its default (True) and handler_code False; neither is a memory op
    # so only the commit classification (ovh, derived below) sees them.
    out["pc"][ins_pos] = ref_pc + pc_offset
    out["inf"][ins_pos] = 1
    out["hand"][ins_pos] = 0
    _derive(out)
    return out


def add_mhar_sets_flat(cols: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Array form of :func:`repro.core.instrumentation.add_mhar_sets`."""
    return _insert_per_reference(cols, before=True, ins_op=OP_MHAR_SET,
                                 pc_offset=2)


def add_cc_checks_flat(cols: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Array form of :func:`repro.core.instrumentation.add_cc_checks`."""
    return _insert_per_reference(cols, before=False, ins_op=OP_BLMISS,
                                 pc_offset=1)


_VARIANTS = {
    "plain": lambda cols: cols,
    "mhar": add_mhar_sets_flat,
    "cc": add_cc_checks_flat,
}


class StreamView:
    """One instrumentation variant of a decoded stream, as row tuples.

    ``rows`` is a plain Python list of per-instruction tuples in
    :data:`COLUMNS` slot order; ``avail`` is how many instructions are
    currently decoded.  The replay kernels read ``rows`` directly and
    call :meth:`ensure` when the fetch index reaches ``avail``.

    Growth follows the interp stream's lock rule
    (:class:`repro.pipeline.stream.SharedStream`): ``rows`` is append-only
    and grows under the view's lock, which is taken before the
    workload's; readers take no lock.
    """

    __slots__ = ("_workload", "variant", "rows", "avail", "done",
                 "_taken", "_lock")

    def __init__(self, workload: "DecodedWorkload", variant: str) -> None:
        if variant not in _VARIANTS:
            raise ValueError(f"unknown stream variant {variant!r}; "
                             f"expected one of {sorted(_VARIANTS)}")
        self._workload = workload
        self.variant = variant
        self.rows: List[tuple] = []
        self.avail = 0
        self.done = False
        self._taken = 0  # base chunks transformed into rows
        self._lock = threading.Lock()

    def ensure(self, index: int) -> bool:
        """Decode until *index* is readable; False when the stream ends
        first."""
        with self._lock:
            while self.avail <= index and not self.done:
                chunk = self._workload.base_chunk(self._taken)
                if chunk is None:
                    self.done = True
                    break
                self._taken += 1
                self.rows.extend(_rows(_VARIANTS[self.variant](chunk)))
                self.avail = len(self.rows)
        return index < self.avail


class DecodedWorkload:
    """Chunked decode of one workload stream, shared by its variant views.

    The base generator is consumed once, under the workload's lock;
    every variant view transforms the shared base chunks independently,
    so the ten cells of a benchmark's figure2 column (two machines x
    five bars, mixing plain and mhar variants) decode the underlying
    stream a single time.  The workload holds no reference to its
    views, so dropping the cache entry frees it at once.
    """

    def __init__(self, benchmark: str, seed_offset: int, limit: int) -> None:
        self.benchmark = benchmark
        self.seed_offset = seed_offset
        self.limit = limit
        workload = spec92_workload(benchmark, seed_offset=seed_offset)
        self._source = workload.stream(limit)
        self._base_chunks: List[Dict[str, np.ndarray]] = []
        self._exhausted = False
        self._lock = threading.Lock()

    def base_chunk(self, index: int) -> Optional[Dict[str, np.ndarray]]:
        """Base chunk *index*, decoding up to it; None past the end."""
        chunks = self._base_chunks
        with self._lock:
            while index >= len(chunks) and not self._exhausted:
                chunk = decode_chunk(islice(self._source, CHUNK))
                if chunk is None:
                    self._exhausted = True
                else:
                    chunks.append(chunk)
        return chunks[index] if index < len(chunks) else None


#: (benchmark, seed, limit) -> (decode, its views by variant).  The views
#: live beside their workload, not inside it: no reference cycle keeps an
#: evicted decode alive until the next full garbage collection.
_CACHE: "OrderedDict[Tuple[str, int, int], tuple]" = OrderedDict()
_CACHE_LOCK = threading.Lock()


def decoded_stream(benchmark: str, seed_offset: int, limit: int,
                   variant: str) -> StreamView:
    """The shared decoded view for one cell's stream parameters.

    Cached per ``(benchmark, seed_offset, limit)`` with a small LRU so
    a grid's worth of cells reuses one decode per benchmark without
    pinning every benchmark's arrays in memory.
    """
    key = (benchmark, seed_offset, limit)
    with _CACHE_LOCK:
        entry = _CACHE.get(key)
        if entry is None:
            entry = _CACHE[key] = (
                DecodedWorkload(benchmark, seed_offset, limit), {})
            while len(_CACHE) > _MAX_CACHED:
                _CACHE.popitem(last=False)
        else:
            _CACHE.move_to_end(key)
        workload, views = entry
        view = views.get(variant)
        if view is None:
            view = views[variant] = StreamView(workload, variant)
        return view


def clear_decode_cache() -> None:
    """Drop all cached decodes (tests and memory-pressure hook)."""
    with _CACHE_LOCK:
        _CACHE.clear()


class FlatHandlers:
    """Replay-side port of GenericHandler bodies + engine dispatch.

    Produces handler frames as flat column tuples instead of DynInst
    lists, reproducing :class:`repro.core.handlers.GenericHandler`
    exactly: register use, chained/unique first-instruction sources,
    packed unique-handler base allocation in first-miss order, and the
    terminating MHRR jump.  Single handlers (and each unique handler
    after its first invocation) reuse one immutable template, so a
    trap costs a frame push instead of ``n+1`` object constructions.
    """

    def __init__(self, handler) -> None:
        from repro.core.handlers import (
            SINGLE_HANDLER_BASE_PC,
            UNIQUE_HANDLER_REGION,
        )

        self.n = handler.n_instructions
        self.unique = handler.unique
        self.chained = handler.chained
        self.reg = handler.reg
        self._single_base = SINGLE_HANDLER_BASE_PC
        self._unique_region = UNIQUE_HANDLER_REGION
        # Shared with the GenericHandler so base allocation order (and any
        # bases a previous run of the same handler object allocated) stays
        # identical to what handler.instructions() would produce.
        self._bases: Dict[int, int] = handler._bases
        self._frames: Dict[int, List[tuple]] = {}
        self.body_length = self.n + 1  # engine counts the MHRR jump

    def _build(self, base: int) -> List[tuple]:
        n = self.n
        reg = self.reg
        rows = []
        for i in range(n):
            if i == 0:
                src1 = reg if not self.unique else -1
            else:
                src1 = reg if self.chained else -1
            pc = base + 4 * i
            # Body IALUs are informing=False, handler code (ovh=1).
            rows.append((OP_IALU, FU_INT, reg, src1, -1, -1, -1,
                         pc, pc >> 5, 0, 1, 1, CLS_PLAIN))
        pc = base + 4 * n
        # mhrr_jump() leaves the DynInst default informing=True.
        rows.append((OP_MHRR_JUMP, FU_BRANCH, -1, -1, -1, -1, -1,
                     pc, pc >> 5, 1, 1, 1, CLS_PLAIN))
        return rows

    def body(self, ref_pc: int) -> List[tuple]:
        """The flat handler frame for a miss by the reference at
        *ref_pc* (allocating its unique base on first use)."""
        if not self.unique:
            base = self._single_base
        else:
            base = self._bases.get(ref_pc)
            if base is None:
                base = (self._unique_region
                        + len(self._bases) * 4 * (self.n + 1))
                self._bases[ref_pc] = base
        frame = self._frames.get(base)
        if frame is None:
            frame = self._build(base)
            self._frames[base] = frame
        return frame
