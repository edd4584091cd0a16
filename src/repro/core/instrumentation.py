"""Stream rewriters for the explicit per-reference instructions.

Two of the paper's usage modes add one instruction per informing reference
to the instruction stream even when every reference hits:

* the **condition-code scheme** compiles a ``BLMISS`` (branch-and-link on
  the cache-outcome condition code) *after* each reference (Section 2.1);
* **unique trap handlers** require an ``MHAR_SET`` *before* each reference
  to point the MHAR at that reference's handler (Section 2.2).

Both rewriters are lazy generators so multi-hundred-thousand-instruction
traces never materialise.  Each has a row twin (:mod:`repro.isa.rows`)
for the generated streams, which rewrites a chunk of rows per step; the
``DynInst`` pair serves interp's instrumented streams and hand-built
traces.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Iterator, List

from repro.isa.instructions import DynInst, mhar_set
from repro.isa.opclass import OpClass
from repro.isa.rows import OP_LOAD, OP_STORE, to_row


def add_cc_checks(stream: Iterable[DynInst]) -> Iterator[DynInst]:
    """Insert a BLMISS after every informing load/store.

    The check instruction is data-dependent on the preceding reference's
    hit/miss outcome; the cores resolve that dependence when the access
    executes.  Its pc is derived from the reference's pc so each static
    reference has a distinct check (and therefore a distinct handler
    target, which is the condition-code scheme's strength).
    """
    # Locals bound outside the loop: these rewriters sit between the
    # workload generator and the core's fetch path, so their per-
    # instruction overhead multiplies the whole stream.
    dyninst = DynInst
    op_blmiss = OpClass.BLMISS
    op_load = OpClass.LOAD
    op_store = OpClass.STORE
    for inst in stream:
        yield inst
        if (inst.informing and not inst.handler_code
                and (inst.op is op_load or inst.op is op_store)):
            yield dyninst(op_blmiss, pc=inst.pc + 1)


def add_mhar_sets(stream: Iterable[DynInst]) -> Iterator[DynInst]:
    """Insert an MHAR_SET before every informing load/store.

    Models pointing the MHAR at a per-reference handler.  The set
    instruction is an ordinary single-cycle integer op with no register
    dependences (the target address is pc-relative, footnote 2 of the
    paper), so out-of-order cores can overlap it freely — the effect the
    paper highlights for alvinn and mdljsp2.
    """
    op_load = OpClass.LOAD
    op_store = OpClass.STORE
    for inst in stream:
        if (inst.informing and not inst.handler_code
                and (inst.op is op_load or inst.op is op_store)):
            yield mhar_set(pc=inst.pc + 2)
        yield inst


#: Rows read from the source per rewriting step.
_CHUNK = 64


def _add_rows(rows: Iterable[tuple], inst: DynInst, offset: int,
              before: bool) -> Iterator[tuple]:
    """Insert *inst*'s row, at the reference's pc + *offset*, before or
    after every informing load/store row."""
    return chain.from_iterable(_rewrite_chunks(iter(rows), to_row(inst),
                                               offset, before))


def _rewrite_chunks(rows: Iterator[tuple], inst_row: tuple, offset: int,
                    before: bool) -> Iterator[List[tuple]]:
    head, tail = inst_row[:7], inst_row[9:]
    op_load, op_store = OP_LOAD, OP_STORE
    while True:
        chunk = list(islice(rows, _CHUNK))
        if not chunk:
            return
        out: List[tuple] = []
        append = out.append
        for row in chunk:
            op = row[0]
            if (op == op_load or op == op_store) and row[9] and not row[10]:
                pc = row[7] + offset
                added = head + (pc, pc >> 5) + tail
                if before:
                    append(added)
                    append(row)
                else:
                    append(row)
                    append(added)
            else:
                append(row)
        yield out


def add_cc_check_rows(rows: Iterable[tuple]) -> Iterator[tuple]:
    """:func:`add_cc_checks` over rows."""
    return _add_rows(rows, DynInst(OpClass.BLMISS), 1, before=False)


def add_mhar_set_rows(rows: Iterable[tuple]) -> Iterator[tuple]:
    """:func:`add_mhar_sets` over rows."""
    return _add_rows(rows, mhar_set(), 2, before=True)
