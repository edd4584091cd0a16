"""Template-loop synthetic workload generator.

A workload is modelled as a loop *body* of static instruction slots (each
with a fixed pc, op class and rough dependence shape) executed repeatedly
with varying data: memory slots draw addresses from the workload's access
pattern, branch slots draw outcomes from their per-slot bias.  This mirrors
how the instrumentation-relevant properties of a real benchmark arise: a
stable set of static references (what unique handlers and per-reference
profiles key on) with data-dependent dynamic behaviour.

Everything is seeded and deterministic: the same spec yields the same
dynamic instruction stream on every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, List, Tuple

from repro.isa.instructions import DynInst
from repro.isa.opclass import OpClass
from repro.isa.rows import CLS_BY_OP, FU_BY_OP, OVH_BY_OP, from_row
from repro.workloads.patterns import AccessPattern

# Register conventions for generated code (integer file is 1..31):
_INT_WINDOW_BASE = 1     # rotating compute destinations
_MEM_WINDOW_BASE = 16    # rotating load destinations
_MEM_WINDOW_SIZE = 6
_CHASE_REG = 24          # pointer-chase chain register
_FP_WINDOW_BASE = 33     # fp file starts at 32; 32 kept as fp scratch
_FP_WINDOW_SIZE = 8

_KIND_MEM = 0
_KIND_INT = 1
_KIND_FP = 2
_KIND_BRANCH = 3


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs for one synthetic workload.

    Fractions are of the instruction stream (``mem_fraction``,
    ``branch_fraction``) or of their parent category (``store_fraction`` of
    memory ops, ``fp_fraction`` of compute ops, ...).  ``branch_bias`` sets
    per-static-branch outcome bias; a 2-bit predictor's accuracy lands
    close to it.  ``dependence_window`` is the number of rotating compute
    destination registers — small windows serialise the code, large ones
    expose ILP.
    """

    name: str
    pattern_factory: Callable[[], AccessPattern]
    mem_fraction: float = 0.30
    store_fraction: float = 0.25
    branch_fraction: float = 0.12
    branch_bias: float = 0.90
    fp_fraction: float = 0.0
    fp_heavy_fraction: float = 0.0
    imul_fraction: float = 0.02
    idiv_fraction: float = 0.0
    dependence_window: int = 8
    load_use_fraction: float = 0.5
    body_length: int = 200
    base_pc: int = 0x10000
    seed: int = 42

    def __post_init__(self) -> None:
        if not 0.0 <= self.mem_fraction <= 0.8:
            raise ValueError("mem_fraction out of range")
        if self.mem_fraction + self.branch_fraction > 0.95:
            raise ValueError("memory + branch fractions leave no compute")
        if not 0.5 <= self.branch_bias <= 1.0:
            raise ValueError("branch_bias must be in [0.5, 1.0]")
        if not 1 <= self.dependence_window <= 12:
            raise ValueError("dependence_window must be in [1, 12]")
        if self.body_length < 4:
            raise ValueError("body must have at least 4 slots")


class SyntheticWorkload:
    """Instantiates a spec: builds the static body, then streams rows."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self._template = self._build_template()

    # -- template construction ---------------------------------------------
    def _build_template(self) -> List[Tuple]:
        spec = self.spec
        rng = random.Random(spec.seed)
        slots: List[Tuple] = []
        for index in range(spec.body_length - 1):
            roll = rng.random()
            if roll < spec.mem_fraction:
                is_store = rng.random() < spec.store_fraction
                slots.append((_KIND_MEM, is_store))
            elif roll < spec.mem_fraction + spec.branch_fraction:
                taken_prob = (spec.branch_bias if rng.random() < 0.5
                              else 1.0 - spec.branch_bias)
                slots.append((_KIND_BRANCH, taken_prob))
            else:
                if rng.random() < spec.fp_fraction:
                    if rng.random() < spec.fp_heavy_fraction:
                        op = OpClass.FDIV if rng.random() < 0.7 else OpClass.FSQRT
                    else:
                        op = OpClass.FP
                    slots.append((_KIND_FP, op))
                else:
                    roll2 = rng.random()
                    if roll2 < spec.idiv_fraction:
                        op = OpClass.IDIV
                    elif roll2 < spec.idiv_fraction + spec.imul_fraction:
                        op = OpClass.IMUL
                    else:
                        op = OpClass.IALU
                    slots.append((_KIND_INT, op))
        # The loop-closing backward branch: almost always taken.
        slots.append((_KIND_BRANCH, 0.98))
        return slots

    # -- dynamic stream -------------------------------------------------------
    def rows(self, n_instructions: int,
             informing: bool = True) -> Iterator[tuple]:
        """Exactly *n_instructions* dynamic instructions as rows
        (:mod:`repro.isa.rows`), built one template pass at a time."""
        return chain.from_iterable(self._passes(n_instructions, informing))

    def _passes(self, n_instructions: int,
                informing: bool) -> Iterator[List[tuple]]:
        """One list of rows per pass over the loop body; the last is cut
        to *n_instructions* in all."""
        spec = self.spec
        rng = random.Random(spec.seed ^ 0x5EED)
        pattern = spec.pattern_factory()
        pattern.reset()
        serial_chase = pattern.serial
        window = spec.dependence_window
        inf = 1 if informing else 0
        int_next = 0
        mem_next = 0
        fp_next = 0
        last_load_dest = -1
        recent_int: List[int] = []
        emitted = 0

        # Hot-loop bindings: the pass loop runs once per simulated
        # instruction, so attribute and global lookups inside it are paid
        # hundreds of thousands of times per experiment.
        rng_random = rng.random
        getrandbits = rng.getrandbits
        take = pattern.take
        load_use_fraction = spec.load_use_fraction
        # Each slot's constant row fields, resolved once: the template
        # never changes.
        template = []
        for index, (kind, payload) in enumerate(self._template):
            op = (payload if kind == _KIND_INT or kind == _KIND_FP
                  else OpClass.BRANCH if kind == _KIND_BRANCH
                  else OpClass.STORE if payload else OpClass.LOAD)
            code, pc = op.op_code, spec.base_pc + 4 * index
            template.append((kind, payload, code, FU_BY_OP[code], pc,
                             pc >> 5, OVH_BY_OP[code], CLS_BY_OP[code]))
        mem_slots = sum(1 for slot in template if slot[0] == _KIND_MEM)

        while emitted < n_instructions:
            next_address = iter(take(mem_slots)).__next__
            rows: List[tuple] = []
            append = rows.append
            for kind, payload, code, fu, pc, line, ovh, cls in template:
                if kind == _KIND_MEM:
                    addr = next_address()
                    if payload:  # store
                        src = recent_int[-1] if recent_int else _INT_WINDOW_BASE
                        append((code, fu, -1, src, -1, addr, -1, pc, line,
                                inf, 0, ovh, cls))
                    elif serial_chase:
                        append((code, fu, _CHASE_REG, _CHASE_REG, -1, addr,
                                -1, pc, line, inf, 0, ovh, cls))
                        last_load_dest = _CHASE_REG
                    else:
                        dest = _MEM_WINDOW_BASE + mem_next
                        mem_next = (mem_next + 1) % _MEM_WINDOW_SIZE
                        append((code, fu, dest, -1, -1, addr, -1, pc, line,
                                inf, 0, ovh, cls))
                        last_load_dest = dest
                elif kind == _KIND_INT:
                    dest = _INT_WINDOW_BASE + int_next
                    int_next = (int_next + 1) % window
                    if (last_load_dest >= 0
                            and rng_random() < load_use_fraction):
                        src = last_load_dest
                        last_load_dest = -1
                    elif recent_int:
                        # rng.randrange(len(recent_int)), draw for draw: a
                        # getrandbits(k) word, redrawn while out of range.
                        count = len(recent_int)
                        bits = count.bit_length()
                        pick = getrandbits(bits)
                        while pick >= count:
                            pick = getrandbits(bits)
                        src = recent_int[pick]
                    else:
                        src = -1
                    append((code, fu, dest, src, -1, -1, -1, pc, line, 1, 0,
                            ovh, cls))
                    recent_int.append(dest)
                    if len(recent_int) > window:
                        recent_int.pop(0)
                elif kind == _KIND_FP:
                    dest = _FP_WINDOW_BASE + fp_next
                    prev = _FP_WINDOW_BASE + (fp_next - 1) % _FP_WINDOW_SIZE
                    fp_next = (fp_next + 1) % _FP_WINDOW_SIZE
                    src = prev if rng_random() < 0.5 else -1
                    append((code, fu, dest, src, -1, -1, -1, pc, line, 1, 0,
                            ovh, cls))
                else:  # branch
                    taken = 1 if rng_random() < payload else 0
                    src = recent_int[-1] if recent_int else _INT_WINDOW_BASE
                    append((code, fu, -1, src, -1, -1, taken, pc, line, 1, 0,
                            ovh, cls))
            # The last pass is built whole and cut: what it drew past the
            # end is never seen.
            del rows[n_instructions - emitted:]
            emitted += len(rows)
            yield rows

    def stream(self, n_instructions: int,
               informing: bool = True) -> Iterator[DynInst]:
        """Yield exactly *n_instructions* dynamic instructions: the
        :meth:`rows`, read back as ``DynInst`` objects."""
        return map(from_row, self.rows(n_instructions, informing))
