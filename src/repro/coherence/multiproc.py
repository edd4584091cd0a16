"""TangoLite-like multiprocessor timing simulation for the §4.3 study.

Each of the 16 processors is a discrete-event process executing a stream of
:class:`~repro.workloads.parallel.MemRef` events (compute cycles followed by
one memory reference) with barrier synchronisation between phases.  Every
processor has private two-level caches with Table 2 penalties; *shared*
references additionally pass through the selected access-control method,
which charges its Table 2 costs and, when the protection level is
inadequate, drives the directory protocol (message latencies charged to the
requester).

Method semantics:

* **reference checking** — an 18-cycle lookup on every shared reference,
  hit or miss.
* **ECC** — nothing on valid accesses; a read to an INVALID block takes a
  250-cycle fault; a write to a block on a page holding any READONLY data
  takes a 230-cycle fault (page-granularity write protection — including
  *spurious* faults when the written block itself is writable).
* **informing** — a 33-cycle lookup in the miss handler, only on primary
  cache misses (and on writes that need a state upgrade, which the scheme
  catches because upgrades change the line's state).  Invalidated blocks
  are evicted from the victim's caches, so the next access is guaranteed
  to miss and re-check — the Section 3.3 requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.coherence.params import (
    AccessControlMethod,
    CoherenceMachineParams,
    METHOD_COSTS,
    MethodCosts,
)
from repro.coherence.protocol import BlockState, DirectoryProtocol
from repro.memory.cache import Cache
from repro.memory.config import CacheConfig
from repro.sim import Simulator
from repro.workloads.parallel import BARRIER, MemRef


@dataclass
class ProcessorStats:
    """Per-processor cycle and event accounting."""

    compute_cycles: int = 0
    cache_cycles: int = 0
    access_control_cycles: int = 0
    protocol_cycles: int = 0
    references: int = 0
    shared_references: int = 0
    l1_misses: int = 0
    handler_invocations: int = 0
    faults: int = 0
    finish_time: int = 0


@dataclass
class CoherenceResult:
    """Outcome of one method/workload simulation."""

    method: AccessControlMethod
    workload: str
    execution_time: int
    processors: List[ProcessorStats] = field(default_factory=list)
    remote_invalidations: int = 0

    @property
    def total(self) -> ProcessorStats:
        agg = ProcessorStats()
        for proc in self.processors:
            agg.compute_cycles += proc.compute_cycles
            agg.cache_cycles += proc.cache_cycles
            agg.access_control_cycles += proc.access_control_cycles
            agg.protocol_cycles += proc.protocol_cycles
            agg.references += proc.references
            agg.shared_references += proc.shared_references
            agg.l1_misses += proc.l1_misses
            agg.handler_invocations += proc.handler_invocations
            agg.faults += proc.faults
        return agg


class MultiprocessorSim:
    """N processors, private caches, one directory, one access method."""

    def __init__(
        self,
        machine: CoherenceMachineParams,
        method: AccessControlMethod,
        costs: Optional[MethodCosts] = None,
    ) -> None:
        self.machine = machine
        self.method = method
        self.costs = costs if costs is not None else METHOD_COSTS[method]
        self.sim = Simulator()
        self.protocol = DirectoryProtocol(
            machine.processors, machine.message_latency,
            machine.coherence_unit, machine.page_size)
        self.protocol.eviction_hooks.append(self._evict)
        line = machine.coherence_unit
        self._l1 = [Cache(CacheConfig(machine.l1_size, machine.l1_assoc, line))
                    for _ in range(machine.processors)]
        self._l2 = [Cache(CacheConfig(machine.l2_size, machine.l2_assoc, line))
                    for _ in range(machine.processors)]
        self.stats = [ProcessorStats() for _ in range(machine.processors)]

    # -- protocol callback ---------------------------------------------------
    def _evict(self, proc: int, block: int) -> None:
        addr = block * self.machine.coherence_unit
        self._l1[proc].invalidate(addr)
        self._l2[proc].invalidate(addr)

    # -- one memory reference ---------------------------------------------------
    def _access(self, proc: int, ref: MemRef) -> int:
        """Return the cycles this reference costs beyond its compute."""
        stats = self.stats[proc]
        machine = self.machine
        costs = self.costs
        stats.references += 1
        cycles = 1  # the access itself

        l1 = self._l1[proc]
        l1_hit = l1.probe(ref.addr, is_write=ref.is_write)
        if not l1_hit:
            stats.l1_misses += 1
            cycles += machine.l1_miss_penalty
            if not self._l2[proc].probe(ref.addr, is_write=ref.is_write):
                cycles += machine.l2_miss_penalty
                self._l2[proc].fill(ref.addr)
            victim = l1.fill(ref.addr)
            if victim is not None and victim.dirty:
                self._l2[proc].probe(
                    victim.line_addr * machine.coherence_unit, is_write=True)
        stats.cache_cycles += cycles - 1
        stats.compute_cycles += 1

        if not ref.shared:
            return cycles

        stats.shared_references += 1
        protocol = self.protocol
        block = protocol.block_of(ref.addr)
        state = protocol.state(proc, block)
        adequate = (state is BlockState.READWRITE
                    or (not ref.is_write and state is BlockState.READONLY))
        method = self.method

        if method is AccessControlMethod.REFERENCE_CHECKING:
            stats.access_control_cycles += costs.lookup
            cycles += costs.lookup
            if not adequate:
                cycles += self._protocol_action(proc, block, ref.is_write,
                                                stats)
        elif method is AccessControlMethod.INFORMING:
            # The handler runs on a primary miss; writes needing an
            # upgrade are caught because they change the line's state.
            triggered = (not l1_hit) or (ref.is_write and not adequate)
            if triggered:
                stats.handler_invocations += 1
                stats.access_control_cycles += costs.lookup
                cycles += costs.lookup
                if not adequate:
                    cycles += self._protocol_action(proc, block,
                                                    ref.is_write, stats)
        else:  # ECC
            if ref.is_write:
                spurious_page_fault = protocol.page_has_readonly(
                    proc, ref.addr)
                if not adequate or spurious_page_fault:
                    stats.faults += 1
                    stats.access_control_cycles += (
                        costs.write_readonly_page_fault)
                    cycles += costs.write_readonly_page_fault
                    if not adequate:
                        cycles += self._protocol_action(proc, block, True,
                                                        stats)
            else:
                if not adequate:
                    stats.faults += 1
                    stats.access_control_cycles += costs.read_invalid_fault
                    cycles += costs.read_invalid_fault
                    cycles += self._protocol_action(proc, block, False,
                                                    stats)
        return cycles

    def _protocol_action(self, proc: int, block: int, is_write: bool,
                         stats: ProcessorStats) -> int:
        """Upgrade protection; return the cycles charged to the requester."""
        if is_write:
            message_cycles = self.protocol.acquire_write(proc, block)
        else:
            message_cycles = self.protocol.acquire_read(proc, block)
        change = self.costs.state_change
        stats.access_control_cycles += change
        stats.protocol_cycles += message_cycles
        return change + message_cycles

    # -- processes -------------------------------------------------------------
    def _processor(self, proc: int, stream: Iterator, barrier):
        stats = self.stats[proc]
        for event in stream:
            if event is BARRIER:
                yield barrier.wait()
                continue
            cost = event.compute + self._access(proc, event)
            stats.compute_cycles += event.compute
            if cost:
                yield cost
        stats.finish_time = self.sim.now

    def run(self, workload_factory: Callable[[int, int], Iterator],
            name: str = "workload") -> CoherenceResult:
        """Spawn one process per processor and run to completion."""
        nprocs = self.machine.processors
        barrier = self.sim.barrier(nprocs)
        for proc in range(nprocs):
            stream = workload_factory(proc, nprocs)
            self.sim.spawn(self._processor(proc, stream, barrier))
        finish = self.sim.run()
        return CoherenceResult(
            method=self.method,
            workload=name,
            execution_time=finish,
            processors=self.stats,
            remote_invalidations=self.protocol.remote_invalidations,
        )


def run_access_control_experiment(
    workload_factory: Callable[[int, int], Iterator],
    method: AccessControlMethod,
    machine: Optional[CoherenceMachineParams] = None,
    name: str = "workload",
) -> CoherenceResult:
    """Convenience wrapper: fresh simulator, one run."""
    sim = MultiprocessorSim(machine or CoherenceMachineParams(), method)
    return sim.run(workload_factory, name)
