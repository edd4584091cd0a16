"""Machine configurations: Table 1 of the paper, encoded.

Two machine models:

* ``R10000_SPEC`` — the out-of-order machine ("roughly based on the MIPS
  R10000"): 4-wide, 2 INT / 2 FP / 1 branch / 1 memory unit, 32-entry
  reorder buffer, 32KB 2-way L1 caches, 2MB 2-way L2, 12/75-cycle miss
  latencies.
* ``ALPHA21164_SPEC`` — the in-order machine ("roughly based on the Alpha
  21164"): 4-wide, 2 INT / 2 FP / 1 branch (memory ops use the integer
  pipes), 8KB direct-mapped L1 caches, 2MB 4-way L2, 11/50-cycle miss
  latencies.

Both use 32-byte lines, 8 MSHRs, 2 data-cache banks, 4-cycle fills, one
main-memory access per 20 cycles, and 2-bit-counter branch prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.core.mechanisms import InformingConfig
from repro.memory import CacheConfig, HierarchyConfig, MemoryHierarchy
from repro.pipeline import CoreConfig, LatencyTable


@dataclass(frozen=True)
class MachineSpec:
    """One complete machine model: pipeline + memory + instruction cache."""

    name: str
    core: CoreConfig
    hierarchy: HierarchyConfig
    icache: CacheConfig
    out_of_order: bool


R10000_SPEC = MachineSpec(
    name="out-of-order (R10000-like)",
    core=CoreConfig(
        name="r10000",
        issue_width=4,
        int_units=2,
        fp_units=2,
        branch_units=1,
        mem_units=1,
        rob_size=32,
        shadow_branches=4,
        mispredict_penalty=4,
        latencies=LatencyTable(imul=12, idiv=76, fdiv=15, fsqrt=20,
                               fp_other=2),
    ),
    hierarchy=HierarchyConfig(
        l1=CacheConfig(size=32 * 1024, assoc=2, line_size=32),
        l2=CacheConfig(size=2 * 1024 * 1024, assoc=2, line_size=32),
        l1_hit_latency=2,
        l1_to_l2_latency=12,
        l1_to_mem_latency=75,
        mshr_count=8,
        data_banks=2,
        fill_time=4,
        mem_cycles_per_access=20,
    ),
    icache=CacheConfig(size=32 * 1024, assoc=2, line_size=32),
    out_of_order=True,
)

ALPHA21164_SPEC = MachineSpec(
    name="in-order (21164-like)",
    core=CoreConfig(
        name="alpha21164",
        issue_width=4,
        int_units=2,
        fp_units=2,
        branch_units=1,
        mem_units=0,  # memory ops issue down the integer pipes
        rob_size=32,  # unused by the in-order core
        mispredict_penalty=5,
        latencies=LatencyTable(imul=12, idiv=76, fdiv=17, fsqrt=20,
                               fp_other=4),
    ),
    hierarchy=HierarchyConfig(
        l1=CacheConfig(size=8 * 1024, assoc=1, line_size=32),
        l2=CacheConfig(size=2 * 1024 * 1024, assoc=4, line_size=32),
        l1_hit_latency=2,
        l1_to_l2_latency=11,
        l1_to_mem_latency=50,
        mshr_count=8,
        data_banks=2,
        fill_time=4,
        mem_cycles_per_access=20,
    ),
    icache=CacheConfig(size=8 * 1024, assoc=1, line_size=32),
    out_of_order=False,
)

LAB_SPEC = MachineSpec(
    name="in-order replacement lab (4-way 8KB L1)",
    core=ALPHA21164_SPEC.core,
    hierarchy=replace(
        ALPHA21164_SPEC.hierarchy,
        l1=CacheConfig(size=8 * 1024, assoc=4, line_size=32),
    ),
    icache=ALPHA21164_SPEC.icache,
    out_of_order=False,
)
"""The replacement-ablation machine: the 21164-like core with a 4-way L1.

Neither Table 1 machine can show replacement effects in the primary cache —
the 21164's L1 is direct mapped (no choice to make) and the R10000's is
2-way (tree-PLRU degenerates to true LRU at two ways).  The lab machine
keeps the in-order core and L1 capacity but raises the associativity to 4,
where lru/plru/rrip genuinely diverge.
"""

MACHINES: Dict[str, MachineSpec] = {
    "ooo": R10000_SPEC,
    "inorder": ALPHA21164_SPEC,
    "lab": LAB_SPEC,
}

#: Shadow slots used when branch-like informing traps are active: the paper
#: notes the R10000's shadow state must roughly triple to cover informing
#: memory operations as well as branches (Section 3.2).
INFORMING_SHADOW_SLOTS = 12


def build_hierarchy(spec: MachineSpec, extended_mshr: bool = False,
                    model_icache: bool = True,
                    replacement_policy: Optional[str] = None,
                    replacement_seed: Optional[int] = None) -> MemoryHierarchy:
    """Construct a fresh memory hierarchy for one run.

    *replacement_policy* picks a registry entry
    (:mod:`repro.memory.replacement`); None keeps the spec's default
    (true LRU, the paper's machines).  *replacement_seed* defaults to the
    historical constant so unseeded runs stay digit-exact.
    """
    from repro.memory import DEFAULT_REPLACEMENT_SEED

    return MemoryHierarchy(
        spec.hierarchy,
        icache=spec.icache if model_icache else None,
        extended_mshr_lifetime=extended_mshr,
        replacement_policy=replacement_policy,
        replacement_seed=(DEFAULT_REPLACEMENT_SEED if replacement_seed is None
                          else replacement_seed),
    )


def build_core(
    spec: MachineSpec,
    informing: Optional[InformingConfig] = None,
    extended_mshr: bool = False,
    wrong_path_factory=None,
    shadow_override: Optional[int] = None,
    model_icache: bool = True,
    replacement_policy: Optional[str] = None,
    replacement_seed: Optional[int] = None,
):
    """Construct a fresh core+hierarchy pair for one run.

    When branch-like informing traps are active on the out-of-order machine
    the shadow-slot count is raised to ``INFORMING_SHADOW_SLOTS`` (the extra
    hardware the paper budgets); pass ``shadow_override`` to ablate that.
    """
    from repro.core.mechanisms import Mechanism, TrapStyle
    from repro.inorder import InOrderCore
    from repro.ooo import OutOfOrderCore

    hierarchy = build_hierarchy(spec, extended_mshr, model_icache,
                                replacement_policy=replacement_policy,
                                replacement_seed=replacement_seed)
    core_config = spec.core
    if spec.out_of_order:
        needs_shadow = (
            informing is not None
            and informing.active
            and (informing.mechanism is Mechanism.CONDITION_CODE
                 or informing.trap_style is TrapStyle.BRANCH_LIKE))
        if shadow_override is not None:
            core_config = replace(core_config, shadow_branches=shadow_override)
        elif needs_shadow:
            core_config = replace(core_config,
                                  shadow_branches=INFORMING_SHADOW_SLOTS)
        return OutOfOrderCore(core_config, hierarchy, informing=informing,
                              wrong_path_factory=wrong_path_factory)
    return InOrderCore(core_config, hierarchy, informing=informing)
