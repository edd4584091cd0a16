"""Shared builders for core-level tests: small machines and traces."""

from repro.core import GenericHandler, InformingConfig, Mechanism, TrapStyle
from repro.inorder import InOrderCore
from repro.memory import CacheConfig, HierarchyConfig, MemoryHierarchy
from repro.ooo import OutOfOrderCore
from repro.pipeline import CoreConfig, LatencyTable
from repro.pipeline.stream import SharedStream


def small_hierarchy(extended=False, **overrides):
    params = dict(
        l1=CacheConfig(size=512, assoc=2, line_size=32),
        l2=CacheConfig(size=4096, assoc=2, line_size=32),
        l1_hit_latency=2,
        l1_to_l2_latency=12,
        l1_to_mem_latency=75,
        mshr_count=8,
        data_banks=2,
        fill_time=4,
        mem_cycles_per_access=20,
    )
    params.update(overrides)
    return MemoryHierarchy(HierarchyConfig(**params),
                           extended_mshr_lifetime=extended)


def inorder_config(**overrides):
    params = dict(
        name="test-inorder",
        issue_width=4,
        int_units=2,
        fp_units=2,
        branch_units=1,
        mem_units=0,
        mispredict_penalty=5,
        latencies=LatencyTable(fdiv=17, fp_other=4),
    )
    params.update(overrides)
    return CoreConfig(**params)


def ooo_config(**overrides):
    params = dict(
        name="test-ooo",
        issue_width=4,
        int_units=2,
        fp_units=2,
        branch_units=1,
        mem_units=1,
        rob_size=32,
        shadow_branches=4,
        mispredict_penalty=4,
        latencies=LatencyTable(),
    )
    params.update(overrides)
    return CoreConfig(**params)


def make_inorder(informing=None, hierarchy=None, **cfg):
    return InOrderCore(inorder_config(**cfg),
                       hierarchy or small_hierarchy(),
                       informing=informing)


def make_ooo(informing=None, hierarchy=None, wrong_path_factory=None,
             **cfg):
    return OutOfOrderCore(ooo_config(**cfg),
                          hierarchy or small_hierarchy(),
                          informing=informing,
                          wrong_path_factory=wrong_path_factory)


def trap_config(n=1, unique=False, style=TrapStyle.BRANCH_LIKE):
    return InformingConfig(
        mechanism=Mechanism.TRAP,
        trap_style=style,
        handler=GenericHandler(n, unique=unique),
        unique_handlers=unique,
    )


def cc_config(n=1):
    return InformingConfig(
        mechanism=Mechanism.CONDITION_CODE,
        handler=GenericHandler(n, unique=True),
    )


def shared_source(instructions):
    """A shared stream another reader has already grown halfway."""
    stream = SharedStream(iter(instructions))
    stream.grow(len(instructions) // 2)
    return stream


#: Application-frame sources for StreamStack tests: a complete list, a
#: private generator, and a stream shared with other readers.
STREAM_SOURCES = {
    "list": list,
    "iterator": iter,
    "shared": shared_source,
}
