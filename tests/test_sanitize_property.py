"""The sanitizer as a property over random machines.

The golden cells run the sanitizer on the two Table 1 machines only: 8
MSHRs, 2 banks, LRU, no extended lifetime.  Here hypothesis draws the
machine from what ``build_core`` accepts (L1 size and ways, MSHR count
and extended lifetime, banks, handler length and trap style, and the
replacement policy) and runs a short SPEC92 cell on both backends, once
with a :class:`~repro.sanitize.invariants.Sanitizer` attached and once
bare.  Every sanitized run must end with no violation, and with the
statistics of the bare run: the checks only read.  A probe sends every
vec reference through ``MemoryHierarchy.access`` and steps every cycle,
so the sanitized vec run also checks the kernels' inline hit path and
idle-cycle skipping against the hierarchy's own miss and fill code.

The out-of-order machine draws no extended MSHR lifetime: with it, that
core can stall forever (younger loads pin every MSHR until they
graduate, while the ROB head waits for one), seen with 1 to 8 MSHRs,
8 being Table 1's count.  The in-order core issues its loads in order,
so its oldest load never waits on a younger one's register.
"""

from dataclasses import asdict, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GenericHandler,
    InformingConfig,
    Mechanism,
    TrapStyle,
    add_mhar_set_rows,
    add_mhar_sets,
)
from repro.harness.configs import MACHINES, build_core
from repro.harness.runner import stream_bound
from repro.memory import CacheConfig, available_policies, derive_seed
from repro.pipeline.stream import SharedStream
from repro.sanitize.invariants import Sanitizer
from repro.vec.runner import replay
from repro.workloads import FIGURE2_BENCHMARKS, spec92_workload

INSTRUCTIONS, WARMUP = 1_500, 300


@st.composite
def cells(draw):
    machine = draw(st.sampled_from(["inorder", "ooo"]))
    spec = MACHINES[machine]
    hierarchy = replace(
        spec.hierarchy,
        l1=CacheConfig(size=draw(st.sampled_from([1, 2, 4, 8, 32])) * 1024,
                       assoc=draw(st.sampled_from([1, 2, 4, 8])),
                       line_size=32),
        mshr_count=draw(st.integers(1, 8)),
        data_banks=draw(st.integers(1, 4)))
    unique = draw(st.booleans())
    informing = InformingConfig(
        mechanism=Mechanism.TRAP,
        trap_style=draw(st.sampled_from(list(TrapStyle))),
        handler=GenericHandler(draw(st.integers(1, 12)), unique=unique),
        unique_handlers=unique)
    return {"machine": machine,
            "spec": replace(spec, hierarchy=hierarchy),
            "informing": informing,
            "extended_mshr": machine == "inorder" and draw(st.booleans()),
            "policy": draw(st.sampled_from(available_policies())),
            "benchmark": draw(st.sampled_from(FIGURE2_BENCHMARKS)),
            "seed": draw(st.integers(0, 20))}


def run_cell(cell, backend, sanitize):
    """GraduationStats, MemStats and MSHR high water of one run."""
    core = build_core(cell["spec"], informing=cell["informing"],
                      extended_mshr=cell["extended_mshr"],
                      replacement_policy=cell["policy"],
                      replacement_seed=derive_seed(cell["seed"]))
    sanitizer = None
    if sanitize:
        sanitizer = Sanitizer(every=32)
        sanitizer.attach(core)
    workload = spec92_workload(cell["benchmark"], seed_offset=cell["seed"])
    bound = stream_bound(INSTRUCTIONS, WARMUP)
    unique = cell["informing"].unique_handlers
    if backend == "vec":
        rows = workload.rows(bound)
        stream = SharedStream(add_mhar_set_rows(rows) if unique else rows)
        stats = replay(core, stream, INSTRUCTIONS, WARMUP)
    else:
        stream = workload.stream(bound)
        stats = core.run(add_mhar_sets(stream) if unique else stream,
                         max_app_insts=INSTRUCTIONS + WARMUP,
                         warmup_insts=WARMUP)
    if sanitizer is not None:
        assert sanitizer.checks_passed > 0
    return (asdict(stats), asdict(core.hierarchy.stats),
            core.hierarchy.mshrs.high_water)


@given(cells())
@settings(max_examples=15, deadline=None)
def test_sanitized_cells_pass_and_match_bare_runs(cell):
    for backend in ("interp", "vec"):
        assert (run_cell(cell, backend, sanitize=True)
                == run_cell(cell, backend, sanitize=False)), backend
