"""Synthetic models of the paper's fourteen SPEC92 benchmarks.

Each model is a :class:`~repro.workloads.synthetic.WorkloadSpec` whose
parameters are chosen to reproduce the benchmark's *role* in the paper's
evaluation (Figures 2 and 3 and the §4.2.2 text), not its absolute IPC:

==========  =====================================================================
benchmark   role in the paper / how the model realises it
==========  =====================================================================
compress    integer code with substantial cache stalls on both machines;
            100-instruction handlers made it ~6x slower → a hot sequential
            core blended with mid-size random working sets that miss both
            L1 geometries.
eqntott     branch-heavy integer code, modest miss rates.
espresso    small working set; misses mostly only in the 8KB direct-mapped L1.
sc          moderate integer benchmark.
xlisp       pointer-chasing integer code (serial loads).
alvinn      very reference-dense FP code whose unique-handler instrumentation
            added >30% instructions but ~1% time on the out-of-order machine
            → streaming pattern with high ILP and few, overlappable misses.
mdljsp2     like alvinn: dense references, tiny working set, few misses.
ear         small-footprint FP code, low miss rate.
ora         almost no cache misses (100-instruction handlers cost only ~2%)
            → tiny working set, divide/sqrt-bound compute.
doduc       moderate FP benchmark with some divides.
hydro2d     strided FP sweeps with regular misses.
swm256      large-array streaming, some secondary-cache misses.
tomcatv     multiple large streams; the highest miss exposure of the
            "normal" benchmarks (in-order overhead >45% at 10 instructions).
su2cor      Figure 3's pathology: severe *conflict* misses in the in-order
            machine's 8KB direct-mapped L1 that the out-of-order machine's
            32KB 2-way L1 does not suffer → ConflictPattern with 8KB spacing.
==========  =====================================================================

The paper simulated these with the standard MIPS compilers at -O2; see
DESIGN.md §2 for why seeded synthetic stand-ins preserve the evaluation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.workloads.patterns import (
    ConflictPattern,
    MixedPattern,
    PointerChasePattern,
    RandomPattern,
    SequentialPattern,
)
from repro.workloads.synthetic import SyntheticWorkload, WorkloadSpec

KB = 1024
MB = 1024 * KB

#: Disjoint data regions per benchmark (purely cosmetic: every run uses a
#: fresh hierarchy, but distinct bases keep traces self-describing).
_REGION = {name: 0x0100_0000 * (i + 1) for i, name in enumerate([
    "compress", "eqntott", "espresso", "sc", "xlisp",
    "alvinn", "mdljsp2", "ear", "ora", "doduc",
    "hydro2d", "swm256", "tomcatv", "su2cor",
])}


def _compress_pattern():
    base = _REGION["compress"]
    return MixedPattern([
        (0.88, SequentialPattern(base, extent=6 * KB)),
        (0.06, RandomPattern(base + MB, working_set=20 * KB, seed=101)),
        (0.06, RandomPattern(base + 2 * MB, working_set=64 * KB, seed=122)),
    ], seed=11)


def _eqntott_pattern():
    base = _REGION["eqntott"]
    return MixedPattern([
        (0.91, RandomPattern(base, working_set=5 * KB, seed=102)),
        (0.05, RandomPattern(base + MB, working_set=20 * KB, seed=103)),
        (0.04, RandomPattern(base + 2 * MB, working_set=48 * KB, seed=123)),
    ], seed=12)


def _espresso_pattern():
    base = _REGION["espresso"]
    return MixedPattern([
        (0.92, RandomPattern(base, working_set=7 * KB, seed=104)),
        (0.08, SequentialPattern(base + MB, extent=48 * KB)),
    ], seed=13)


def _sc_pattern():
    base = _REGION["sc"]
    return MixedPattern([
        (0.90, RandomPattern(base, working_set=6 * KB, seed=105)),
        (0.05, RandomPattern(base + MB, working_set=20 * KB, seed=106)),
        (0.05, RandomPattern(base + 2 * MB, working_set=48 * KB, seed=124)),
    ], seed=14)


def _xlisp_pattern():
    base = _REGION["xlisp"]
    return PointerChasePattern(base, nodes=320, node_size=32, seed=107)


def _alvinn_pattern():
    base = _REGION["alvinn"]
    return MixedPattern([
        (0.93, RandomPattern(base, working_set=5 * KB, seed=108)),
        (0.03, RandomPattern(base + MB, working_set=20 * KB, seed=116)),
        (0.04, RandomPattern(base + 2 * MB, working_set=44 * KB, seed=126)),
    ], seed=15)


def _mdljsp2_pattern():
    base = _REGION["mdljsp2"]
    return MixedPattern([
        (0.94, RandomPattern(base, working_set=5 * KB, seed=109)),
        (0.03, RandomPattern(base + MB, working_set=18 * KB, seed=117)),
        (0.03, RandomPattern(base + 2 * MB, working_set=40 * KB, seed=127)),
    ], seed=16)


def _ear_pattern():
    base = _REGION["ear"]
    return RandomPattern(base, working_set=4 * KB, seed=110)


def _ora_pattern():
    base = _REGION["ora"]
    return RandomPattern(base, working_set=2 * KB, seed=111)


def _doduc_pattern():
    base = _REGION["doduc"]
    return MixedPattern([
        (0.88, RandomPattern(base, working_set=6 * KB, seed=112)),
        (0.06, RandomPattern(base + MB, working_set=20 * KB, seed=113)),
        (0.06, RandomPattern(base + 2 * MB, working_set=40 * KB, seed=125)),
    ], seed=17)


# The FP "streaming" benchmarks are modelled with secondary-cache-resident
# working sets (between the L1 and L2 sizes): their misses hit the L2 at
# 11-12 cycles, the regime where the in-order machine cannot hide a
# 10-instruction handler but the out-of-order machine mostly can — the
# Figure 2 floating-point trend.  A small weight of huge-footprint random
# accesses adds tomcatv/swm256's memory-level misses.


def _hydro2d_pattern():
    base = _REGION["hydro2d"]
    return MixedPattern([
        (0.87, RandomPattern(base, working_set=6 * KB, seed=118)),
        (0.05, RandomPattern(base + MB, working_set=22 * KB, seed=119)),
        (0.08, RandomPattern(base + 2 * MB, working_set=56 * KB, seed=128)),
    ], seed=21)


def _swm256_pattern():
    base = _REGION["swm256"]
    return MixedPattern([
        (0.86, RandomPattern(base, working_set=6 * KB, seed=114)),
        (0.05, RandomPattern(base + MB, working_set=24 * KB, seed=120)),
        (0.07, RandomPattern(base + 2 * MB, working_set=72 * KB, seed=129)),
        (0.02, SequentialPattern(base + 16 * MB, extent=8 * MB, stride=32)),
    ], seed=19)


def _tomcatv_pattern():
    base = _REGION["tomcatv"]
    return MixedPattern([
        (0.76, RandomPattern(base, working_set=6 * KB, seed=115)),
        (0.14, RandomPattern(base + MB, working_set=24 * KB, seed=121)),
        (0.07, RandomPattern(base + 2 * MB, working_set=96 * KB, seed=130)),
        (0.03, SequentialPattern(base + 32 * MB, extent=8 * MB, stride=32)),
    ], seed=20)


def _su2cor_pattern():
    base = _REGION["su2cor"]
    return MixedPattern([
        (0.60, ConflictPattern(base, count=3, spacing=8 * KB, sweep=4)),
        (0.40, SequentialPattern(base + 16 * MB, extent=5 * KB)),
    ], seed=18)


SPEC92: Dict[str, WorkloadSpec] = {
    # ---- SPECint92 (5) ----------------------------------------------------
    "compress": WorkloadSpec(
        name="compress", pattern_factory=_compress_pattern,
        mem_fraction=0.34, store_fraction=0.30, branch_fraction=0.14,
        branch_bias=0.88, dependence_window=5, load_use_fraction=0.6,
        body_length=180, seed=1),
    "eqntott": WorkloadSpec(
        name="eqntott", pattern_factory=_eqntott_pattern,
        mem_fraction=0.24, store_fraction=0.12, branch_fraction=0.22,
        branch_bias=0.86, dependence_window=6, load_use_fraction=0.55,
        body_length=120, seed=2),
    "espresso": WorkloadSpec(
        name="espresso", pattern_factory=_espresso_pattern,
        mem_fraction=0.26, store_fraction=0.15, branch_fraction=0.18,
        branch_bias=0.90, dependence_window=6, load_use_fraction=0.5,
        body_length=220, seed=3),
    "sc": WorkloadSpec(
        name="sc", pattern_factory=_sc_pattern,
        mem_fraction=0.30, store_fraction=0.25, branch_fraction=0.16,
        branch_bias=0.89, dependence_window=6, load_use_fraction=0.5,
        body_length=200, seed=4),
    "xlisp": WorkloadSpec(
        name="xlisp", pattern_factory=_xlisp_pattern,
        mem_fraction=0.30, store_fraction=0.18, branch_fraction=0.17,
        branch_bias=0.88, dependence_window=4, load_use_fraction=0.7,
        body_length=140, seed=5),
    # ---- SPECfp92 (9) -------------------------------------------------------
    "alvinn": WorkloadSpec(
        name="alvinn", pattern_factory=_alvinn_pattern,
        mem_fraction=0.38, store_fraction=0.20, branch_fraction=0.04,
        branch_bias=0.98, fp_fraction=0.65, dependence_window=10,
        load_use_fraction=0.35, body_length=240, seed=6),
    "mdljsp2": WorkloadSpec(
        name="mdljsp2", pattern_factory=_mdljsp2_pattern,
        mem_fraction=0.34, store_fraction=0.22, branch_fraction=0.06,
        branch_bias=0.97, fp_fraction=0.60, fp_heavy_fraction=0.04,
        dependence_window=9, load_use_fraction=0.4, body_length=260, seed=7),
    "ear": WorkloadSpec(
        name="ear", pattern_factory=_ear_pattern,
        mem_fraction=0.26, store_fraction=0.20, branch_fraction=0.07,
        branch_bias=0.97, fp_fraction=0.55, dependence_window=8,
        load_use_fraction=0.4, body_length=200, seed=8),
    "ora": WorkloadSpec(
        name="ora", pattern_factory=_ora_pattern,
        mem_fraction=0.16, store_fraction=0.15, branch_fraction=0.05,
        branch_bias=0.98, fp_fraction=0.70, fp_heavy_fraction=0.25,
        dependence_window=6, load_use_fraction=0.3, body_length=160, seed=9),
    "doduc": WorkloadSpec(
        name="doduc", pattern_factory=_doduc_pattern,
        mem_fraction=0.28, store_fraction=0.22, branch_fraction=0.09,
        branch_bias=0.94, fp_fraction=0.55, fp_heavy_fraction=0.10,
        dependence_window=7, load_use_fraction=0.45, body_length=300, seed=10),
    "hydro2d": WorkloadSpec(
        name="hydro2d", pattern_factory=_hydro2d_pattern,
        mem_fraction=0.33, store_fraction=0.28, branch_fraction=0.06,
        branch_bias=0.97, fp_fraction=0.60, fp_heavy_fraction=0.03,
        dependence_window=9, load_use_fraction=0.45, body_length=240, seed=11),
    "swm256": WorkloadSpec(
        name="swm256", pattern_factory=_swm256_pattern,
        mem_fraction=0.35, store_fraction=0.30, branch_fraction=0.04,
        branch_bias=0.99, fp_fraction=0.60, dependence_window=10,
        load_use_fraction=0.4, body_length=280, seed=12),
    "tomcatv": WorkloadSpec(
        name="tomcatv", pattern_factory=_tomcatv_pattern,
        mem_fraction=0.38, store_fraction=0.28, branch_fraction=0.04,
        branch_bias=0.99, fp_fraction=0.55, dependence_window=9,
        load_use_fraction=0.55, body_length=260, seed=13),
    "su2cor": WorkloadSpec(
        name="su2cor", pattern_factory=_su2cor_pattern,
        mem_fraction=0.40, store_fraction=0.25, branch_fraction=0.05,
        branch_bias=0.98, fp_fraction=0.50, fp_heavy_fraction=0.02,
        dependence_window=8, load_use_fraction=0.5, body_length=220, seed=14),
}

INT_BENCHMARKS: List[str] = ["compress", "eqntott", "espresso", "sc", "xlisp"]
FP_BENCHMARKS: List[str] = ["alvinn", "mdljsp2", "ear", "ora", "doduc",
                            "hydro2d", "swm256", "tomcatv", "su2cor"]

#: Figure 2 shows thirteen benchmarks; su2cor is split out into Figure 3.
FIGURE2_BENCHMARKS: List[str] = INT_BENCHMARKS + [
    name for name in FP_BENCHMARKS if name != "su2cor"]


def spec92_workload(name: str, seed_offset: int = 0) -> SyntheticWorkload:
    """Instantiate the named benchmark model.

    ``seed_offset`` shifts the model's generator seed (template and
    dynamic-stream RNGs) so the same benchmark can be re-rolled from the
    CLI (``--seed``); 0 — the default — leaves the spec untouched, so the
    default seed path is bit-identical to the historical behaviour.
    Per-benchmark seeds stay distinct under any common offset.
    """
    try:
        spec = SPEC92[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {sorted(SPEC92)}"
        ) from None
    if seed_offset:
        spec = replace(spec, seed=spec.seed + seed_offset)
    return SyntheticWorkload(spec)
