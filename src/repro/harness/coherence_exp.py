"""Runners for the §4.3 coherence experiments (Figure 4 and sensitivity)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.coherence import AccessControlMethod, CoherenceMachineParams
from repro.workloads.parallel import PARALLEL_KERNELS


@dataclass
class Figure4Row:
    """Normalized execution times of the three methods for one application
    (informing = 1.0, the paper's presentation)."""

    workload: str
    informing_cycles: int
    reference_checking: float
    ecc: float


@dataclass
class Figure4Result:
    rows: List[Figure4Row] = field(default_factory=list)

    @property
    def mean_reference_checking(self) -> float:
        return sum(r.reference_checking for r in self.rows) / len(self.rows)

    @property
    def mean_ecc(self) -> float:
        return sum(r.ecc for r in self.rows) / len(self.rows)


def figure4(
    machine: Optional[CoherenceMachineParams] = None,
    workloads: Optional[Sequence[str]] = None,
    engine=None,
) -> Figure4Result:
    """Figure 4: all three access-control methods over the parallel apps.

    The workload × method grid goes through a :class:`repro.exec.JobRunner`
    (*engine*, or a fresh serial cache-less one), like the Figure 2/3 grids.
    """
    from dataclasses import asdict

    from repro.exec import ExecOptions, JobRunner, SimJob

    machine = machine or CoherenceMachineParams()
    names = list(workloads) if workloads else list(PARALLEL_KERNELS)
    if engine is None:
        engine = JobRunner(ExecOptions(jobs=1, cache=False))
    methods = list(AccessControlMethod)
    jobs = [
        SimJob.access_control(workload=name, method=method.name,
                              machine_params=asdict(machine))
        for name in names
        for method in methods
    ]
    rows = engine.run(jobs)
    result = Figure4Result()
    for i, name in enumerate(names):
        times: Dict[AccessControlMethod, int] = {
            method: rows[i * len(methods) + j]["execution_time"]
            for j, method in enumerate(methods)
        }
        informing = times[AccessControlMethod.INFORMING]
        result.rows.append(Figure4Row(
            workload=name,
            informing_cycles=informing,
            reference_checking=(
                times[AccessControlMethod.REFERENCE_CHECKING] / informing),
            ecc=times[AccessControlMethod.ECC] / informing,
        ))
    return result


@dataclass
class SensitivityPoint:
    """Method ratios at one (message_latency, l1_size) machine point."""

    message_latency: int
    l1_size: int
    reference_checking: float
    ecc: float


def sensitivity(
    workloads: Optional[Sequence[str]] = None,
    message_latencies: Sequence[int] = (300, 900, 1800),
    l1_sizes: Sequence[int] = (8 * 1024, 16 * 1024, 64 * 1024),
    engine=None,
) -> List[SensitivityPoint]:
    """§4.3.2's closing observation: smaller network latencies or larger
    primary caches improve informing's *relative* performance.

    Sweeps one axis at a time around the Table 2 baseline and reports the
    mean comparator-to-informing ratios at each point.
    """
    points: List[SensitivityPoint] = []
    base = CoherenceMachineParams()
    for latency in message_latencies:
        machine = replace(base, message_latency=latency)
        fig = figure4(machine, workloads, engine=engine)
        points.append(SensitivityPoint(
            latency, machine.l1_size,
            fig.mean_reference_checking, fig.mean_ecc))
    for l1_size in l1_sizes:
        if l1_size == base.l1_size:
            continue
        machine = replace(base, l1_size=l1_size)
        fig = figure4(machine, workloads, engine=engine)
        points.append(SensitivityPoint(
            machine.message_latency, l1_size,
            fig.mean_reference_checking, fig.mean_ecc))
    return points


def render_figure4(result: Figure4Result) -> str:
    lines = ["Figure 4 — normalized execution time (informing = 1.00)",
             f"{'application':<20} {'informing':>10} {'ref-check':>10} {'ECC':>8}"]
    for row in result.rows:
        lines.append(f"{row.workload:<20} {1.0:>10.2f} "
                     f"{row.reference_checking:>10.2f} {row.ecc:>8.2f}")
    lines.append(f"{'mean':<20} {1.0:>10.2f} "
                 f"{result.mean_reference_checking:>10.2f} "
                 f"{result.mean_ecc:>8.2f}")
    lines.append("(paper: informing 24% faster than reference checking, "
                 "18% faster than ECC on average)")
    return "\n".join(lines)
