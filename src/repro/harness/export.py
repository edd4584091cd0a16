"""Serialise experiment results to JSON for external analysis.

Every runner result in :mod:`repro.harness.runner` and
:mod:`repro.harness.coherence_exp` can be exported; this is what each
experiment's ``--json PATH`` writes.
"""

from __future__ import annotations

import json
from typing import List

from repro.harness.coherence_exp import Figure4Result, SensitivityPoint
from repro.harness.runner import FigureResult

_BAR_FIELDS = [
    "benchmark", "machine", "label", "cycles", "normalized", "busy",
    "cache_stall", "other_stall", "app_instructions",
    "handler_instructions", "handler_invocations", "l1_miss_rate",
]


def figure_to_dict(result: FigureResult) -> dict:
    return {
        "name": result.name,
        "bars": [
            {field: getattr(bar, field) for field in _BAR_FIELDS}
            for bar in result.bars
        ],
    }


def figure_to_json(result: FigureResult, indent: int = 2) -> str:
    return json.dumps(figure_to_dict(result), indent=indent)


def figure4_to_dict(result: Figure4Result) -> dict:
    return {
        "rows": [
            {
                "workload": row.workload,
                "informing_cycles": row.informing_cycles,
                "reference_checking": row.reference_checking,
                "ecc": row.ecc,
            }
            for row in result.rows
        ],
        "mean_reference_checking": result.mean_reference_checking,
        "mean_ecc": result.mean_ecc,
    }


def figure4_to_json(result: Figure4Result, indent: int = 2) -> str:
    return json.dumps(figure4_to_dict(result), indent=indent)


def sensitivity_to_json(points: List[SensitivityPoint],
                        indent: int = 2) -> str:
    return json.dumps({"points": [
        {
            "message_latency": point.message_latency,
            "l1_size": point.l1_size,
            "reference_checking": point.reference_checking,
            "ecc": point.ecc,
        }
        for point in points
    ]}, indent=indent)


def table1_to_json(indent: int = 2) -> str:
    """The Table 1 machine parameters as structured JSON."""
    from dataclasses import asdict

    from repro.harness.configs import MACHINES

    return json.dumps(
        {key: asdict(spec) for key, spec in MACHINES.items()},
        indent=indent)


def table2_to_json(indent: int = 2) -> str:
    """The Table 2 coherence machine and method costs as JSON."""
    from dataclasses import asdict

    from repro.coherence import METHOD_COSTS, TABLE2_MACHINE

    return json.dumps({
        "machine": asdict(TABLE2_MACHINE),
        "method_costs": {method.name: asdict(costs)
                         for method, costs in METHOD_COSTS.items()},
    }, indent=indent)


def profile_to_dict(profile) -> dict:
    """One :class:`repro.workloads.characterize.WorkloadProfile` as a dict."""
    return {
        "instructions": profile.instructions,
        "mix": dict(sorted(profile.mix.items())),
        "mem_fraction": profile.mem_fraction,
        "store_fraction": profile.store_fraction,
        "branch_fraction": profile.branch_fraction,
        "mean_branch_predictability": profile.mean_branch_predictability,
        "static_insts": len(profile.static_pcs),
        "static_refs": len(profile.static_ref_pcs),
        "footprint_bytes": profile.footprint_bytes,
        "line_reuse": profile.line_reuse,
    }


def profiles_to_json(profiles: dict, indent: int = 2) -> str:
    """``characterize`` results ({name: WorkloadProfile}) as JSON."""
    return json.dumps(
        {name: profile_to_dict(profile)
         for name, profile in profiles.items()},
        indent=indent)
