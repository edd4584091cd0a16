"""Seeded inputs: the grid's cross-check sample and the serve-mix
request sequence.

Everything here is a pure function of the benchmark seed (and of the
benchmark list the program defines), so the same seed always yields
the same cells and requests.  ``random.Random`` seeded with a string
is stable across processes and Python versions.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

#: The Figure 2 grid as ``figure2 --quick`` runs it.
FIG2_MACHINES = ("ooo", "inorder")
FIG2_LABELS = ("N", "S1", "U1", "S10", "U10")
QUICK_INSTRUCTIONS = 7_500
QUICK_WARMUP = 3_750

#: Served cells: short runs, so a miss costs tens of milliseconds.
SERVE_INSTRUCTIONS = 1_500
SERVE_WARMUP = 300
#: Re-requests of already-served cells, spread between the misses.
#: 3,200 keeps 32 samples beyond the hit p99.
SERVE_HITS = 3_200
#: Popularity skew of the re-requests (zipf exponent over a seeded
#: ranking of the cells).
ZIPF_S = 1.1


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{kind}:{seed}")


def cross_check_cells(seed: int, benchmarks: Sequence[str]) -> List[Dict]:
    """One grid cell per benchmark, re-run on the other backend to check
    that both backends agree at this seed."""
    rng = _rng("cross", seed)
    return [{"benchmark": name, "machine": rng.choice(FIG2_MACHINES),
             "label": rng.choice(FIG2_LABELS)} for name in benchmarks]


def profile_benchmarks(seed: int, benchmarks: Sequence[str],
                       count: int = 4) -> List[str]:
    """The benchmarks whose whole columns the traced run profiles."""
    return sorted(_rng("profile", seed).sample(list(benchmarks), count))


def serve_cells(seed: int, benchmarks: Sequence[str]) -> List[Dict]:
    """Every benchmark x machine x label once, each with a seeded
    workload seed, in seeded order.

    Covering the whole product keeps the cost mix of the misses the same
    at every seed; the seed changes the simulated streams and the order.
    """
    rng = _rng("serve-cells", seed)
    cells = [{"kind": "bar", "benchmark": name, "machine": machine,
              "label": label, "instructions": SERVE_INSTRUCTIONS,
              "warmup": SERVE_WARMUP, "seed": rng.randrange(1 << 20)}
             for name in benchmarks
             for machine in FIG2_MACHINES
             for label in FIG2_LABELS]
    rng.shuffle(cells)
    return cells


def serve_sequence(seed: int, benchmarks: Sequence[str],
                   hits: int = SERVE_HITS) -> List[Dict]:
    """The closed-loop request sequence of one serve-mix pass.

    Each cell is requested once as a miss; after miss *i* come about
    ``hits / cells`` zipf-skewed re-requests of cells already served.
    Returns ``[{"cell": index, "first": bool}]`` in send order; the
    spec of a request is ``serve_cells(seed, benchmarks)[cell]``.
    """
    cells = serve_cells(seed, benchmarks)
    rng = _rng("serve-mix", seed)
    ranking = list(range(len(cells)))
    rng.shuffle(ranking)
    weight = {cell: 1.0 / (rank + 1) ** ZIPF_S
              for rank, cell in enumerate(ranking)}
    sequence: List[Dict] = []
    served: List[int] = []
    served_weights: List[float] = []
    total = len(cells)
    for index in range(total):
        sequence.append({"cell": index, "first": True})
        served.append(index)
        served_weights.append(weight[index])
        burst = (index + 1) * hits // total - index * hits // total
        for cell in rng.choices(served, served_weights, k=burst):
            sequence.append({"cell": cell, "first": False})
    return sequence
