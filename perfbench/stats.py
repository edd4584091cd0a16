"""Order statistics with sample counts, and the grid result digest."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, Iterable, List, Mapping, Sequence


def percentile(values: Sequence[float], q: float):
    """Nearest-rank *q*-th percentile of *values* (0 < q <= 100).

    Returns ``(value, beyond)``: *beyond* is how many samples rank above
    the returned one, which says how much data backs a tail percentile.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q!r}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values: Sequence[float], q: float, min_beyond: int) -> Dict:
    """Percentile *q* as ``{"value", "n", "beyond"}``, refusing a sample
    that leaves fewer than *min_beyond* values above it."""
    value, beyond = percentile(values, q)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(values)} samples keeps {beyond} beyond it; "
            f"at least {min_beyond} are needed")
    return {"value": value, "n": len(values), "beyond": beyond}


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median, computed the way
    the acceptance check does (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        raise ValueError("spread of a sample whose median is 0")
    return (q3 - q1) / mid


def canonical_row(row: Mapping) -> str:
    """One result row as canonical JSON; floats keep every digit."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def result_digest(rows: Iterable[Mapping]) -> str:
    """SHA-256 over the canonical rows, independent of row order.

    Two grids have the same digest exactly when they hold the same
    cells with the same value in every field.
    """
    lines: List[str] = sorted(canonical_row(row) for row in rows)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
