"""ASCII rendering of experiment results, in the paper's format.

Figures 2/3 are stacked bars of normalized execution time split into busy /
cache-stall / other-stall graduation slots; here each bar becomes one row
with the same three numbers plus the normalized height.
"""

from __future__ import annotations

from typing import List

from repro.harness.runner import FigureResult

_MACHINE_TITLES = {"ooo": "out-of-order", "inorder": "in-order"}


def render_figure(result: FigureResult, title: str = "") -> str:
    """Render a FigureResult as an aligned text table."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = (f"{'benchmark':<10} {'machine':<12} {'bar':<5} "
              f"{'norm':>6} {'busy':>6} {'cache':>6} {'other':>6} "
              f"{'insts':>8} {'handlers':>9}")
    lines.append(header)
    lines.append("-" * len(header))
    last_key = None
    for bar in result.bars:
        key = (bar.benchmark, bar.machine)
        if last_key is not None and key != last_key:
            lines.append("")
        last_key = key
        lines.append(
            f"{bar.benchmark:<10} {_MACHINE_TITLES.get(bar.machine, bar.machine):<12} "
            f"{bar.label:<5} {bar.normalized:>6.2f} "
            f"{bar.busy:>6.2f} {bar.cache_stall:>6.2f} {bar.other_stall:>6.2f} "
            f"{bar.instructions:>8d} {bar.handler_invocations:>9d}")
    return "\n".join(lines)


def summarize_claims(result: FigureResult) -> List[str]:
    """Human-readable checks of the paper's headline claims, where testable
    from the given figure."""
    notes: List[str] = []
    by_label = {}
    for bar in result.bars:
        by_label.setdefault((bar.benchmark, bar.machine), {})[bar.label] = bar
    over_40 = [
        f"{bench}/{machine}/{label}"
        for (bench, machine), bars in by_label.items()
        for label, bar in bars.items()
        if label != "N" and bar.normalized > 1.40 and bench != "su2cor"
    ]
    if over_40:
        notes.append("bars above the paper's 40% envelope: "
                     + ", ".join(sorted(over_40)))
    else:
        notes.append("all non-su2cor bars within the paper's 40% envelope")
    return notes
