"""Metric names, units and the result line the benchmark prints."""

from __future__ import annotations

import json
from typing import Dict, List, Optional

#: End-to-end metrics (``--trace 0``), all lower-is-better.
END_TO_END = (
    ("setup_s", "s"),
    ("grid_s", "s"),
    ("hit_p50_ms", "ms"),
    ("hit_p99_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics (``--trace 1``).  Layers a workload does not cross
#: report 0.
PER_LAYER = (
    ("ooo.self_s", "s"),
    ("inorder.self_s", "s"),
    ("pipeline.self_s", "s"),
    ("isa.self_s", "s"),
    ("workloads.self_s", "s"),
    ("core.self_s", "s"),
    ("workloads.generated", "count"),
    ("vec.decode_s", "s"),
    ("vec.replay_s", "s"),
    ("vec.decode_reuse", "ratio"),
    ("vec.fallback_cells", "count"),
    ("memory.self_s", "s"),
    ("memory.access_calls", "count"),
    ("memory.ifetch_calls", "count"),
    ("exec.cells", "count"),
    ("exec.execute_s", "s"),
    ("exec.engine_s", "s"),
    ("exec.cell_p50_ms", "ms"),
    ("exec.cell_p90_ms", "ms"),
    ("exec.store_s", "s"),
    ("exec.probe_s", "s"),
    ("exec.failed", "count"),
    ("exec.retries", "count"),
    ("durable.records", "count"),
    ("durable.append_s", "s"),
    ("durable.journal_errors", "count"),
    ("perf.manifests", "count"),
    ("perf.manifest_s", "s"),
    ("serve.request_s", "s"),
    ("serve.spec_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.wait_s", "s"),
    ("serve.cache_hits", "count"),
    ("serve.executed", "count"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("setup.import_s", "s"),
    ("setup.boot_s", "s"),
    ("sim.insts", "count"),
    ("sim.cycles", "count"),
    ("bench.host_ref_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.unattributed_s", "s"),
)

#: In-cell program layers whose self time the traced run splits out of
#: the cells' execution time by one cProfile pass.
MODULE_METRICS = ("ooo", "inorder", "pipeline", "isa", "workloads",
                  "core", "memory")


class Report:
    """Collects one run's metrics and output-check outcomes."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.metrics: Dict[str, Dict] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0

    def host_time(self, name: str, unit: str, value: float, raw: float,
                  n: Optional[int] = None,
                  beyond: Optional[int] = None) -> None:
        """A host time at nominal host speed, with the raw time beside."""
        self.metrics[name] = {"value": value, "unit": unit, "raw": raw,
                              "n": n, "beyond": beyond}

    def value(self, name: str, unit: str, value: float,
              n: Optional[int] = None) -> None:
        """A count, ratio or size: reported as measured."""
        self.metrics[name] = {"value": value, "unit": unit, "raw": None,
                              "n": n, "beyond": None}

    def note(self, text: str) -> None:
        self.notes.append(text)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.note(f"FAILED {count}: {why}")

    def lines(self, names) -> List[str]:
        out = [f"# perfbench {self.workload} seed={self.seed}"]
        out += [f"# {text}" for text in self.notes]
        for name, unit in names:
            m = self.metrics[name]
            text = f"{name:24s} {m['value']:>14.6g} {unit}"
            if m["raw"] is not None:
                text += f"  (raw {m['raw']:.6g} {unit})"
            if m["n"] is not None:
                text += f"  n={m['n']}"
            if m["beyond"] is not None:
                text += f" beyond={m['beyond']}"
            out.append(text)
        ratio = self.failed / self.attempted if self.attempted else 1.0
        out.append(f"{'fail_ratio':24s} {ratio:>14.6g}  "
                   f"({self.failed}/{self.attempted})")
        return out

    def result_line(self, names) -> str:
        metrics = {name: {"value": self.metrics[name]["value"],
                          "unit": unit} for name, unit in names}
        return json.dumps({"correct": self.failed == 0,
                           "attempted": self.attempted,
                           "failed": self.failed, "metrics": metrics})
