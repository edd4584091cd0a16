"""What the workloads share: the run context, child processes, reporting."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from hostref import HostRef
from report import MODULE_METRICS
from stats import median, tail

#: Timed set-up launches per run; one more, untimed, goes first so a
#: fresh checkout's bytecode compilation never lands in a sample.
SETUP_LAUNCHES = 7


@dataclass
class Ctx:
    root: str
    work: str
    seed: int
    seconds: float
    ref: HostRef = field(default_factory=HostRef)
    _dirs: int = 0

    def fresh_dir(self, tag: str) -> str:
        """A new private directory under this run's work directory."""
        self._dirs += 1
        path = os.path.join(self.work, f"{tag}-{self._dirs}")
        os.makedirs(path)
        return path

    def env(self, backend: Optional[str] = None) -> Dict[str, str]:
        """Environment for a program process: no inherited ``REPRO_*``
        setting, the source tree on the path, and *backend* if given."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        if backend:
            env["REPRO_BACKEND"] = backend
        return env


def run_child(ctx: Ctx, argv: List[str], env: Dict[str, str],
              timeout: float = 170.0) -> None:
    """Run one helper script of this directory to completion."""
    proc = subprocess.run([sys.executable] + argv, cwd=ctx.root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(argv[0])} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")


def timed_launch(ctx: Ctx, argv: List[str], env: Dict[str, str]):
    """Start a set-up-only process; return (seconds until it printed
    ``READY``, the import seconds it reported)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + argv, cwd=ctx.root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.startswith("READY "):
        raise RuntimeError(f"set-up launch failed ({proc.returncode}): "
                           f"{line!r} {err[-2000:]}")
    return elapsed, float(line.split()[1])


def report_median(report, name: str, unit: str, samples) -> None:
    """Median of ``(raw, factor)`` samples, normalized and raw."""
    samples = list(samples)
    report.host_time(name, unit, median([r * f for r, f in samples]),
                     median([r for r, _ in samples]), len(samples))


def report_tail(report, name: str, unit: str, samples, q: float,
                min_beyond: int) -> None:
    """Percentile *q* of ``(raw, factor)`` samples, normalized and raw."""
    samples = list(samples)
    norm = tail([r * f for r, f in samples], q, min_beyond)
    raw = tail([r for r, _ in samples], q, min_beyond)
    report.host_time(name, unit, norm["value"], raw["value"], norm["n"],
                     norm["beyond"])


def setup_launches(ctx: Ctx, launch):
    """Time :data:`SETUP_LAUNCHES` cold launches (after one untimed one).

    *launch* starts one and returns ``(seconds, import seconds)``.  The
    reference loop runs between launches; returns ``[(seconds, import
    seconds, factor)]`` with each launch's factor taken around it.
    """
    ref = HostRef()
    timed = []
    for index in range(SETUP_LAUNCHES + 1):
        ref.sample(2)
        seconds, import_s = launch()
        if index:
            timed.append((seconds, import_s, ref.last))
    ref.sample(2)
    ctx.ref.extend(ref.samples_ms)
    return [(s, i, ref.factor_at(at)) for s, i, at in timed]


def measured_passes(ctx: Ctx, one_pass) -> List[Dict]:
    """Run *one_pass* until ``ctx.seconds`` of measuring have passed
    (at least once); return the passes' results."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < ctx.seconds:
        passes.append(one_pass())
    return passes


def report_end_to_end(report, setups, passes: List[Dict]) -> None:
    """The end-to-end metrics, from set-up launches and measured passes
    (each with ``grid_raw_s``, ``factor``, ``hit``, ``miss`` and
    ``peak_rss_mb``)."""
    report_median(report, "setup_s", "s", ((s, f) for s, _, f in setups))
    report_median(report, "grid_s", "s",
                  ((p["grid_raw_s"], p["factor"]) for p in passes))
    hits = [(s * 1e3, f) for p in passes for s, f in p["hit"]]
    misses = [(s * 1e3, f) for p in passes for s, f in p["miss"]]
    report_tail(report, "hit_p50_ms", "ms", hits, 50, 0)
    report_tail(report, "hit_p99_ms", "ms", hits, 99, 30)
    report_tail(report, "miss_p50_ms", "ms", misses, 50, 0)
    report_tail(report, "miss_p90_ms", "ms", misses, 90, 10)
    report.value("peak_rss_mb", "MB",
                 median([p["peak_rss_mb"] for p in passes]), len(passes))


def report_layers(report, ctx: Ctx, setups, plain: Dict, run: Dict,
                  rows, split: Dict[str, float], engine_s: float) -> float:
    """The per-layer metrics every workload reports alike.

    *run* is the traced pass and *plain* the untraced one; *split* is
    the cProfile self time per program layer, which divides the cells'
    execution time; *engine_s* is ``JobRunner.run`` self time.  Returns
    the seconds of the traced pass these layers account for.
    """
    layers = run["layers"]
    if layers["missing"]:
        report.note("entry points not found: "
                    + ", ".join(layers["missing"]))
    main = layers["buckets"]["main"]
    calls, total = main["calls"], main["total"]
    f = run["factor"]
    for name in sorted(total):
        report.note(f"wrapped {name}: {calls[name]} calls, total "
                    f"{total[name]:.4f} s, self {main['self'][name]:.4f} s "
                    f"(raw)")

    def seconds(name: str, raw: float) -> None:
        report.host_time(name, "s", raw * f, raw)

    execute = total.get("exec.execute", 0.0)
    in_cell = sum(split.values())

    def share(layer: str) -> float:
        return split.get(layer, 0.0) / in_cell if in_cell else 0.0

    for layer in MODULE_METRICS:
        seconds(f"{layer}.self_s", share(layer) * execute)
    for metric, layer in (("workloads.generated", "workloads.generated"),
                          ("memory.access_calls", "memory.access"),
                          ("memory.ifetch_calls", "memory.ifetch"),
                          ("exec.cells", "exec.execute"),
                          ("durable.records", "durable.append"),
                          ("perf.manifests", "perf.manifest")):
        report.value(metric, "count", calls.get(layer, 0))
    seconds("exec.execute_s", execute)
    seconds("exec.engine_s", engine_s)
    stores = {"exec.store_s": "exec.store",
              "durable.append_s": "durable.append",
              "perf.manifest_s": "perf.manifest"}
    for metric, layer in stores.items():
        seconds(metric, total.get(layer, 0.0))
    cells = [(s * 1e3, f) for s in main["samples"].get("exec.execute", [])]
    report_tail(report, "exec.cell_p50_ms", "ms", cells, 50, 0)
    report_tail(report, "exec.cell_p90_ms", "ms", cells, 90, 10)
    report_median(report, "setup.import_s", "s",
                  ((i, f) for _, i, f in setups))
    report_median(report, "setup.boot_s", "s",
                  ((s - i, f) for s, i, f in setups))
    report.value("sim.insts", "count",
                 sum(r["app_instructions"] + r["handler_instructions"]
                     for r in rows))
    report.value("sim.cycles", "count", sum(r["cycles"] for r in rows))
    report.value("bench.host_ref_ms", "ms", ctx.ref.median_ms(),
                 len(ctx.ref.samples_ms))
    report.value("bench.trace_overhead", "ratio",
                 run["grid_raw_s"] * f
                 / (plain["grid_raw_s"] * plain["factor"]) - 1.0)
    named = sum(share(layer) for layer in MODULE_METRICS
                + ("vec.decode", "vec.replay"))
    return (named * execute + engine_s
            + sum(total.get(layer, 0.0) for layer in stores.values()))


def report_unattributed(report, run: Dict, wall: float,
                        attributed: float, what: str) -> None:
    """``bench.unattributed_s``: the part of *wall* no layer covers."""
    f = run["factor"]
    report.host_time("bench.unattributed_s", "s", (wall - attributed) * f,
                     wall - attributed)
    report.note(f"unattributed share {(wall - attributed) / wall:.2%} of "
                f"{wall * f:.3f} s {what}")
