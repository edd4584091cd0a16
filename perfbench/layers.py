"""Benchmark-owned layer tracing for the traced runs.

:class:`LayerTrace` wraps the public entry points of the program's
layers from the outside: no file of the program changes.  Each timed
wrapper records calls, total (inclusive) time and self time, which is
the total minus the time spent in wrapped calls it made on the same
thread.  Counting wrappers only count calls; they sit on boundaries
crossed about 10^5 times per cell, where timing would distort the run.

The nesting is kept per thread, which is exact for synchronous code and
for coroutines as long as one request is in flight at a time, which is
how every workload of this benchmark runs.

:func:`module_split` turns one cProfile pass into self time per program
module, for the layers below the cell boundary.
"""

from __future__ import annotations

import functools
import inspect
import pstats
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional


class LayerStats:
    """Calls, total and self seconds per layer name."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        #: Per-call inclusive seconds, for layers wrapped with *keep*.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Calls whose wrapped function returned False (failed appends).
        self.false_returns: Dict[str, int] = defaultdict(int)

    def snapshot(self) -> Dict[str, Any]:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "false_returns": dict(self.false_returns)}


class LayerTrace:
    """Wrappers plus the stats they record, kept in named buckets
    (:meth:`use` switches), so work the benchmark interleaves, like the
    cache-hit probes between cold cells, is accounted apart."""

    def __init__(self) -> None:
        self.buckets: Dict[str, LayerStats] = {}
        self.stats = self.use("main")
        #: Entry points that could not be found (renamed or removed).
        self.missing: List[str] = []
        self._local = threading.local()
        self._keep: set = set()

    def use(self, bucket: str) -> LayerStats:
        """Record from now on into *bucket*; returns its stats."""
        self.stats = self.buckets.setdefault(bucket, LayerStats())
        return self.stats

    # -- nesting ---------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        elapsed = time.perf_counter() - frame[1]
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:
            stack.remove(frame)
        name, stats = frame[0], self.stats
        stats.calls[name] += 1
        stats.total[name] += elapsed
        stats.self_time[name] += elapsed - frame[2]
        if name in self._keep:
            stats.samples[name].append(elapsed)
        if stack:
            stack[-1][2] += elapsed
        return elapsed

    # -- wrappers --------------------------------------------------------------
    def timed(self, fn: Callable, name: str, keep: bool = False) -> Callable:
        if keep:
            self._keep.add(name)
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                frame = self._enter(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._exit(frame)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if result is False:
                self.stats.false_returns[name] += 1
            return result
        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.stats.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_items(self, fn: Callable, name: str) -> Callable:
        """Wrap a function returning an iterator: count the items drawn."""
        def drain(iterator):
            for item in iterator:
                self.stats.calls[name] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return drain(fn(*args, **kwargs))
        return wrapper

    # -- installation ----------------------------------------------------------
    def patch_method(self, module: str, cls: str, attr: str, name: str,
                     mode: str = "timed", keep: bool = False) -> None:
        owner = _resolve(module, cls)
        original = owner.__dict__.get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{cls}.{attr}")
            return
        setattr(owner, attr, self._make(original, name, mode, keep))

    def patch_function(self, module: str, attr: str, name: str,
                       mode: str = "timed", keep: bool = False) -> None:
        owner = _resolve(module)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        replace_everywhere(original, self._make(original, name, mode, keep))

    def _make(self, fn, name, mode, keep):
        if mode == "timed":
            return self.timed(fn, name, keep)
        if mode == "count":
            return self.counted(fn, name)
        if mode == "items":
            return self.counted_items(fn, name)
        raise ValueError(f"unknown wrapper mode {mode!r}")

    def snapshot(self) -> Dict[str, Any]:
        return {"buckets": {name: stats.snapshot()
                            for name, stats in self.buckets.items()},
                "missing": list(self.missing)}


def install_program_layers(trace: LayerTrace, vec: bool = False) -> None:
    """Wrap the entry points of every layer a simulated cell crosses,
    from the engine down to the memory hierarchy."""
    e = "repro.exec"
    trace.patch_method(e + ".engine", "JobRunner", "run", "exec.run")
    trace.patch_function(e + ".job", "execute_job", "exec.execute",
                         keep=True)
    trace.patch_function("repro.harness.runner", "run_bar",
                         "harness.run_bar")
    trace.patch_method(e + ".cache", "ResultCache", "get", "exec.probe")
    trace.patch_method(e + ".cache", "ResultCache", "put", "exec.store")
    trace.patch_method("repro.durable.journal", "RunJournal", "append",
                       "durable.append")
    trace.patch_function("repro.perf.manifest", "write_run_manifest",
                         "perf.manifest")
    trace.patch_method("repro.inorder.core", "InOrderCore", "run",
                       "interp.inorder")
    trace.patch_method("repro.ooo.core", "OutOfOrderCore", "run",
                       "interp.ooo")
    mem = "repro.memory.hierarchy"
    trace.patch_method(mem, "MemoryHierarchy", "access", "memory.access",
                       mode="count")
    trace.patch_method(mem, "MemoryHierarchy", "ifetch", "memory.ifetch",
                       mode="count")
    trace.patch_method("repro.workloads.synthetic", "SyntheticWorkload",
                       "stream", "workloads.generated", mode="items")
    if vec:
        v = "repro.vec"
        trace.patch_function(v + ".decode", "decoded_stream", "vec.stream")
        trace.patch_method(v + ".decode", "StreamView", "ensure",
                           "vec.decode")
        trace.patch_method(v + ".decode", "DecodedWorkload", "__init__",
                           "vec.decodes", mode="count")
        trace.patch_function(v + ".inorder", "run_inorder_vec",
                             "vec.kernel")
        trace.patch_function(v + ".ooo", "run_ooo_vec", "vec.kernel")


def _resolve(module: str, cls: Optional[str] = None):
    import importlib

    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(mod, cls, None) if cls else mod


def replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every reference the program holds to *original* at
    *replacement*: module globals (``from x import f`` copies), and
    default arguments of functions and methods (``execute=execute_job``).
    """
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif inspect.isfunction(value):
                _replace_defaults(value, original, replacement)
            elif inspect.isclass(value) and value.__module__ == mod_name:
                for member in list(vars(value).values()):
                    func = getattr(member, "__func__", member)
                    if inspect.isfunction(func):
                        _replace_defaults(func, original, replacement)


def _replace_defaults(func, original, replacement) -> None:
    if func.__defaults__ and any(d is original for d in func.__defaults__):
        func.__defaults__ = tuple(replacement if d is original else d
                                  for d in func.__defaults__)
    kw = func.__kwdefaults__
    if kw and any(v is original for v in kw.values()):
        func.__kwdefaults__ = {k: (replacement if v is original else v)
                               for k, v in kw.items()}


#: Program packages whose self time the traced run reports, keyed by
#: path fragment; the first match wins.
MODULE_LAYERS = (
    ("/repro/vec/decode.py", "vec.decode"),
    ("/repro/vec/", "vec.replay"),
    ("/repro/ooo/", "ooo"),
    ("/repro/inorder/", "inorder"),
    ("/repro/pipeline/", "pipeline"),
    ("/repro/isa/", "isa"),
    ("/repro/workloads/", "workloads"),
    ("/repro/core/", "core"),
    ("/repro/memory/", "memory"),
    ("/repro/", "repro.other"),
)


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None outside the program."""
    path = filename.replace("\\", "/")
    for fragment, layer in MODULE_LAYERS:
        if fragment in path:
            return layer
    return None


def module_split(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per program layer from one cProfile pass.

    Time in builtins, the standard library and numpy counts for the
    program layer that called it (split by caller), so a layer's self
    time includes the C work it asked for.  Time reached only through
    other non-program code counts as ``other``.
    """
    split: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tottime, _ct, callers) in stats.stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            split[layer] += tottime
            continue
        attributed = 0.0
        for caller, caller_stats in callers.items():
            caller_layer = layer_of(caller[0])
            if caller_layer is not None:
                split[caller_layer] += caller_stats[2]
                attributed += caller_stats[2]
        split["other"] += max(0.0, tottime - attributed)
    return dict(split)
