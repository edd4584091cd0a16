"""The two-backend contract: vec is digit-exact with interp, and invisible
to the cache.

Three layers of proof:

* a hypothesis differential sweep — random (benchmark, machine, label,
  run sizes, workload seed) cells run through both backends must agree
  on **every** exported :class:`BarResult` field, including the full
  MemStats-derived breakdown (the golden-parity suite pins the figure2
  grid; this sweeps the config space around it, including the E/CC
  label families the golden capture never exercises);
* cache-key invariance — a job's content address must not change with
  the backend (``REPRO_BACKEND``, ``ExecOptions.backend``, or a serve
  spec's ``backend`` field), because either backend may populate or hit
  the shared result cache;
* dispatch rules — explicit argument beats environment, unknown names
  raise :class:`BackendError`, and unsupported bars (Python callback
  handlers, sanitizer/observer attached) silently use interp.
"""

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import ExecOptions, JobRunner, SimJob
from repro.harness.runner import BarResult, bar_config, run_bar
from repro.vec import (
    BACKEND_ENV,
    BackendError,
    resolve_backend,
    run_bar_vec,
    vec_supports,
)

_BAR_FIELDS = [f.name for f in fields(BarResult) if f.name != "normalized"]

#: Random cells stay small so the sweep finishes in seconds per example;
#: parity is size-independent (the full --quick grid is pinned golden).
_BENCHMARKS = ("compress", "espresso", "ora", "sc", "su2cor", "tomcatv")
_LABELS = ("N", "S1", "S10", "S100", "U1", "U10", "E1", "E10",
           "CC1", "CC10")


def _assert_cell_parity(benchmark, machine, label, instructions, warmup,
                        seed=0):
    a = run_bar(benchmark, machine, bar_config(label), instructions,
                warmup, seed=seed, backend="interp")
    b = run_bar_vec(benchmark, machine, bar_config(label), instructions,
                    warmup, seed=seed)
    for name in _BAR_FIELDS:
        assert getattr(a, name) == getattr(b, name), (
            f"{benchmark}/{machine}/{label} i={instructions} w={warmup} "
            f"seed={seed}: {name} interp={getattr(a, name)!r} "
            f"vec={getattr(b, name)!r}")


@settings(max_examples=25, deadline=None)
@given(
    benchmark=st.sampled_from(_BENCHMARKS),
    machine=st.sampled_from(("ooo", "inorder")),
    label=st.sampled_from(_LABELS),
    instructions=st.integers(min_value=200, max_value=2500),
    warmup_frac=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=3),
)
def test_differential_backend_parity(benchmark, machine, label,
                                     instructions, warmup_frac, seed):
    """Random cells: every BarResult field digit-exact across backends."""
    _assert_cell_parity(benchmark, machine, label, instructions,
                        instructions * warmup_frac // 2, seed=seed)


def test_parity_on_warmup_equal_run():
    """Warmup == measured instructions: the reset boundary edge."""
    _assert_cell_parity("compress", "inorder", "U10", 1000, 1000)
    _assert_cell_parity("compress", "ooo", "S10", 1000, 1000)


def test_row_rejects_more_than_two_sources():
    from repro.isa.instructions import DynInst
    from repro.isa.opclass import OpClass
    from repro.vec.decode import to_row

    assert to_row(DynInst(OpClass.IALU, dest=3, srcs=(1, 2)))[2:5] == (
        3, 1, 2)
    with pytest.raises(ValueError, match="at most two source registers"):
        to_row(DynInst(OpClass.IALU, dest=3, srcs=(1, 2, 4), pc=0x40))


def test_vec_runs_without_numpy():
    """The package has no runtime dependency: with numpy unimportable, a
    vec cell on each machine still matches its interp twin."""
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from repro.harness.runner import bar_config, run_bar\n"
        "from repro.vec import run_bar_vec\n"
        "for machine in ('ooo', 'inorder'):\n"
        "    bar = bar_config('U10')\n"
        "    vec = run_bar_vec('compress', machine, bar, 2000, 500)\n"
        "    interp = run_bar('compress', machine, bar, 2000, 500,\n"
        "                     backend='interp')\n"
        "    assert vec == interp, (machine, vec, interp)\n"
        "    print(machine, vec.cycles)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code],
                         env={"PYTHONPATH": src}, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert [line.split()[0] for line in out.stdout.splitlines()] == [
        "ooo", "inorder"]


# -- cache-key invariance -----------------------------------------------------

def _figure2_job():
    return SimJob.bar(benchmark="compress", machine="ooo", label="S10",
                      instructions=7500, warmup=3750, seed=0)


def test_cache_key_ignores_backend_env(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    base = _figure2_job().cache_key()
    for backend in ("interp", "vec"):
        monkeypatch.setenv(BACKEND_ENV, backend)
        assert _figure2_job().cache_key() == base


def test_cache_key_ignores_engine_backend(monkeypatch):
    # setenv-then-delenv registers a restore for the value JobRunner is
    # about to write into the environment.
    monkeypatch.setenv(BACKEND_ENV, "interp")
    monkeypatch.delenv(BACKEND_ENV)
    base = _figure2_job().cache_key()
    runner = JobRunner(ExecOptions(cache=False, backend="vec"))
    assert os.environ[BACKEND_ENV] == "vec"
    assert _figure2_job().cache_key() == base
    assert runner.options.backend == "vec"


def test_engine_rejects_unknown_backend():
    with pytest.raises(BackendError):
        JobRunner(ExecOptions(cache=False, backend="turbo"))


def test_serve_spec_backend_validated_but_identity_free():
    from repro.serve.spec import SpecError, validate_job_spec

    spec = {"kind": "bar", "benchmark": "compress", "machine": "ooo",
            "label": "S10", "instructions": 7500, "warmup": 3750}
    base = validate_job_spec(spec).cache_key()
    for backend in ("interp", "vec"):
        job = validate_job_spec(dict(spec, backend=backend))
        assert job.cache_key() == base
    with pytest.raises(SpecError) as excinfo:
        validate_job_spec(dict(spec, backend="turbo"))
    assert excinfo.value.field == "backend"
    with pytest.raises(SpecError):
        validate_job_spec(dict(spec, backend=7))


def test_either_backend_serves_the_shared_cache(tmp_path, monkeypatch):
    """A vec-populated cache answers an interp run — same key, same bits."""
    from repro.exec import bar_result_from_dict

    monkeypatch.setenv(BACKEND_ENV, "interp")  # restore point (see above)
    monkeypatch.delenv(BACKEND_ENV)

    job = SimJob.bar(benchmark="espresso", machine="inorder", label="S1",
                     instructions=800, warmup=400, seed=0)
    writer = JobRunner(ExecOptions(jobs=1, cache=True,
                                   cache_dir=str(tmp_path), backend="vec"))
    first = writer.run([job])[0]
    reader = JobRunner(ExecOptions(jobs=1, cache=True,
                                   cache_dir=str(tmp_path),
                                   backend="interp"))
    second = reader.run([job])[0]
    assert reader.stats.cache_hits == 1
    assert bar_result_from_dict(first) == bar_result_from_dict(second)


# -- dispatch rules -----------------------------------------------------------

def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert resolve_backend() == "interp"
    monkeypatch.setenv(BACKEND_ENV, "vec")
    assert resolve_backend() == "vec"
    assert resolve_backend("interp") == "interp"  # explicit beats env
    monkeypatch.setenv(BACKEND_ENV, "")
    assert resolve_backend() == "interp"
    monkeypatch.setenv(BACKEND_ENV, "turbo")
    with pytest.raises(BackendError):
        resolve_backend()
    with pytest.raises(BackendError):
        resolve_backend("warp")


def test_vec_supports_generic_but_not_callback_handlers():
    from repro.core import InformingConfig, Mechanism
    from repro.core.handlers import CallbackHandler

    assert vec_supports(bar_config("N"))
    for label in ("S1", "U10", "E1", "CC10"):
        assert vec_supports(bar_config(label)), label
    callback = InformingConfig(
        mechanism=Mechanism.TRAP,
        handler=CallbackHandler(lambda *a, **k: None))
    from repro.harness.runner import BarConfig
    assert not vec_supports(BarConfig("cb", callback))


def test_unsupported_bar_falls_back_to_interp(monkeypatch):
    """A callback-handler bar under --backend vec must still run (interp)."""
    from repro.core import InformingConfig, Mechanism
    from repro.core.handlers import CallbackHandler
    from repro.harness.runner import BarConfig

    calls = []
    bar = BarConfig("cb", InformingConfig(
        mechanism=Mechanism.TRAP,
        handler=CallbackHandler(lambda ref: calls.append(ref) or [])))
    monkeypatch.setenv(BACKEND_ENV, "vec")
    result = run_bar("compress", "ooo", bar, 500, 0)
    assert result.cycles > 0
    assert calls  # the Python handler really ran — interp path


class TestBackendTelemetry:
    """The FINISHED event reports the backend that actually ran.

    This is the observable form of the fallback rule: a stateful
    replacement policy (plru/rrip/brrip) cannot replay through the
    decode-once vec path, so a vec-requested job must record
    ``backend="interp"`` — silently running vec anyway would break
    digit-exactness, and silently hiding the fallback would make the
    telemetry lie about provenance.
    """

    def _finished(self, monkeypatch, policy):
        from repro.exec import CollectingSink

        monkeypatch.setenv(BACKEND_ENV, "vec")
        sink = CollectingSink()
        runner = JobRunner(ExecOptions(jobs=1, cache=False),
                           sinks=[sink])
        runner.run([SimJob.bar(benchmark="compress", machine="lab",
                               label="N", instructions=500, warmup=250,
                               policy=policy)])
        events = [e for e in sink.events if e.event == "finished"]
        assert len(events) == 1
        return events[0]

    def test_vec_eligible_policy_reports_vec(self, monkeypatch):
        assert self._finished(monkeypatch, "lru").backend == "vec"

    def test_stateful_policy_falls_back_visibly(self, monkeypatch):
        assert self._finished(monkeypatch, "rrip").backend == "interp"
