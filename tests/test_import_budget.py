"""Cold start: each entry point imports only the code its run executes.

Every module an entry point loads costs each launch its import (and,
without a bytecode cache, its compile), whether or not the run ever
calls into it.  Each check imports one entry point in a fresh
``python -S`` interpreter (no site-packages hooks) and asserts that the
named modules stayed out of ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Loaded by the runs that ask for them only: ``--sanitize``, the chaos
#: suite, ``--trace-events``, and the ``report``, ``compare`` and
#: ``watch`` commands.
OPTIONAL = ("repro.sanitize.invariants", "repro.sanitize.chaos",
            "repro.obs.observer", "repro.obs.report",
            "repro.perf.compare", "repro.perf.watch")

#: The process pool, which only a run with ``jobs > 1`` starts.
POOL = ("concurrent.futures.process", "multiprocessing")


def loaded_after(code):
    """The module names in ``sys.modules`` once *code* has run in a
    fresh interpreter."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_gateway_loads_no_client_pool_or_optional_subsystem():
    loaded = loaded_after("import repro.serve.cli")
    assert "repro.serve.gateway" in loaded
    unwanted = {"http.client", "email.parser", "repro.serve.client",
                *POOL, *OPTIONAL}
    assert sorted(loaded & unwanted) == []


def test_serial_cell_loads_no_server_pool_or_optional_subsystem():
    loaded = loaded_after(
        "import repro.exec, repro.harness.runner, repro.vec.runner\n"
        "from repro.harness.runner import bar_config, run_bar\n"
        "run_bar('compress', 'inorder', bar_config('U1'), 300, 100,\n"
        "        backend='vec')\n")
    assert "repro.vec.inorder" in loaded
    unwanted = {"asyncio", "http.client", "repro.serve",
                "repro.workloads.characterize", "repro.workloads.wrongpath",
                *POOL, *OPTIONAL}
    assert sorted(loaded & unwanted) == []


def test_harness_cli_loads_coherence_only_to_run_it():
    loaded = loaded_after("import repro.harness.__main__")
    assert "repro.harness.runner" in loaded
    unwanted = {"repro.harness.coherence_exp", "repro.coherence"}
    assert sorted(loaded & unwanted) == []


def test_compare_loads_no_engine(tmp_path):
    """Folding two real run journals through ``compare`` loads no
    engine, tracer or simulator."""
    from repro.exec import ExecOptions, JobRunner, SimJob

    journals = []
    for _ in range(2):
        runner = JobRunner(ExecOptions(cache=False, journal_fsync="off",
                                       manifest_dir=str(tmp_path)))
        runner.run([SimJob.bar("compress", "inorder", "N", 300, 100)])
        journals.append(runner.last_journal)
    loaded = loaded_after(
        "from repro.perf.compare import compare_main\n"
        f"assert compare_main({journals!r}) == 0\n")
    assert "repro.perf.manifest" in loaded
    unwanted = {"repro.exec", "repro.exec.engine", "repro.exec.telemetry",
                "repro.trace", "repro.harness", "repro.core",
                "repro.memory", "repro.pipeline", "repro.isa",
                "repro.workloads", "repro.ooo", "repro.inorder",
                "repro.vec", "repro.sim"}
    assert sorted(loaded & unwanted) == []
