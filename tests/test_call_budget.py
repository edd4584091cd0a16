"""Python-level calls per simulated cell, counted, not timed.

On the vec backend a cell's wall time is the two flat kernels plus the
calls they make into the memory hierarchy and the row generator, so the
number of Python frames a cell enters tracks its cost in those layers,
and host noise cannot move it.  Each check runs one small vec cell in a
fresh ``python -S`` interpreter under ``sys.setprofile`` and counts the
"call" events (generator resumes included) of frames under
``src/repro``.  The budgets are the counts when the memory miss/fill
path and the row generator were flattened, plus 10%: a change that
puts a call back on the per-reference or per-row path fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Calls per machine for a served-size tomcatv U10 cell (1,500
#: instructions after 300 of warm-up): misses on every sweep, a unique
#: handler per reference, and the mhar row rewriter.  The counts were
#: 6,702 (inorder) and 6,914 (ooo), against 19,209 and 19,172 before.
BUDGET = {"inorder": int(6_702 * 1.1), "ooo": int(6_914 * 1.1)}

_COUNT = """
import sys
from repro.harness.runner import bar_config, run_bar
root = {root!r}
calls = 0
def profile(frame, event, arg):
    global calls
    if event == "call" and frame.f_code.co_filename.startswith(root):
        calls += 1
sys.setprofile(profile)
run_bar("tomcatv", {machine!r}, bar_config("U10"), 1_500, 300,
        backend="vec")
sys.setprofile(None)
print(calls)
"""


def calls_of_one_cell(machine):
    code = _COUNT.format(root=str(SRC / "repro") + os.sep, machine=machine)
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(SRC),
                                  PYTHONHASHSEED="0"),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return int(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("machine", sorted(BUDGET))
def test_vec_cell_stays_inside_its_call_budget(machine):
    calls = calls_of_one_cell(machine)
    assert calls <= BUDGET[machine], (
        f"{machine}: {calls} Python-level calls under src/repro, budget "
        f"{BUDGET[machine]}")
