"""The chaos faults that act through the shared memory-hierarchy objects,
caught on the vec kernels by the same invariant, within the same window
as on interp (``test_sanitize_chaos.py``).

``corrupt_mhrr`` stays interp-only: it wraps ``engine.on_miss``, which
the kernels inline.
"""

import pytest

from repro.core import TrapStyle
from repro.isa.rows import to_row
from repro.pipeline.stream import SharedStream
from repro.sanitize import InvariantViolation
from repro.sanitize.chaos import ChaosInjector
from repro.vec.inorder import run_inorder_vec
from repro.vec.ooo import run_ooo_vec
from tests.helpers import make_inorder, make_ooo
from tests.test_sanitize_chaos import assert_caught, sanitized_core, stream

KERNELS = {make_inorder: run_inorder_vec, make_ooo: run_ooo_vec}


def replay(core, kernel):
    """Run the chaos suite's random trace, as rows, to its end."""
    kernel(core, SharedStream(map(to_row, stream())),
           max_app_insts=10**9, warmup_insts=0)


@pytest.mark.parametrize("fault", ["mshr_leak", "duplicate_tag",
                                   "spurious_trap"])
@pytest.mark.parametrize("maker", [make_inorder, make_ooo])
def test_fault_caught_on_vec(maker, fault):
    core, _ = sanitized_core(maker)
    injector = ChaosInjector(fault, skip=2).arm(core)
    with pytest.raises(InvariantViolation) as info:
        replay(core, KERNELS[maker])
    assert_caught(info, injector, fault)


def test_skip_invalidate_caught_on_vec_ooo():
    """OoO only, as on interp: the in-order replay trap squashes long
    before any fill returns."""
    core, _ = sanitized_core(make_ooo, extended=True,
                             style=TrapStyle.EXCEPTION_LIKE)
    injector = ChaosInjector("skip_invalidate", skip=0).arm(core)
    with pytest.raises(InvariantViolation) as info:
        replay(core, run_ooo_vec)
    assert_caught(info, injector, "skip_invalidate")


@pytest.mark.parametrize("maker", [make_inorder, make_ooo])
def test_clean_vec_run_raises_nothing(maker):
    core, san = sanitized_core(maker)
    replay(core, KERNELS[maker])
    assert san.checks_passed > 1000
