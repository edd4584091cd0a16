"""Fault injection against the live simulator: every chaos fault class
must be detected by its named invariant within a bounded window."""

import random

import pytest

from tests.helpers import make_inorder, make_ooo, small_hierarchy, trap_config
from repro.core import TrapStyle
from repro.isa.instructions import alu, load
from repro.sanitize import InvariantViolation
from repro.sanitize.chaos import CAUGHT_BY, FAULT_CLASSES, ChaosInjector
from repro.sanitize.invariants import Sanitizer

#: Detection must land within this many cycles of the corruption.  With
#: ``every=1`` the sanitizer sweeps on every memory access, so detection
#: is normally same-access; the bound leaves slack for quiet stretches
#: of ALU-only work between references.
DETECTION_BOUND = 2_000


def stream(n=6000, seed=7, span_bits=14):
    """A miss-heavy informing-load mix over a working set >> the L1."""
    rng = random.Random(seed)
    insts = []
    pc = 0x1000
    for _ in range(n):
        if rng.random() < 0.4:
            insts.append(load(rng.randrange(0, 1 << span_bits) & ~3,
                              dest=2, srcs=(1,), pc=pc, informing=True))
        else:
            insts.append(alu(dest=3, srcs=(2,), pc=pc))
        pc += 4
    return insts


def sanitized_core(maker, extended=False, style=TrapStyle.BRANCH_LIKE):
    core = maker(informing=trap_config(style=style),
                 hierarchy=small_hierarchy(extended=extended))
    san = Sanitizer(every=1)
    san.attach(core)
    return core, san


def assert_caught(info, injector, fault):
    assert injector.fired, f"{fault}: the injector never found a trigger"
    violation = info.value
    assert violation.invariant in CAUGHT_BY[fault], (
        f"{fault} surfaced as {violation.invariant}, expected one of "
        f"{CAUGHT_BY[fault]}")
    assert injector.fired_cycle is not None
    lag = violation.cycle - injector.fired_cycle
    assert 0 <= lag <= DETECTION_BOUND, (
        f"{fault} detected {lag} cycles after injection "
        f"(fired at {injector.fired_cycle}, caught at {violation.cycle})")


class TestInjectorContract:
    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            ChaosInjector("bit_rot")

    def test_skip_defaults_from_seed(self):
        assert ChaosInjector("mshr_leak", seed=7).skip == 3
        assert ChaosInjector("mshr_leak", skip=0).skip == 0

    def test_every_fault_class_has_a_detecting_invariant(self):
        assert set(CAUGHT_BY) == set(FAULT_CLASSES)

    def test_corrupt_mhrr_needs_an_engine(self):
        with pytest.raises(ValueError):
            ChaosInjector("corrupt_mhrr").arm(small_hierarchy())

    def test_clean_run_raises_nothing(self):
        """Control: the same cores and streams, chaos-free, are clean."""
        for maker in (make_inorder, make_ooo):
            core, san = sanitized_core(maker)
            core.run(stream())
            assert san.checks_passed > 1000


SIMULATOR_FAULTS = ["mshr_leak", "duplicate_tag", "spurious_trap",
                    "corrupt_mhrr"]


class TestSimulatorFaults:
    @pytest.mark.parametrize("fault", SIMULATOR_FAULTS)
    @pytest.mark.parametrize("maker", [make_inorder, make_ooo])
    def test_fault_caught_by_named_invariant(self, maker, fault):
        core, _ = sanitized_core(maker)
        injector = ChaosInjector(fault, skip=2).arm(core)
        with pytest.raises(InvariantViolation) as info:
            core.run(stream())
        assert_caught(info, injector, fault)

    def test_skip_invalidate_caught_on_ooo(self):
        """§3.3's squash-invalidation, silently dropped: only the OoO
        machine with exception-like traps squashes *filled* extended-
        lifetime entries (the in-order replay trap fires 2 cycles after
        issue, long before any fill returns)."""
        core, _ = sanitized_core(make_ooo, extended=True,
                                 style=TrapStyle.EXCEPTION_LIKE)
        injector = ChaosInjector("skip_invalidate", skip=0).arm(core)
        with pytest.raises(InvariantViolation) as info:
            core.run(stream())
        assert_caught(info, injector, "skip_invalidate")

    def test_unfired_injector_is_harmless(self):
        """A trigger point past the run's last eligible event corrupts
        nothing, and the run completes clean."""
        core, _ = sanitized_core(make_inorder)
        injector = ChaosInjector("mshr_leak", skip=10**9).arm(core)
        core.run(stream(n=2000))
        assert not injector.fired

    def test_detection_without_core_hooks(self):
        """Faults in the memory subsystem are caught by a sanitizer
        attached to a bare hierarchy — no pipeline required."""
        hierarchy = small_hierarchy()
        san = Sanitizer(every=1)
        san.attach_hierarchy(hierarchy)
        injector = ChaosInjector("duplicate_tag", skip=0).arm(hierarchy)
        rng = random.Random(3)
        with pytest.raises(InvariantViolation) as info:
            for cycle in range(0, 40_000, 4):
                hierarchy.access(rng.randrange(0, 1 << 14) & ~3, False,
                                 cycle)
        assert_caught(info, injector, "duplicate_tag")
