"""Unit tests for the informing-operations core package."""

import pytest

from repro.core import (
    CallbackHandler,
    GenericHandler,
    InformingConfig,
    InformingEngine,
    Mechanism,
    SINGLE_HANDLER_BASE_PC,
    TrapStyle,
    add_cc_checks,
    add_mhar_sets,
)
from repro.core.mechanisms import return_pc
from repro.isa import OpClass, alu, branch, load, prefetch, store
from repro.isa.registers import HANDLER_REG_BASE
from repro.probe import Probe
from tests.helpers import make_ooo


class TestInformingConfig:
    def test_none_baseline(self):
        config = InformingConfig()
        assert not config.active

    def test_handler_requires_mechanism(self):
        with pytest.raises(ValueError):
            InformingConfig(handler=GenericHandler(1))

    def test_cc_requires_handler(self):
        with pytest.raises(ValueError):
            InformingConfig(mechanism=Mechanism.CONDITION_CODE)

    def test_trap_with_null_handler_is_inactive(self):
        config = InformingConfig(mechanism=Mechanism.TRAP)
        assert not config.active  # MHAR == 0


class TestGenericHandler:
    def test_length_and_return_jump(self):
        handler = GenericHandler(10)
        body = handler.instructions(load(0x100, dest=1, pc=0x40))
        assert len(body) == 11
        assert body[-1].op is OpClass.MHRR_JUMP
        assert all(inst.handler_code for inst in body)
        assert all(not inst.informing for inst in body[:-1])

    def test_single_handler_chains_across_invocations(self):
        handler = GenericHandler(3, unique=False)
        body = handler.instructions(load(0x100, dest=1, pc=0x40))
        assert body[0].srcs == (HANDLER_REG_BASE,)  # reads previous value
        assert body[1].srcs == (HANDLER_REG_BASE,)
        assert body[0].dest == HANDLER_REG_BASE

    def test_unique_handler_starts_fresh_chain(self):
        handler = GenericHandler(3, unique=True)
        body = handler.instructions(load(0x100, dest=1, pc=0x40))
        assert body[0].srcs == ()
        assert body[1].srcs == (HANDLER_REG_BASE,)

    def test_unchained_ablation(self):
        handler = GenericHandler(5, unique=True, chained=False)
        body = handler.instructions(load(0x100, dest=1, pc=0x40))
        assert all(inst.srcs == () for inst in body[:-1])

    def test_single_handler_pc_is_fixed(self):
        handler = GenericHandler(2)
        a = handler.instructions(load(0x100, dest=1, pc=0x40))
        b = handler.instructions(load(0x200, dest=1, pc=0x80))
        assert a[0].pc == b[0].pc == SINGLE_HANDLER_BASE_PC

    def test_unique_handler_pcs_differ_per_reference(self):
        handler = GenericHandler(2, unique=True)
        a = handler.instructions(load(0x100, dest=1, pc=0x40))
        b = handler.instructions(load(0x200, dest=1, pc=0x80))
        assert a[0].pc != b[0].pc

    def test_unique_handler_pc_is_deterministic(self):
        handler = GenericHandler(2, unique=True)
        a = handler.instructions(load(0x100, dest=1, pc=0x40))
        b = handler.instructions(load(0x300, dest=2, pc=0x40))
        assert a[0].pc == b[0].pc

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            GenericHandler(0)


class TestCallbackHandler:
    def test_callback_observes_and_uses_cost_model(self):
        seen = []
        handler = CallbackHandler(lambda ref: seen.append(ref.addr) or None,
                                  cost_model=GenericHandler(2))
        body = handler.instructions(load(0x123, dest=1, pc=0x40))
        assert seen == [0x123]
        assert len(body) == 3
        assert handler.invocations == 1
        assert handler.length == 2

    def test_callback_custom_body_gets_return_jump(self):
        handler = CallbackHandler(lambda ref: [alu(dest=5, pc=0x500)])
        body = handler.instructions(load(0x100, dest=1, pc=0))
        assert body[-1].op is OpClass.MHRR_JUMP
        assert len(body) == 2

    def test_callback_none_without_cost_model_is_bare_return(self):
        handler = CallbackHandler(lambda ref: None)
        body = handler.instructions(load(0x100, dest=1, pc=0))
        assert len(body) == 1
        assert body[0].op is OpClass.MHRR_JUMP

    def test_no_fixed_length_without_cost_model(self):
        handler = CallbackHandler(lambda ref: None)
        with pytest.raises(AttributeError):
            handler.length


class TestInformingEngine:
    def make(self, **kw):
        config = InformingConfig(mechanism=Mechanism.TRAP,
                                 handler=GenericHandler(1), **kw)
        return InformingEngine(config)

    def test_miss_invokes_handler(self):
        engine = self.make()
        body = engine.on_miss(load(0x100, dest=1, pc=0x40))
        assert body is not None
        assert engine.invocations == 1
        assert engine.injected_instructions == len(body)

    def test_non_informing_reference_ignored(self):
        engine = self.make()
        assert engine.on_miss(load(0x100, dest=1, pc=0, informing=False)) is None
        assert engine.invocations == 0

    def test_handler_code_never_retraps(self):
        engine = self.make()
        inner = load(0x200, dest=1, pc=0x500)
        inner.handler_code = True
        assert engine.on_miss(inner) is None

    def test_mhar_disable_enable(self):
        engine = self.make()
        engine.disable()
        assert engine.on_miss(load(0x100, dest=1, pc=0)) is None
        engine.enable()
        assert engine.on_miss(load(0x100, dest=1, pc=0)) is not None

    def test_observer_hook(self):
        """Each handler entry reaches an attached probe after the engine
        latched the MHRR."""
        seen = []

        class Traps(Probe):
            def on_trap(self, engine, pc, addr, cycle, handler_len):
                seen.append((pc, addr, engine.mhrr, handler_len))

        config = InformingConfig(mechanism=Mechanism.TRAP,
                                 handler=GenericHandler(1))
        core = Traps().attach(make_ooo(informing=config))
        core.run([load(0x100, dest=1, pc=0x44)])
        assert seen == [(0x44, 0x100, return_pc(0x44),
                         core.engine.injected_instructions)]

    def test_inactive_config(self):
        engine = InformingEngine(InformingConfig())
        assert engine.on_miss(load(0x100, dest=1, pc=0)) is None


class TestInstrumentation:
    def trace(self):
        return [
            alu(dest=1, pc=0),
            load(0x100, dest=2, pc=4),
            store(0x200, srcs=(2,), pc=8),
            prefetch(0x300, pc=12),
            branch(True, pc=16),
            load(0x400, dest=3, pc=20, informing=False),
        ]

    def test_cc_checks_follow_each_informing_ref(self):
        out = list(add_cc_checks(self.trace()))
        ops = [inst.op for inst in out]
        assert ops == [
            OpClass.IALU,
            OpClass.LOAD, OpClass.BLMISS,
            OpClass.STORE, OpClass.BLMISS,
            OpClass.PREFETCH,
            OpClass.BRANCH,
            OpClass.LOAD,  # non-informing: no check
        ]
        # Each check's pc derives from its reference.
        assert out[2].pc == 5 and out[4].pc == 9

    def test_mhar_sets_precede_each_informing_ref(self):
        out = list(add_mhar_sets(self.trace()))
        ops = [inst.op for inst in out]
        assert ops == [
            OpClass.IALU,
            OpClass.MHAR_SET, OpClass.LOAD,
            OpClass.MHAR_SET, OpClass.STORE,
            OpClass.PREFETCH,
            OpClass.BRANCH,
            OpClass.LOAD,
        ]

    def test_handler_code_not_instrumented(self):
        inner = load(0x200, dest=1, pc=0x500)
        inner.handler_code = True
        out = list(add_cc_checks([inner]))
        assert len(out) == 1

    def test_rewriters_are_lazy(self):
        def infinite():
            while True:
                yield load(0x100, dest=1, pc=4)

        gen = add_mhar_sets(infinite())
        first = next(gen)
        assert first.op is OpClass.MHAR_SET
