"""Quickstart: run a tiny loop on the R10000-like core and count its cache
misses with an informing memory operation.

The loop is built as a dynamic instruction stream with the ``repro.isa``
builders, then simulated cycle by cycle with a one-instruction miss handler
attached through the MHAR — the low-overhead cache-miss-trap mechanism of
Section 2.2.

Run:  python examples/quickstart.py
"""

from repro.apps import MissCounter
from repro.harness import R10000_SPEC, build_core
from repro.isa import alu, branch, load

BASE = 0x100000   # array base (r1)
SIZE = 16384      # array size in bytes (r3)


def strided_sum():
    """Yield a strided sum over a 16KB array, one 4-byte word per step.

    Every 32-byte line is touched once, so we expect one miss per line
    (16KB / 32B = 512) on a cold cache.  Registers: r1 base, r2 index,
    r3 size, r4 accumulator, r5 address, r6 loaded value.
    """
    for reg, pc in ((1, 0x1000), (2, 0x1004), (3, 0x1008), (4, 0x100c)):
        yield alu(reg, pc=pc)                          # li   rN, ...
    for i in range(0, SIZE, 4):
        yield alu(5, (1, 2), pc=0x1010)                # add  r5, r1, r2
        yield load(BASE + i, 6, (5,), pc=0x1014)       # ld   r6, 0(r5)
        yield alu(4, (4, 6), pc=0x1018)                # add  r4, r4, r6
        yield alu(2, (2,), pc=0x101c)                  # addi r2, r2, 4
        yield branch(i + 4 < SIZE, (2, 3), pc=0x1020)  # blt  r2, r3, loop


def main() -> None:
    trace = list(strided_sum())
    print(f"program executed {len(trace)} dynamic instructions")

    counter = MissCounter()
    core = build_core(R10000_SPEC, informing=counter.informing_config())
    stats = core.run(iter(trace))

    mem = core.hierarchy.stats
    print(f"cycles:                 {stats.cycles}")
    print(f"IPC:                    {stats.ipc:.2f}")
    print(f"application insts:      {stats.app_instructions}")
    print(f"handler insts:          {stats.handler_instructions}")
    print(f"L1 misses (hardware):   {mem.l1_misses}")
    print(f"misses seen by handler: {counter.misses}")
    assert counter.misses == mem.l1_misses, "informing missed a line fetch!"
    print("every line fetch invoked the miss handler — "
          "software observed its own memory behaviour.")


if __name__ == "__main__":
    main()
