"""The workload generator, pinned by digest.

Golden parity pins the generator only at seed 0 and only through
simulated results, and both backends read one generator, so backend
parity cannot see it drift.  Each digest is the first 16 hex digits of
the SHA-256 of the ``repr`` of the instructions' fields
(``op, dest, srcs, addr, taken, pc, informing, handler_code``), for
1,500 instructions of ``spec92_workload(b, seed_offset=s)`` in four
forms: ``stream(n)``, ``stream(n, informing=False)``, and the
``add_mhar_sets`` and ``add_cc_checks`` variants of ``stream(n)``.
They were recorded from the ``DynInst`` generator, before rows became
the generated form; the row generator and the row rewriters, read
back through ``from_row``, must give the same digests.
"""

import hashlib

import pytest

from repro.core import add_cc_checks, add_mhar_sets
from repro.workloads.spec92 import SPEC92, spec92_workload

N = 1_500

#: (benchmark, seed offset) -> digests of the informing stream, the
#: non-informing stream, and its mhar and cc variants.
DIGESTS = {
    ("alvinn", 0): ('ebce9e6f3fccff62', '21d0080ae8c11a55', '648dd052f8c16945', '9e19b3e40dffff84'),
    ("alvinn", 12345): ('32351390377aa6b6', 'a357ed4049575c94', '20efd0b11df8f298', '926eb78c3d9855bd'),
    ("compress", 0): ('a65134330125a332', 'abed93afcee76194', 'fd8be42b53411a6e', 'aecf2fbcff2d5004'),
    ("compress", 12345): ('d045f11e8e9c3e45', '65a30e1c12f801b4', 'ef61a08550e2fd8d', 'd1b92d172c8f0096'),
    ("doduc", 0): ('370167cc355fe371', '06bfceb2a1b5e818', '1f44696a01c7cedd', 'bc3ee9fcfcd5dfad'),
    ("doduc", 12345): ('28635611d703c48c', '2da574d3e20d5ef4', 'bf0b4b6b273e3566', '64789f8811331546'),
    ("ear", 0): ('ca6f1c6791397ed4', 'fdcd8b3e5b539975', '1a1b9aaad526360d', '6b8720b79351fbe1'),
    ("ear", 12345): ('d96f4f195bebfb75', '05c01a901fb21224', '0496730d33376704', 'c822e8e5184cef73'),
    ("eqntott", 0): ('71369e62ee6afae0', '3dca3c05f22ffe00', '5969bc43b0ff00de', 'eb3a2acb5c42be3c'),
    ("eqntott", 12345): ('03be0d1fb4c3a021', '20e9329b4eac2db0', '6a53387c6f00a253', '94f730fff540456f'),
    ("espresso", 0): ('d9e0a046a6d241f6', '37fae44ae472519e', 'c3a74e1668057a4b', '7880ce4f223642e3'),
    ("espresso", 12345): ('3903a32f02619f54', 'de782fa29568b643', 'ed2cfe0fb66e2036', 'd85bc59a619c5e88'),
    ("hydro2d", 0): ('1a3f88f65a29cbd9', 'f13ac60674d635d7', '56482a3daa94a9fb', 'ac3506663842dfed'),
    ("hydro2d", 12345): ('074457e141845f11', '6c390a74fc22802b', '23518c55c6ec3aca', '2b939ce35a280c7a'),
    ("mdljsp2", 0): ('bd3f9813c0e556ce', '22581b726fdcff6b', '21770d552944587e', '76e70e1e452525d3'),
    ("mdljsp2", 12345): ('b39439cd4bc936d2', '76dfed329b925623', '7589ac6bd4dccfc3', 'e2d44edb01579444'),
    ("ora", 0): ('5b71496628a84b64', '3bbf96a785eb6259', 'e61e97c2c021a05e', 'e82523a240e7ad1a'),
    ("ora", 12345): ('db12f5fc436e04b5', '90414c98b6745759', 'efd0d7fc463e5bde', '5c232440fea23a44'),
    ("sc", 0): ('a3ba95e1ad2b5cd3', '1ab1b987f4d5bfa8', 'ba88770d3846fa7e', 'c820eec18f08f3bb'),
    ("sc", 12345): ('e32b8b5622a1126b', '0212262c6e853e89', 'e75f6d1c61d79ebc', '0bc2fc5376cd5436'),
    ("su2cor", 0): ('0e9a9ede5857c6a5', '342a01ca4325b3ef', '16cb6b860d102de1', '308f49de6c5ae6e0'),
    ("su2cor", 12345): ('d0c38be2d0af3b51', 'fd4ff60025f55ae3', '9ffa56e48ff8fbb6', '300673c452f39b04'),
    ("swm256", 0): ('5924ddf3511ad7f4', '73665bb844cdf5da', 'e57ad0dc8b0f6450', '9897961b9d113947'),
    ("swm256", 12345): ('1d3cfdff3d87b4b0', '53095c8b63591db6', '101671ab4d510712', '144b77f83dcb1994'),
    ("tomcatv", 0): ('f3b8e7f977cfa952', '1e49ada1f3191cac', 'ce245a2afd209f0a', 'd532620bfa5b948f'),
    ("tomcatv", 12345): ('d480efa4942f1a0b', 'e20622120348e29f', '35ebe1698f04ce66', '7fb0f751af5af1d4'),
    ("xlisp", 0): ('8b4c3281155b6dd1', '002d0e209ea70e39', 'e97b482fc4c8becb', 'b325fa904d57a2f5'),
    ("xlisp", 12345): ('d3171b3a6a25fe58', '69f261f934d1823a', 'efb7316b78f7d375', 'eb9c0728b53a2f95'),
}

SEEDS = (0, 12_345)


def _digest(insts) -> str:
    return hashlib.sha256(repr([
        (i.op.name, i.dest, i.srcs, i.addr, i.taken, i.pc, i.informing,
         i.handler_code) for i in insts]).encode()).hexdigest()[:16]


def test_every_benchmark_is_pinned():
    assert {b for b, _ in DIGESTS} == set(SPEC92)
    assert {s for _, s in DIGESTS} == set(SEEDS)


@pytest.mark.parametrize("name", sorted(SPEC92))
def test_stream_digests(name):
    for seed in SEEDS:
        workload = spec92_workload(name, seed_offset=seed)
        app = list(workload.stream(N))
        assert (_digest(app), _digest(workload.stream(N, informing=False)),
                _digest(add_mhar_sets(app)), _digest(add_cc_checks(app))
                ) == DIGESTS[(name, seed)], seed


@pytest.mark.parametrize("name", sorted(SPEC92))
def test_row_digests(name):
    """The generated rows and their row-rewritten variants, read back as
    ``DynInst`` fields, are the pinned streams."""
    from repro.core import add_cc_check_rows, add_mhar_set_rows
    from repro.isa.rows import from_row

    def digest(rows):
        return _digest(map(from_row, rows))

    for seed in SEEDS:
        workload = spec92_workload(name, seed_offset=seed)
        app = list(workload.rows(N))
        assert (digest(app), digest(workload.rows(N, informing=False)),
                digest(add_mhar_set_rows(app)), digest(add_cc_check_rows(app))
                ) == DIGESTS[(name, seed)], seed
