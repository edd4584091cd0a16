"""Smoke tests: the example scripts import cleanly and the fast ones run."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ALL_EXAMPLES = [p.stem for p in sorted(EXAMPLES.glob("*.py"))]


def test_example_set_is_complete():
    assert set(ALL_EXAMPLES) >= {
        "quickstart", "miss_profiling", "adaptive_prefetching",
        "multithreading", "coherence_access_control", "page_recoloring"}


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_imports(name):
    module = load_example(name)
    assert hasattr(module, "main")


def test_quickstart_runs(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    # The strided sum over 16KB: one miss per 32-byte line, each one
    # trapping to the one-instruction handler.
    for line in ("cycles:                 41135",
                 "IPC:                    0.52",
                 "application insts:      20484",
                 "handler insts:          1024",
                 "L1 misses (hardware):   512",
                 "misses seen by handler: 512"):
        assert line in out.splitlines()


def test_page_recoloring_runs(capsys):
    load_example("page_recoloring").main()
    out = capsys.readouterr().out
    assert "speedup" in out
