"""benchmarks/bench_serve.py removes the result cache it made itself."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_bench(temp, *args):
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_serve.py"),
         "--clients", "100", *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(temp)),
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_a_run_leaves_nothing_behind_but_a_given_cache(tmp_path):
    temp = tmp_path / "tmp"
    temp.mkdir()
    run_bench(temp)
    assert list(temp.iterdir()) == []

    given = tmp_path / "cache"
    run_bench(temp, "--cache-dir", str(given))
    assert list(temp.iterdir()) == []
    assert any(given.iterdir())
