"""Shared configuration for the benchmark suite.

Each benchmark regenerates one of the paper's tables/figures once
(``rounds=1`` — these are experiments, not microbenchmarks) and asserts the
paper's qualitative claims about it.  Set ``REPRO_BENCH_QUICK=1`` to run
4x-shorter simulations when iterating.

The grid-shaped experiments can opt into the :mod:`repro.exec` engine:
``REPRO_BENCH_JOBS=N`` fans their simulation cells across N worker
processes and ``REPRO_BENCH_CACHE=1`` memoizes results in the
content-addressed store (so a re-run after an unrelated code change is
nearly free).  The defaults — one in-process job, no cache — are
byte-identical to the historical serial loops.
"""

import os

import pytest

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: Measured application instructions / warm-up per simulator run.
INSTRUCTIONS = 5_000 if QUICK else 20_000
WARMUP = 2_500 if QUICK else 10_000

#: Workload seed offset, shared with the harness CLI's ``--seed`` default
#: (0) so benchmark runs replay the exact golden-reference streams.  Set
#: ``REPRO_BENCH_SEED=N`` to re-check claims on a different seed path.
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

#: Worker processes / caching for engine-backed experiment fixtures.
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
CACHE = os.environ.get("REPRO_BENCH_CACHE") == "1"


def make_engine():
    """A JobRunner honouring REPRO_BENCH_JOBS / REPRO_BENCH_CACHE."""
    from repro.exec import ExecOptions, JobRunner

    return JobRunner(ExecOptions(jobs=JOBS, cache=CACHE))


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""
    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)
    return runner


@pytest.fixture(autouse=True)
def _claims_run_under_benchmark_only(benchmark):
    """The claim-assertion tests share the expensive module-scoped results
    of the timed tests; pull in the benchmark fixture so ``pytest
    benchmarks/ --benchmark-only`` runs them instead of skipping them."""
    return benchmark


_HERE = os.path.dirname(os.path.abspath(__file__))
_UNUSED_FIXTURE = pytest.mark.filterwarnings(
    "ignore:Benchmark fixture was not used"
    ":pytest_benchmark.logger.PytestBenchmarkWarning")


def pytest_collection_modifyitems(items):
    """A claim test holds the benchmark fixture (above) without timing
    anything, which pytest-benchmark reports as a warning per test;
    that is by design here, so the warning is filtered, not the test."""
    for item in items:
        if str(item.path).startswith(_HERE + os.sep):
            item.add_marker(_UNUSED_FIXTURE)
