"""Tracing through the exec engine: serial and pool propagation, the
unsampled zero-span path and pool-broken re-parenting.  Spans are read
back the one way there is: ``span`` records of the run
journal, through ``read_records``."""

import json
import os

import pytest

from repro.durable import read_records
from repro.exec import CollectingSink, ExecOptions, JobRunner, SimJob
from repro.harness.spans_cli import build_tree, group_by_trace
from repro.sanitize.chaos import chaos_execute
from repro.trace import ambient, clear_ambient


@pytest.fixture(autouse=True)
def _clean_ambient():
    clear_ambient()
    yield
    clear_ambient()


def bar_job(name="compress", machine="ooo", label="S10", seed=0):
    return SimJob.bar(benchmark=name, machine=machine, label=label,
                      instructions=800, warmup=200, seed=seed)


def echo_execute(job):
    return {"label": job.label}


def options(**overrides):
    overrides.setdefault("jobs", 1)
    overrides.setdefault("cache", False)
    overrides.setdefault("backoff", 0.01)
    return ExecOptions(**overrides)


def journal_spans(runner):
    """The span records of the runner's last journal (intact prefix)."""
    records, bad, _ = read_records(runner.last_journal)
    assert bad == 0
    return [r for r in records if r["rec"] == "span"]


def one_tree(records):
    """Assert a single connected trace among *records*, return it."""
    groups = group_by_trace(records)
    assert len(groups) == 1, f"expected one trace, got {sorted(groups)}"
    tree = build_tree(next(iter(groups.values())))
    assert len(tree["roots"]) == 1, [r["name"] for r in tree["roots"]]
    return tree


class TestUnsampledIsSpanFree:
    def test_no_span_records_and_no_span_field(self, tmp_path):
        runner = JobRunner(options(manifest_dir=str(tmp_path / "runs")),
                           execute=echo_execute)
        runner.run([bar_job("a"), bar_job("b")])
        records, _, _ = read_records(runner.last_journal)
        assert all(r["rec"] != "span" for r in records)
        assert all("span" not in r for r in records)
        assert list(tmp_path.rglob("spans.jsonl")) == []


class TestSerialPropagation:
    def test_connected_tree_with_nested_sim_spans(self, tmp_path):
        runner = JobRunner(options(trace_sample=1.0,
                                   manifest_dir=str(tmp_path / "runs")))
        runner.run([bar_job(label="N"), bar_job(label="S10")])
        tree = one_tree(journal_spans(runner))
        root = tree["roots"][0]
        assert root["name"] == "run"
        names = sorted(r["name"] for r in tree["by_id"].values())
        assert names.count("job") == 2
        assert names.count("sim.execute") == 2
        assert names.count("replay") == 2
        # jobs nest under the run; sim.execute nests under its job
        jobs = [r for r in tree["by_id"].values() if r["name"] == "job"]
        assert all(j["parent_id"] == root["span_id"] for j in jobs)
        sims = [r for r in tree["by_id"].values()
                if r["name"] == "sim.execute"]
        assert {s["parent_id"] for s in sims} <= {j["span_id"]
                                                  for j in jobs}
        assert all(j["attrs"]["mode"] == "serial" for j in jobs)

    def test_finished_records_join_spans(self):
        runner = JobRunner(options(trace_sample=1.0), execute=echo_execute)
        runner.run([bar_job("a")])
        finished = [r for r in runner.records if r["rec"] == "job_finish"]
        job_span_ids = {r["span_id"] for r in runner.records
                        if r["rec"] == "span" and r["name"] == "job"}
        assert [r["span"] for r in finished] and \
            set(r["span"] for r in finished) <= job_span_ids

    def test_traced_results_digit_exact(self):
        jobs = [bar_job(label="N"), bar_job(label="S10")]
        plain = JobRunner(options()).run([bar_job(label="N"),
                                          bar_job(label="S10")])
        traced = JobRunner(options(trace_sample=1.0)).run(jobs)
        assert traced == plain


class TestPoolPropagation:
    def test_workers_join_the_run_trace(self, tmp_path):
        runner = JobRunner(options(jobs=2,
                                   manifest_dir=str(tmp_path / "runs"),
                                   trace_sample=1.0))
        runner.run([bar_job(label=label)
                    for label in ("N", "S1", "S10", "U10")])
        tree = one_tree(journal_spans(runner))
        pids = {r["pid"] for r in tree["by_id"].values()}
        assert len(pids) >= 2, "no spans from pool workers"
        sims = [r for r in tree["by_id"].values()
                if r["name"] == "sim.execute"]
        assert len(sims) == 4
        assert any(r["pid"] != tree["roots"][0]["pid"] for r in sims)
        jobs = [r for r in tree["by_id"].values() if r["name"] == "job"]
        assert all(j["attrs"]["mode"] == "pool" for j in jobs)
        # Each worker's sim span nests under the job span that shipped it.
        by_id = tree["by_id"]
        assert all(by_id[s["parent_id"]]["name"] == "job" for s in sims)

    def test_no_trace_context_in_the_environment(self):
        before = {k: v for k, v in os.environ.items()
                  if k.startswith("REPRO_TRACE")}
        runner = JobRunner(options(jobs=2, trace_sample=1.0),
                           execute=echo_execute)
        runner.run([bar_job("a"), bar_job("b")])
        after = {k: v for k, v in os.environ.items()
                 if k.startswith("REPRO_TRACE")}
        assert after == before

    def test_pool_results_digit_exact_with_tracing(self):
        jobs = [bar_job(label=label) for label in ("N", "S10")]
        plain = JobRunner(options()).run(jobs)
        traced = JobRunner(options(jobs=2, trace_sample=1.0)).run(
            [bar_job(label=label) for label in ("N", "S10")])
        assert traced == plain


class TestPoolBrokenFallback:
    def test_fallback_jobs_reparent(self):
        jobs = [SimJob.bar(benchmark=name, machine="m", label=f"L-{name}",
                           instructions=1, warmup=0, seed=0)
                for name in ("ok-a", "kill-1", "ok-b")]
        sink = CollectingSink()
        runner = JobRunner(options(jobs=2, trace_sample=1.0),
                           execute=chaos_execute, sinks=[sink])
        results = runner.run(jobs)
        assert all(r is not None for r in results)
        assert runner.stats.pool_breaks == 1

        records = [r for r in runner.records if r["rec"] == "span"]
        tree = build_tree(records)
        root = tree["roots"][0]
        assert root["name"] == "run"
        job_spans = [r for r in records if r["name"] == "job"]
        # Orphaned pool spans are closed as errors; the serial re-run
        # re-parents every job to the same run span.
        modes = {r["attrs"]["mode"] for r in job_spans}
        assert "serial_fallback" in modes
        fallback = [r for r in job_spans
                    if r["attrs"]["mode"] == "serial_fallback"]
        assert all(r["parent_id"] == root["span_id"] for r in fallback)
        broken = [r for r in job_spans
                  if (r.get("attrs") or {}).get("pool_broken")]
        assert broken and all(r["status"] == "error" for r in broken)
        # same trace id across the break
        assert {r["trace_id"] for r in records} == {root["trace_id"]}


class TestJournalLink:
    def test_span_records_share_the_run_journal(self, tmp_path):
        runner = JobRunner(options(trace_sample=1.0,
                                   manifest_dir=str(tmp_path / "runs")))
        runner.run([bar_job()])
        with open(runner.last_manifest) as fh:
            manifest = json.load(fh)
        assert manifest["journal_path"] == runner.last_journal
        assert os.path.dirname(runner.last_journal) == \
            os.path.dirname(runner.last_manifest)
        spans = journal_spans(runner)
        assert spans and spans[0]["trace_id"]
        assert {s["attrs"].get("run_id") for s in spans
                if s["name"] == "run"} == {manifest["run_id"]}

    def test_span_left_open_is_kept_unfinished(self, tmp_path):
        def leave_open(job):
            tracer, parent = ambient()
            tracer.start_span("dangling", parent=parent)
            return {"label": job.label}

        runner = JobRunner(options(trace_sample=1.0,
                                   manifest_dir=str(tmp_path / "runs")),
                           execute=leave_open)
        runner.run([bar_job()])
        [dangling] = [r for r in journal_spans(runner)
                      if r["name"] == "dangling"]
        assert dangling["status"] == "unfinished"
        assert dangling["end"] >= dangling["start"]

    def test_untraced_journal_holds_no_spans(self, tmp_path):
        runner = JobRunner(options(manifest_dir=str(tmp_path / "runs")))
        runner.run([bar_job()])
        assert journal_spans(runner) == []
