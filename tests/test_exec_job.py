"""Cache-key stability and the SimJob model.

The content address must be: stable for equal fields (including across
interpreter processes — no dict-ordering or hash-randomization leakage),
and sensitive to every outcome-determining field, seed and instruction
count included.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec import SCHEMA_VERSION, SimJob, execute_job
from repro.exec.job import bar_result_from_dict


def bar_job(**overrides):
    fields = dict(benchmark="espresso", machine="ooo", label="S10",
                  instructions=4000, warmup=1000, seed=0)
    fields.update(overrides)
    return SimJob.bar(**fields)


class TestCacheKeyStability:
    def test_same_fields_same_key(self):
        assert bar_job().cache_key() == bar_job().cache_key()

    def test_key_is_hex_sha256(self):
        key = bar_job().cache_key()
        assert len(key) == 64
        int(key, 16)  # parses as hex

    def test_same_key_across_processes(self):
        """PYTHONHASHSEED must not leak into the content address."""
        code = (
            "from repro.exec import SimJob;"
            "print(SimJob.bar(benchmark='espresso', machine='ooo',"
            " label='S10', instructions=4000, warmup=1000,"
            " seed=0).cache_key())"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        keys = set()
        for hashseed in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONPATH=src,
                         PYTHONHASHSEED=hashseed),
                capture_output=True, text=True, check=True)
            keys.add(out.stdout.strip())
        keys.add(bar_job().cache_key())
        assert len(keys) == 1

    @pytest.mark.parametrize("change", [
        dict(benchmark="ora"),
        dict(machine="inorder"),
        dict(label="S1"),
        dict(instructions=4001),
        dict(warmup=999),
        dict(seed=7),
    ])
    def test_any_field_change_changes_key(self, change):
        assert bar_job().cache_key() != bar_job(**change).cache_key()

    def test_kind_changes_key(self):
        bar = bar_job()
        coh = SimJob.access_control(
            workload="espresso", method="INFORMING",
            machine_params={"processors": 2})
        assert bar.cache_key() != coh.cache_key()

    def test_machine_params_change_key(self):
        a = SimJob.access_control(workload="mixed", method="ECC",
                                  machine_params={"message_latency": 300})
        b = SimJob.access_control(workload="mixed", method="ECC",
                                  machine_params={"message_latency": 900})
        assert a.cache_key() != b.cache_key()

    def test_schema_version_in_key(self, monkeypatch):
        before = bar_job().cache_key()
        monkeypatch.setattr("repro.exec.job.SCHEMA_VERSION",
                            SCHEMA_VERSION + 1)
        assert bar_job().cache_key() != before


class TestSerialization:
    def test_dict_roundtrip(self):
        job = bar_job(seed=3)
        clone = SimJob.from_dict(job.to_dict())
        assert clone == job
        assert clone.cache_key() == job.cache_key()

    def test_config_dict_order_does_not_matter(self):
        a = SimJob.access_control(
            workload="mixed", method="ECC",
            machine_params={"processors": 4, "message_latency": 300})
        b = SimJob.access_control(
            workload="mixed", method="ECC",
            machine_params={"message_latency": 300, "processors": 4})
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_label_is_readable(self):
        assert bar_job().label == "espresso/ooo/S10"

    def test_jobs_are_hashable(self):
        assert len({bar_job(), bar_job(), bar_job(seed=1)}) == 2


class TestExecution:
    def test_unknown_kind_rejected(self):
        job = SimJob(kind="nope", machine="ooo", benchmark="x",
                     instructions=1, warmup=0)
        with pytest.raises(ValueError, match="unknown job kind"):
            execute_job(job)

    def test_bar_job_matches_direct_run_bar(self):
        from repro.harness.runner import bar_config, run_bar

        job = bar_job(instructions=2000, warmup=500)
        via_job = bar_result_from_dict(execute_job(job))
        direct = run_bar("espresso", "ooo", bar_config("S10"), 2000, 500)
        assert via_job == direct

    def test_access_control_job_matches_direct_run(self):
        from dataclasses import asdict

        from repro.coherence import (
            AccessControlMethod,
            CoherenceMachineParams,
            run_access_control_experiment,
        )
        from repro.workloads.parallel import PARALLEL_KERNELS

        machine = CoherenceMachineParams()
        job = SimJob.access_control(workload="mixed", method="ECC",
                                    machine_params=asdict(machine))
        result = execute_job(job)
        direct = run_access_control_experiment(
            PARALLEL_KERNELS["mixed"], AccessControlMethod.ECC,
            machine=machine, name="mixed")
        assert result["execution_time"] == direct.execution_time
        assert result["remote_invalidations"] == direct.remote_invalidations


class TestPolicyKeyStability:
    """The replacement-policy field and the pre-registry key space.

    Every result cached before the policy registry existed was keyed
    with no ``policy`` entry in the config.  The default "lru" must keep
    hashing to that same address (so old caches and the golden captures
    stay reachable), while any non-default policy must move the key.
    """

    def test_default_policy_is_omitted_from_config(self):
        assert "policy" not in bar_job().config_dict()
        assert "policy" not in bar_job(policy="lru").config_dict()

    def test_explicit_lru_matches_pre_registry_key(self):
        assert bar_job(policy="lru").cache_key() == bar_job().cache_key()

    @pytest.mark.parametrize("policy",
                             ["fifo", "random", "plru", "rrip", "brrip"])
    def test_non_default_policy_changes_key(self, policy):
        assert bar_job(policy=policy).cache_key() != bar_job().cache_key()
        assert bar_job(policy=policy).config_dict()["policy"] == policy

    def test_distinct_policies_get_distinct_keys(self):
        keys = {bar_job(policy=p).cache_key()
                for p in ("lru", "fifo", "random", "plru", "rrip", "brrip")}
        assert len(keys) == 6
