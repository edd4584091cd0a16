"""Job-spec validation: HTTP/CLI cache-key parity, structured rejects."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence import TABLE2_MACHINE, AccessControlMethod
from repro.exec import SimJob
from repro.harness.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
from repro.serve.spec import (
    MAX_HANDLER_INSTRUCTIONS,
    MAX_INSTRUCTIONS,
    MAX_PROCESSORS,
    SpecError,
    job_to_spec,
    validate_job_spec,
)
from repro.workloads import SPEC92
from repro.workloads.parallel import PARALLEL_KERNELS

#: Bar labels the harness grids actually use (bar_config's vocabulary).
LABELS = ["N", "S2", "S10", "S50", "U4", "U8", "E16", "E50", "CC2", "CC10"]

bar_specs = st.fixed_dictionaries({
    "kind": st.just("bar"),
    "benchmark": st.sampled_from(sorted(SPEC92)),
    "machine": st.sampled_from(["ooo", "inorder"]),
    "label": st.sampled_from(LABELS),
    "instructions": st.integers(min_value=1, max_value=MAX_INSTRUCTIONS),
    "warmup": st.integers(min_value=0, max_value=MAX_INSTRUCTIONS),
    "seed": st.integers(min_value=-(2 ** 31), max_value=2 ** 31),
})

ac_specs = st.fixed_dictionaries({
    "kind": st.just("access_control"),
    "workload": st.sampled_from(sorted(PARALLEL_KERNELS)),
    "method": st.sampled_from([m.name for m in AccessControlMethod]),
})


class TestCacheKeyParity:
    """An accepted HTTP spec and the equivalent CLI-side construction
    serialize to the same content address."""

    @given(bar_specs)
    @settings(max_examples=100)
    def test_bar_spec_matches_cli_construction(self, spec):
        via_http = validate_job_spec(spec)
        via_cli = SimJob.bar(benchmark=spec["benchmark"],
                             machine=spec["machine"], label=spec["label"],
                             instructions=spec["instructions"],
                             warmup=spec["warmup"], seed=spec["seed"])
        assert via_http.cache_key() == via_cli.cache_key()
        assert via_http.to_dict() == via_cli.to_dict()

    @given(ac_specs)
    @settings(max_examples=50)
    def test_access_control_spec_matches_cli_construction(self, spec):
        via_http = validate_job_spec(spec)
        via_cli = SimJob.access_control(
            workload=spec["workload"], method=spec["method"],
            machine_params=asdict(TABLE2_MACHINE))
        assert via_http.cache_key() == via_cli.cache_key()

    @given(st.one_of(bar_specs, ac_specs))
    @settings(max_examples=100)
    def test_round_trip_preserves_cache_key(self, spec):
        job = validate_job_spec(spec)
        again = validate_job_spec(job_to_spec(job))
        assert again.cache_key() == job.cache_key()


class TestDefaults:
    def test_bar_defaults_match_harness(self):
        job = validate_job_spec({"kind": "bar", "benchmark": "compress",
                                 "machine": "ooo", "label": "S10"})
        assert job.instructions == DEFAULT_INSTRUCTIONS
        assert job.warmup == DEFAULT_WARMUP
        assert job.seed == 0

    def test_kind_defaults_to_bar(self):
        job = validate_job_spec({"benchmark": "compress", "machine": "ooo",
                                 "label": "N"})
        assert job.kind == "bar"

    def test_access_control_defaults_to_table2_machine(self):
        job = validate_job_spec({"kind": "access_control",
                                 "workload": sorted(PARALLEL_KERNELS)[0],
                                 "method": "INFORMING"})
        assert job.config_dict()["machine_params"] == asdict(TABLE2_MACHINE)


#: Labels a shard must never run: not canonical (another cache key for
#: the same simulation), or a handler longer than the paper's largest.
BAD_LABELS = [
    "S03", "U010", "S0", "S\u0663", "CC\u0661", "S\uff11", "S1000000000",
    "U1000000000", "E1000000000", "CC1000000000",
    f"S{MAX_HANDLER_INSTRUCTIONS + 1}", "S" + "1" * 5000, "S+1", " S1",
    "S1 ", "s1", "CC", "C1"]

#: Machines the coherence simulator refuses; each once passed
#: validation and then failed in the shard's run.
BAD_MACHINES = [
    {"l1_size": 3}, {"l1_assoc": 0}, {"processors": 0},
    {"message_latency": -1}, {"coherence_unit": 0}, {"page_size": 0},
    {"coherence_unit": 48}, {"l2_assoc": -2},
    {"processors": MAX_PROCESSORS + 1}]


class TestRejects:
    """Every malformed spec raises SpecError naming the offending field
    (the gateway renders it as a structured 400, never a traceback)."""

    @pytest.mark.parametrize("payload,field", [
        (None, "spec"),
        ([1, 2], "spec"),
        ({"kind": "nope"}, "kind"),
        ({"kind": 3}, "kind"),
        ({"kind": "bar"}, "benchmark"),
        ({"kind": "bar", "benchmark": "notaspec", "machine": "ooo",
          "label": "N"}, "benchmark"),
        ({"kind": "bar", "benchmark": "compress", "machine": "vax",
          "label": "N"}, "machine"),
        ({"kind": "bar", "benchmark": "compress", "machine": "ooo",
          "label": "Z9"}, "label"),
        ({"kind": "bar", "benchmark": "compress", "machine": "ooo",
          "label": "N", "instructions": "many"}, "instructions"),
        ({"kind": "bar", "benchmark": "compress", "machine": "ooo",
          "label": "N", "instructions": True}, "instructions"),
        ({"kind": "bar", "benchmark": "compress", "machine": "ooo",
          "label": "N", "instructions": 0}, "instructions"),
        ({"kind": "bar", "benchmark": "compress", "machine": "ooo",
          "label": "N", "instructions": MAX_INSTRUCTIONS + 1},
         "instructions"),
        ({"kind": "bar", "benchmark": "compress", "machine": "ooo",
          "label": "N", "warmup": -1}, "warmup"),
        ({"kind": "bar", "benchmark": "compress", "machine": "ooo",
          "label": "N", "benchmrk": "typo"}, "benchmrk"),
        ({"kind": "access_control", "workload": "nope",
          "method": "INFORMING"}, "workload"),
        ({"kind": "access_control", "workload": "migratory",
          "method": "MAGIC"}, "method"),
        ({"kind": "access_control", "workload": "migratory",
          "method": "INFORMING", "machine_params": 7}, "machine_params"),
        ({"kind": "access_control", "workload": "migratory",
          "method": "INFORMING",
          "machine_params": {"warp_drive": 1}}, "machine_params"),
        ({"kind": "access_control", "workload": "migratory",
          "method": "INFORMING",
          "machine_params": {"processors": "four"}}, "machine_params"),
    ] + [({"benchmark": "compress", "machine": "ooo", "label": label},
          "label") for label in BAD_LABELS]
      + [({"kind": "access_control", "workload": "migratory",
           "method": "ECC", "machine_params": params}, "machine_params")
         for params in BAD_MACHINES])
    def test_rejected_with_field(self, payload, field):
        with pytest.raises(SpecError) as excinfo:
            validate_job_spec(payload)
        assert excinfo.value.field == field
        body = excinfo.value.to_dict()
        assert body["error"] == "invalid_spec"
        assert body["field"] == field
        assert isinstance(body["message"], str)

    @pytest.mark.parametrize("label", ["N", "S1", "U10", "E10", "CC1",
                                       "S100"])
    def test_canonical_label_accepted(self, label):
        job = validate_job_spec({"benchmark": "compress", "machine": "ooo",
                                 "label": label})
        assert job.config_dict()["label"] == label

    def test_table2_machine_accepted(self):
        params = asdict(TABLE2_MACHINE)
        for method in AccessControlMethod:
            job = validate_job_spec({"kind": "access_control",
                                     "workload": "migratory",
                                     "method": method.name,
                                     "machine_params": params})
            assert job.config_dict()["machine_params"] == params
        validate_job_spec({"kind": "access_control",
                           "workload": "migratory", "method": "ECC",
                           "machine_params": {"processors":
                                              MAX_PROCESSORS}})

    def test_machine_params_override_is_accepted(self):
        params = dict(asdict(TABLE2_MACHINE), message_latency=500)
        job = validate_job_spec({"kind": "access_control",
                                 "workload": "migratory",
                                 "method": "ECC",
                                 "machine_params": {"message_latency": 500}})
        assert job.config_dict()["machine_params"] == params
