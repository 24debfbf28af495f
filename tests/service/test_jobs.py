"""Tests for the service job model (wire validation, task bridging)."""

import base64

import pytest

from repro.harness.experiments import ExperimentConfig
from repro.service.jobs import (
    Job,
    JobRequest,
    job_config,
    job_spec,
    workload_pairs,
)


def request(**overrides) -> JobRequest:
    payload = {"tenant": "acme", "benchmark_id": "b000", "profile": "tiny"}
    payload.update(overrides)
    return JobRequest.from_payload(payload)


class TestJobRequestValidation:
    def test_minimal_workload_payload(self):
        req = request()
        assert req.tenant == "acme"
        assert req.strategy == "our-reducer"
        assert req.scenario == "reduction"

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown job fields"):
            request(color="red")

    @pytest.mark.parametrize("tenant", ["", "-lead", "a" * 65, "sp ace"])
    def test_bad_tenant_rejected(self, tenant):
        with pytest.raises(ValueError, match="tenant"):
            request(tenant=tenant)

    def test_bad_scenario_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            request(scenario="chaos")

    def test_unknown_decompiler_rejected(self):
        with pytest.raises(ValueError, match="decompiler"):
            request(decompiler="omega")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            request(strategy="magic")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            request(profile="galactic")

    def test_workload_benchmark_id_shape(self):
        with pytest.raises(ValueError, match="benchmark_id"):
            request(benchmark_id="banana")

    def test_invalid_base64_rejected(self):
        with pytest.raises(ValueError, match="base64"):
            request(app_b64="!!!not-base64!!!")

    def test_app_jobs_skip_profile_validation(self):
        blob = base64.b64encode(b"whatever").decode("ascii")
        req = request(
            benchmark_id="custom-app", profile="n/a", app_b64=blob
        )
        assert req.app_b64 == blob

    def test_non_int_app_seed_rejected(self):
        with pytest.raises(ValueError, match="app_seed"):
            request(app_seed="7")

    def test_config_must_be_object(self):
        with pytest.raises(ValueError, match="config"):
            request(config=[1, 2])


class TestJobLifecycle:
    def test_legal_path(self):
        job = Job(job_id="j0", request=request(), serial=0)
        assert job.state == "queued"
        job.advance("running")
        assert job.queue_seconds is not None
        job.advance("success")
        assert job.latency_seconds is not None

    @pytest.mark.parametrize("bad", ["success", "error", "queued"])
    def test_illegal_from_queued(self, bad):
        if bad == "queued":
            job = Job(job_id="j0", request=request(), serial=0)
            with pytest.raises(ValueError, match="illegal transition"):
                job.advance("queued")
        else:
            job = Job(job_id="j0", request=request(), serial=0)
            with pytest.raises(ValueError, match="illegal transition"):
                job.advance(bad)

    def test_terminal_states_are_final(self):
        job = Job(job_id="j0", request=request(), serial=0)
        job.advance("running")
        job.advance("error")
        with pytest.raises(ValueError, match="illegal transition"):
            job.advance("running")

    def test_to_dict_never_echoes_app_bytes(self):
        blob = base64.b64encode(b"secret").decode("ascii")
        job = Job(
            job_id="j0",
            request=request(benchmark_id="x", profile="n/a", app_b64=blob),
            serial=0,
        )
        assert "app_b64" not in job.to_dict()


class TestJobConfigBridge:
    def test_tenant_and_strategy_always_win(self):
        base = ExperimentConfig(strategies=("our-reducer", "jreduce"))
        req = request(strategy="jreduce", config={"budget_calls": 9})
        config = job_config(req, base)
        assert config.strategies == ("jreduce",)
        assert config.tenant == "acme"
        assert config.budget_calls == 9

    @pytest.mark.parametrize(
        "config",
        [
            {"workers": 64},
            {"speculate": 0},
            {"retries": -3},
            {"tool_latency_seconds": -1},
            {"probe_backend": "gpu"},
            {"strategies": ["jreduce"]},
            {"tenant": "beta"},
            {"budget_calls": -1},
            {"deadline_seconds": 0},
            {"simulated_seconds_per_run": -5},
            {"probe_backend": "gpu", "speculate": 2},
            {"bogus": 1},
        ],
        ids=lambda config: ",".join(f"{k}={v}" for k, v in config.items()),
    )
    def test_unknown_config_key_rejected(self, config):
        req = request(config=config)
        # The first key is the refused one; the message names it.
        with pytest.raises(ValueError, match=next(iter(config))):
            job_config(req, ExperimentConfig(strategies=("our-reducer",)))


class TestWorkloadPairs:
    def test_tiny_profile_yields_runnable_pairs(self):
        pairs = workload_pairs("tiny", 4)
        assert pairs, "tiny profile must carry at least one instance"
        assert all(bid.startswith("b") for bid, _ in pairs)

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="profile"):
            workload_pairs("galactic", 1)


class TestJobSpec:
    def test_workload_spec_carries_generated_bytes(self):
        bid, decompiler = workload_pairs("tiny", 1)[0]
        req = request(benchmark_id=bid, decompiler=decompiler)
        job = Job(job_id="j0", request=req, serial=7, config=job_config(req))
        spec = job_spec(job)
        assert spec.serial_base == 7
        assert spec.app_bytes
        assert spec.config.tenant == "acme"
        # The generated-app cache makes the repeat free and identical.
        again = job_spec(job)
        assert again.app_bytes is spec.app_bytes

    def test_app_spec_decodes_submitted_bytes(self):
        blob = base64.b64encode(b"\x00\x01serialized").decode("ascii")
        job = Job(
            job_id="j0",
            request=request(
                benchmark_id="custom", profile="n/a",
                app_b64=blob, app_seed=3,
            ),
            serial=0,
        )
        spec = job_spec(job)
        assert spec.app_bytes == b"\x00\x01serialized"
        assert spec.app_seed == 3
