"""Tests for multi-tenant admission control (queues, quotas, fairness)."""

import pytest

from repro.service.admission import AdmissionController, TenantPolicy
from repro.service.jobs import Job, JobRequest


def job(tenant: str, serial: int = 0) -> Job:
    request = JobRequest.from_payload(
        {"tenant": tenant, "benchmark_id": "b000", "profile": "tiny"}
    )
    return Job(job_id=f"{tenant}-{serial}", request=request, serial=serial)


class TestTenantQuota:
    def test_unlimited_always_admits(self):
        controller = AdmissionController()
        assert controller.submit(job("acme", 0)).admitted
        controller.record_completion("acme", 1.0, 1e9)
        assert controller.submit(job("acme", 1)).admitted
        stats = controller.stats()["acme"]
        assert not stats["quota_exhausted"]
        assert stats["quota_jobs"] == 2

    def test_job_quota_latches(self):
        controller = AdmissionController(
            default_policy=TenantPolicy(max_jobs=2)
        )
        assert controller.submit(job("acme", 0)).admitted
        assert controller.submit(job("acme", 1)).admitted
        verdict = controller.submit(job("acme", 2))
        assert not verdict.admitted
        assert verdict.reason == "quota"
        assert verdict.detail == (
            "tenant 'acme': predicate budget exhausted (call budget): "
            "2 calls (max 2), 0.0s simulated (max None)"
        )
        assert controller.stats()["acme"]["quota_exhausted"]
        # Latched: a completion afterwards never un-exhausts it.
        controller.next_job()
        controller.record_completion("acme", 1.0, 0.0)
        verdict = controller.submit(job("acme", 3))
        assert verdict.reason == "quota"
        assert "already exhausted" in verdict.detail
        assert controller.stats()["acme"]["rejected"]["quota"] == 2

    def test_seconds_quota_charged_at_settle(self):
        controller = AdmissionController(
            default_policy=TenantPolicy(max_seconds=100.0)
        )
        assert controller.submit(job("acme", 0)).admitted
        # Over-spending latches without raising into the caller.
        controller.record_completion("acme", 1.0, 250.0)
        verdict = controller.submit(job("acme", 1))
        assert not verdict.admitted
        assert verdict.reason == "quota"
        stats = controller.stats()["acme"]
        assert stats["quota_seconds"] == pytest.approx(250.0)
        assert stats["quota_exhausted"]


class TestQueueBound:
    def test_queue_full_rejects_with_retry_after(self):
        controller = AdmissionController(
            default_policy=TenantPolicy(max_queue_depth=2)
        )
        assert controller.submit(job("acme", 0)).admitted
        assert controller.submit(job("acme", 1)).admitted
        verdict = controller.submit(job("acme", 2))
        assert not verdict.admitted
        assert verdict.reason == "queue_full"
        assert 1.0 <= verdict.retry_after <= 60.0

    def test_dispatch_frees_queue_slots(self):
        controller = AdmissionController(
            default_policy=TenantPolicy(max_queue_depth=1)
        )
        assert controller.submit(job("acme", 0)).admitted
        assert not controller.submit(job("acme", 1)).admitted
        assert controller.next_job() is not None
        assert controller.submit(job("acme", 2)).admitted

    def test_retry_after_scales_with_observed_latency(self):
        controller = AdmissionController(
            default_policy=TenantPolicy(max_queue_depth=4),
            dispatch_width=1,
        )
        for _ in range(8):
            controller.record_completion("acme", 10.0, 0.0)
        for serial in range(4):
            controller.submit(job("acme", serial))
        verdict = controller.submit(job("acme", 9))
        assert not verdict.admitted
        assert verdict.retry_after > 5.0


class TestQuotaIsolation:
    def test_exhaustion_never_leaks_across_tenants(self):
        controller = AdmissionController(
            default_policy=TenantPolicy(),
            policies={"capped": TenantPolicy(max_jobs=1)},
        )
        assert controller.submit(job("capped", 0)).admitted
        verdict = controller.submit(job("capped", 1))
        assert not verdict.admitted
        assert verdict.reason == "quota"
        assert verdict.retry_after == 60.0
        # The other tenant's budget is a different latched instance.
        for serial in range(5):
            assert controller.submit(job("free", serial)).admitted
        stats = controller.stats()
        assert stats["capped"]["quota_exhausted"]
        assert not stats["free"]["quota_exhausted"]
        assert stats["free"]["rejected"]["quota"] == 0


class TestWeightedFairDispatch:
    def test_stride_order_respects_weights(self):
        controller = AdmissionController(
            default_policy=TenantPolicy(max_queue_depth=16),
            policies={"heavy": TenantPolicy(weight=2.0,
                                            max_queue_depth=16)},
        )
        for serial in range(4):
            controller.submit(job("alight", serial))
        for serial in range(4):
            controller.submit(job("heavy", serial))
        order = []
        while True:
            popped = controller.next_job()
            if popped is None:
                break
            order.append(popped.request.tenant)
        # Stride scheduling: the weight-2 tenant drains twice as fast.
        assert order == [
            "alight", "heavy", "heavy",
            "alight", "heavy", "heavy",
            "alight", "alight",
        ]

    def test_waking_tenant_gets_no_banked_credit(self):
        controller = AdmissionController(
            default_policy=TenantPolicy(max_queue_depth=16)
        )
        for serial in range(4):
            controller.submit(job("busy", serial))
        for _ in range(3):
            controller.next_job()
        # A late-arriving tenant re-enters at the active minimum; it
        # must not win every slot just because it was idle.
        controller.submit(job("asleep", 0))
        controller.submit(job("asleep", 1))
        order = []
        while True:
            popped = controller.next_job()
            if popped is None:
                break
            order.append(popped.request.tenant)
        assert order.count("busy") == 1
        assert order[0] != order[1] or order[0] == "asleep"


class TestCompletionAccounting:
    def test_stats_track_completions_and_failures(self):
        controller = AdmissionController()
        controller.submit(job("acme", 0))
        controller.next_job()
        controller.record_completion("acme", 1.5, 33.0)
        controller.record_completion("acme", 2.0, 33.0, failed=True)
        stats = controller.stats()["acme"]
        assert stats["completed"] == 1
        assert stats["failed"] == 1
        assert stats["quota_seconds"] == pytest.approx(66.0)
