"""End-to-end HTTP tests for the reduction service.

Each test runs a live server on its process pool, so they exercise the
whole stack — asyncio HTTP front-end, admission control, fair
dispatch, pool fan-out, commit, graceful drain, the load generator.
The CI ``service`` job and the perfbench ``service-mix`` workload drive
the real CLI.
"""

import threading
from contextlib import contextmanager

import pytest

from repro.harness.experiments import (
    ExperimentConfig,
    InstanceOutcome,
    outcome_signature,
)
from repro.observability.sink import load_traces, summarize
from repro.parallel.procpool import spawn_pool
from repro.parallel.scheduler import StoreSpec, run_instance_task
from repro.service import (
    ReductionService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    TenantPolicy,
)
from repro.service.jobs import (
    Job,
    JobRequest,
    job_config,
    job_spec,
    workload_pairs,
)
from repro.service.loadgen import build_jobs, run_loadgen
from repro.service.server import serve

BID, DECOMPILER = workload_pairs("tiny", 1)[0]


def tiny_job(tenant: str = "acme") -> dict:
    return {
        "tenant": tenant,
        "benchmark_id": BID,
        "decompiler": DECOMPILER,
        "profile": "tiny",
    }


@contextmanager
def running_service(**overrides):
    """A live server on a free port; always shut down."""
    kwargs = dict(
        host="127.0.0.1",
        port=0,
        workers=2,
        base_config=ExperimentConfig(strategies=("our-reducer",)),
    )
    trace_path = overrides.pop("trace_path", None)
    kwargs.update(overrides)
    config = ServiceConfig(**kwargs)
    ready = {}
    up = threading.Event()

    def _ready(host, port):
        ready.update(host=host, port=port)
        up.set()

    thread = threading.Thread(
        target=serve,
        args=(config,),
        kwargs={"trace_path": trace_path, "ready": _ready},
        daemon=True,
    )
    thread.start()
    assert up.wait(30), "server did not come up"
    client = ServiceClient(ready["host"], ready["port"])
    client.wait_until_up()
    try:
        yield client
    finally:
        try:
            client.shutdown()
        except (ServiceError, OSError):
            pass  # already shut down by the test
        thread.join(timeout=60)
        assert not thread.is_alive(), "serve loop leaked its thread"


class TestServiceConfig:
    def test_process_is_the_only_backend(self):
        assert ServiceConfig(backend="process").backend == "process"
        with pytest.raises(ValueError, match="backend"):
            ServiceConfig(backend="thread")


class TestLifecycle:
    def test_submit_wait_status_stats(self, tmp_path):
        store = StoreSpec(path=str(tmp_path / "store"))
        with running_service(store_spec=store) as client:
            assert client.health()["status"] == "ok"
            accepted = client.submit(tiny_job())
            record = client.wait(accepted["job_id"])
            assert record["status"] == "success"
            assert record["outcome"]["final_classes"] > 0
            assert record["latency_seconds"] > 0
            listed = client.jobs(tenant="acme")
            assert [row["job_id"] for row in listed] == [record["job_id"]]
            assert client.jobs(tenant="ghost") == []
            stats = client.stats()
            assert stats["tenants"]["acme"]["completed"] == 1
            assert stats["queue_depth"] == 0

    @pytest.mark.parametrize(
        "job",
        [{"tenant": "acme"}, dict(tiny_job(), config={"speculate": 0})],
        ids=["no-benchmark", "bad-config"],
    )
    def test_invalid_job_is_400(self, job):
        with running_service() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(job)
            assert excinfo.value.status == 400
            assert "job_id" not in excinfo.value.body
            acme = client.stats()["tenants"].get("acme", {})
            assert acme.get("admitted", 0) == 0
            assert acme.get("quota_jobs", 0) == 0

    def test_bad_config_error_matches_cli(self, capsys):
        from repro.cli import main

        assert main(["bench", "--speculate", "0"]) == 1
        cli_error = capsys.readouterr().err.strip()
        with running_service() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(dict(tiny_job(), config={"speculate": 0}))
        assert cli_error == f"jlreduce: {excinfo.value.body['error']}"

    def test_unknown_job_is_404(self):
        with running_service() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.job("j999999")
            assert excinfo.value.status == 404

    def test_unknown_route_is_404(self):
        with running_service() as client:
            status, _ = client._request("GET", "/v2/nothing")
            assert status == 404


class TestDrain:
    def test_drain_completes_accepted_rejects_new(self):
        with running_service() as client:
            accepted = client.submit(tiny_job())
            client.drain()
            with pytest.raises(ServiceError) as excinfo:
                client.submit(tiny_job())
            assert excinfo.value.status == 503
            assert excinfo.value.body["status"] == "draining"
            # The job accepted before the drain still completes.
            record = client.wait(accepted["job_id"])
            assert record["status"] == "success"


class TestTenantQuotas:
    def test_concurrent_exhaustion_stays_per_tenant(self):
        """Two tenants submit simultaneously; one exhausts its quota.

        The capped tenant must see 429 ``quota`` refusals while the
        free tenant's jobs all complete — a latched ``Budget`` never
        leaks across tenants.
        """
        with running_service(
            policies={"capped": TenantPolicy(max_jobs=2)},
        ) as client:
            barrier = threading.Barrier(2)
            results = {"capped": [], "free": []}

            def submit_all(tenant: str, count: int) -> None:
                barrier.wait()
                for _ in range(count):
                    try:
                        results[tenant].append(
                            client.submit(tiny_job(tenant))
                        )
                    except ServiceError as exc:
                        results[tenant].append(exc)

            threads = [
                threading.Thread(target=submit_all, args=("capped", 6)),
                threading.Thread(target=submit_all, args=("free", 4)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)

            capped_ok = [
                r for r in results["capped"] if isinstance(r, dict)
            ]
            capped_429 = [
                r for r in results["capped"]
                if isinstance(r, ServiceError)
            ]
            assert len(capped_ok) == 2
            assert len(capped_429) == 4
            for refusal in capped_429:
                assert refusal.status == 429
                assert refusal.body["reason"] == "quota"
                assert refusal.body["retry_after"] == 60.0
            # Every free-tenant submission was admitted and completes.
            assert all(isinstance(r, dict) for r in results["free"])
            for accepted in results["free"]:
                record = client.wait(accepted["job_id"])
                assert record["status"] == "success"
            stats = client.stats()
            assert stats["tenants"]["capped"]["quota_exhausted"]
            assert not stats["tenants"]["free"]["quota_exhausted"]


class TestIdentity:
    def test_service_outcome_matches_offline_run(self, tmp_path):
        """A job through the service equals the same spec run offline."""
        store = StoreSpec(path=str(tmp_path / "store"))
        with running_service(store_spec=store) as client:
            accepted = client.submit(tiny_job())
            record = client.wait(accepted["job_id"])
        assert record["status"] == "success"
        service_outcome = InstanceOutcome(**record["outcome"])

        request = JobRequest.from_payload(tiny_job())
        offline = Job(
            job_id="offline", request=request, serial=record["serial"],
            config=job_config(
                request, ExperimentConfig(strategies=("our-reducer",))
            ),
        )
        spec = job_spec(
            offline,
            # Its own cold store: both runs see a first-touch store, so
            # even the store counters in the signature must agree.
            store_spec=StoreSpec(path=str(tmp_path / "offline-store")),
        )
        # In a worker process, as the service runs it: the worker's
        # cached store handle closes when the worker exits.
        with spawn_pool(1) as pool:
            result = pool.submit(run_instance_task, spec).result()
        assert result.error is None
        offline_outcome = result.strategies[0].outcome

        def canonical(outcome):
            # The service outcome crossed JSON (tuples became lists);
            # put both signatures through the same normalization.
            import json

            return json.loads(
                json.dumps(outcome_signature(outcome), sort_keys=True)
            )

        assert canonical(service_outcome) == canonical(offline_outcome)


class TestTraceIntegration:
    def test_trace_has_job_spans_and_no_dangling_parents(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        store = StoreSpec(path=str(tmp_path / "store"))
        with running_service(
            store_spec=store, trace_path=str(trace)
        ) as client:
            for tenant in ("acme", "beta"):
                record = client.wait(
                    client.submit(tiny_job(tenant))["job_id"]
                )
                assert record["status"] == "success"
        events = load_traces([str(trace)])
        spans = [e for e in events if e.get("type") == "span"]
        job_spans = [s for s in spans if s["name"] == "service.job"]
        assert len(job_spans) == 2
        span_ids = {s["span_id"] for s in spans}
        for span in spans:
            parent = span.get("parent_span_id")
            assert parent is None or parent in span_ids, (
                f"dangling parent {parent!r} on {span['name']}"
            )
        summary = summarize(events)
        service = summary["service"]
        assert service["completed"] == 2
        assert set(service["tenants"]) == {"acme", "beta"}
        for tenant in ("acme", "beta"):
            latency = service["tenants"][tenant]["latency"]
            assert latency["count"] == 1
            assert latency["p95"] > 0


class TestLoadgen:
    def test_two_tenant_mix_completes(self):
        jobs = build_jobs({"acme": 3, "beta": 1}, 4, profile="tiny",
                          benchmarks=1)
        with running_service() as client:
            curve = run_loadgen(
                client.host, client.port, jobs, concurrency=2
            )
        assert curve["completed"] == 4
        assert curve["errors"] == curve["gave_up"] == 0
        assert set(curve["per_tenant"]) == {"acme", "beta"}
        latency = curve["latency"]
        assert latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_queue_full_refusals_are_retried_to_completion(self):
        jobs = build_jobs({"acme": 1}, 8, profile="tiny", benchmarks=1)
        with running_service(
            default_policy=TenantPolicy(max_queue_depth=1)
        ) as client:
            curve = run_loadgen(
                client.host, client.port, jobs, concurrency=8
            )
        assert curve["completed"] == 8
        assert curve["errors"] == curve["gave_up"] == 0
        assert curve["retries_429"] >= 1

    def test_a_job_the_server_lost_ends_as_an_error(self, monkeypatch):
        # Every status request answers 404; the generator must give the
        # job up as an error rather than poll it forever.
        monkeypatch.setattr(
            ReductionService, "job_status", lambda self, job_id: None
        )
        jobs = build_jobs({"acme": 1}, 1, profile="tiny", benchmarks=1)
        curves = []
        with running_service() as client:
            runner = threading.Thread(
                target=lambda: curves.append(run_loadgen(
                    client.host, client.port, jobs, concurrency=1
                )),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=60)
            assert not runner.is_alive(), "loadgen polled a 404 forever"
        assert curves[0]["errors"] == 1
        assert curves[0]["completed"] == curves[0]["gave_up"] == 0
