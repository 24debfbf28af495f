"""The ``service-mix`` workload: an open loop against the job server.

Set-up generates the job applications, starts ``serve`` on a thread of
this process (process backend, one worker per usable CPU, one shared
sharded store) and runs one warm-up job per worker so the pool has
spawned before anything is timed.

The timed region is an open loop: jobs are due on a fixed schedule at
:data:`RATE` per second, below the rate the server sustains, so a
stall shows up as latency instead of slowing the generator.  One
submitter thread sends each job when due (a 429 is retried after the
server's hint, from the same thread, without holding up later jobs);
one poller thread reads the job list, the stats endpoint and each
finished job's record.  That is two connections at a time at most.

A job's latency runs from its scheduled send time to the moment the
server recorded its terminal state; the server runs in this process,
so both sides read the same clock.  Unlike the in-process timings,
latency and throughput stay in raw wall seconds: the schedule runs in
real time, and calibration-kernel readings taken in this process did
not track the latency of jobs run by the workers (scaling widened the
run-to-run spread from 0.15 to 0.24).  Only ``setup_s`` is scaled.

Reduction work happens in worker processes the layer wrappers cannot
reach, so the per-layer figures for this workload come from the HTTP
API.

After the timed region, every distinct job is reduced again offline
with ``run_instance`` (in a process pool, one worker per CPU), that
output is certified, and every job's returned outcome must match it.
"""

from __future__ import annotations

import base64
import heapq
import http.client
import json
import os
import statistics
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Any, Dict, List, Optional, Tuple

from repro.bytecode.serializer import (
    deserialize_application,
    serialize_application,
)
from repro.decompiler.oracle import DecompilerOracle
from repro.harness import experiments
from repro.harness.experiments import ExperimentConfig
from repro.parallel.scheduler import StoreSpec
from repro.service.server import ServiceConfig, serve
from repro.workloads.corpus import Benchmark, BuggyInstance

from perfbench import corpus
from perfbench.certify import SolutionCapture, certify
from perfbench.stats import (
    geo_mean, kernel_readings, peak_rss_mb, quantile, ratio, scaled,
    usable_cpus,
)

SETUPS = 3
#: Offered load, jobs per second.
RATE = 8.0
MIN_JOBS = 100
#: Share of each tenant's jobs that repeat one of its earlier jobs.
REPEAT_SHARE = 0.25
POLL_S = 0.05
MAX_ATTEMPTS = 20
#: How long after the last due time unfinished jobs count as failed.
DRAIN_S = 60.0
#: Outcome fields a job's result must share with the offline reference.
COMPARED = ("total_bytes", "final_bytes", "final_classes")


class Client:
    """One request per connection, as the server speaks it."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port

    def request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, Dict[str, Any]]:
        body = None if payload is None else json.dumps(payload)
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=30
        )
        try:
            connection.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()


class Server:
    """``serve`` on a background thread, stopped through the API."""

    def __init__(self, store_path: str) -> None:
        self.config = ServiceConfig(
            port=0,
            workers=usable_cpus(),
            backend="process",
            store_spec=StoreSpec(store_path),
        )
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=serve, args=(self.config,),
            kwargs={"ready": self._on_ready}, daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(60):
            raise RuntimeError("the service did not start listening")
        self.client = Client(self.host, self.port)

    def _on_ready(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._ready.set()

    def stop(self) -> None:
        if self._thread.is_alive():
            self.client.request("POST", "/v1/shutdown")
            self._thread.join(120)
        if self._thread.is_alive():
            raise RuntimeError("the service did not shut down")


def _payload(tenant: str, instance: corpus.Instance) -> Dict[str, Any]:
    benchmark, buggy = instance
    return {
        "tenant": tenant,
        "benchmark_id": benchmark.benchmark_id,
        "decompiler": buggy.decompiler,
        "app_b64": base64.b64encode(
            serialize_application(benchmark.app)
        ).decode("ascii"),
        "app_seed": benchmark.seed,
    }


def _wait_terminal(client: Client, job_ids: List[str]) -> None:
    deadline = time.monotonic() + 120
    for job_id in job_ids:
        while client.request("GET", f"/v1/jobs/{job_id}")[1].get(
            "status"
        ) not in ("success", "error"):
            if time.monotonic() > deadline:
                raise RuntimeError(f"warm-up job {job_id} did not finish")
            time.sleep(POLL_S)


class Setup:
    """One set-up: the job inputs and a started, warmed-up server."""

    def __init__(self, seed: int, jobs: int, workdir: str) -> None:
        self.plan, distinct = corpus.service_schedule(
            seed, jobs, RATE, REPEAT_SHARE
        )
        self.apps = corpus.tiny_apps(seed, distinct)
        self.payloads = [
            _payload(job.tenant, self.apps[job.app]) for job in self.plan
        ]
        self.server = Server(os.path.join(workdir, "store"))
        try:
            warmups = corpus.tiny_apps(seed, self.server.config.workers, 10_000)
            ids = [
                self.server.client.request(
                    "POST", "/v1/jobs", _payload("warmup", app)
                )[1]["job_id"]
                for app in warmups
            ]
            _wait_terminal(self.server.client, ids)
        except BaseException:
            self.server.stop()
            raise


class OpenLoop:
    """The submitter and the poller of one timed region."""

    def __init__(self, client: Client, setup: Setup) -> None:
        self.client = client
        self.setup = setup
        count = len(setup.plan)
        self.job_ids: List[Optional[str]] = [None] * count
        self.gave_up: List[str] = [""] * count
        self.lag: List[float] = []
        self.submit_s: List[float] = []
        self.refused = 0
        self.records: Dict[str, Dict[str, Any]] = {}
        self.depth_max = 0
        self.poll_gaps: List[float] = []
        self._submitted = threading.Event()

    def run(self) -> float:
        """Run the loop; returns the unix time of the first due job."""
        self.start_perf = time.perf_counter()
        self.start_unix = time.time()
        submitter = threading.Thread(target=self._submit)
        poller = threading.Thread(target=self._poll)
        submitter.start()
        poller.start()
        submitter.join()
        poller.join()
        return self.start_unix

    def _submit(self) -> None:
        try:
            due = [
                (self.start_perf + job.due_s, index, 0)
                for index, job in enumerate(self.setup.plan)
            ]
            heapq.heapify(due)
            while due:
                when, index, attempt = heapq.heappop(due)
                time.sleep(max(0.0, when - time.perf_counter()))
                sent = time.perf_counter()
                if attempt == 0:
                    self.lag.append(sent - when)
                try:
                    status, body = self.client.request(
                        "POST", "/v1/jobs", self.setup.payloads[index]
                    )
                except (OSError, http.client.HTTPException) as exc:
                    self.gave_up[index] = f"{type(exc).__name__}: {exc}"
                    continue
                self.submit_s.append(time.perf_counter() - sent)
                if status == 202:
                    self.job_ids[index] = body["job_id"]
                elif status == 429 and attempt + 1 < MAX_ATTEMPTS:
                    self.refused += 1
                    retry = float(body.get("retry_after") or 1.0)
                    heapq.heappush(
                        due, (time.perf_counter() + retry, index, attempt + 1)
                    )
                else:
                    self.refused += status == 429
                    self.gave_up[index] = f"HTTP {status}: {body}"
        finally:
            self._submitted.set()

    def _poll(self) -> None:
        deadline = (
            self.start_perf + self.setup.plan[-1].due_s + DRAIN_S
        )
        last = time.perf_counter()
        while time.perf_counter() < deadline:
            time.sleep(POLL_S)
            now = time.perf_counter()
            self.poll_gaps.append(now - last)
            last = now
            # Read before the job ids: once set, every id is recorded.
            submitted = self._submitted.is_set()
            stats = self.client.request("GET", "/v1/stats")[1]
            self.depth_max = max(self.depth_max, stats["queue_depth"])
            rows = self.client.request("GET", "/v1/jobs")[1]["jobs"]
            finished = {
                row["job_id"] for row in rows
                if row["status"] in ("success", "error")
            }
            ours = {job_id for job_id in self.job_ids if job_id}
            for job_id in sorted((finished & ours) - set(self.records)):
                self.records[job_id] = self.client.request(
                    "GET", f"/v1/jobs/{job_id}"
                )[1]
            if submitted and ours <= set(self.records):
                return


def _offline_one(
    app_bytes: bytes, benchmark_id: str, app_seed: int, decompiler: str
) -> Tuple[Dict[str, Any], List[str]]:
    """One app reduced offline and certified: (outcome fields, problems)."""
    app = deserialize_application(app_bytes)
    benchmark = Benchmark(benchmark_id, app_seed, app)
    instance = BuggyInstance(
        benchmark_id, decompiler, DecompilerOracle(app, decompiler)
    )
    with SolutionCapture() as capture:
        outcome = experiments.run_instance(
            benchmark, instance, "our-reducer",
            ExperimentConfig(strategies=("our-reducer",)),
        )
        captured = capture.take_one()
    problems = (
        ["no solution captured"] if captured is None else certify(
            app, decompiler, captured[1], final_bytes=outcome.final_bytes
        )
    )
    if outcome.status != "complete":
        problems.append(f"status {outcome.status}")
    return {key: getattr(outcome, key) for key in COMPARED}, problems


def _offline(setup: Setup) -> List[Tuple[Dict[str, Any], List[str]]]:
    """Every distinct app's offline reference, on every CPU."""
    with ProcessPoolExecutor(
        max_workers=usable_cpus(), mp_context=get_context("spawn")
    ) as pool:
        futures = [
            pool.submit(
                _offline_one, serialize_application(benchmark.app),
                benchmark.benchmark_id, benchmark.seed, instance.decompiler,
            )
            for benchmark, instance in setup.apps
        ]
        return [future.result() for future in futures]


def run(
    name: str, seed: int, seconds: float, trace: bool, workdir: str
) -> Dict[str, Any]:
    """One run of ``service-mix``; see :func:`perfbench.run.main`."""
    jobs = max(MIN_JOBS, int(round(RATE * seconds)))
    setups: List[float] = []
    raw_setups: List[float] = []
    setup: Optional[Setup] = None
    for attempt in range(SETUPS):
        if setup is not None:
            setup.server.stop()
        kernels = kernel_readings()
        start = time.perf_counter()
        setup = Setup(seed, jobs, os.path.join(workdir, f"setup-{attempt}"))
        raw_setups.append(time.perf_counter() - start)
        setups.append(scaled(raw_setups[-1], kernels + kernel_readings()))
    kernels = kernel_readings()
    timed = time.perf_counter()
    try:
        loop = OpenLoop(setup.server.client, setup)
        start_unix = loop.run()
    finally:
        setup.server.stop()
    checked = time.perf_counter()
    offline = _offline(setup)
    kernels += kernel_readings()
    phases = {
        "setups_s": sum(raw_setups),
        "timed_s": checked - timed,
        "check_s": time.perf_counter() - checked,
    }

    failures: List[str] = []
    latency, run_s, queue_s, finished_at, rel = [], [], [], [], []
    hits = lookups = calls = 0
    simulated = 0.0
    for index, job in enumerate(setup.plan):
        label = f"job {index} ({job.tenant})"
        job_id = loop.job_ids[index]
        record = loop.records.get(job_id) if job_id else None
        if record is None:
            failures.append(
                f"{label}: {loop.gave_up[index] or 'not finished in time'}"
            )
            continue
        outcome = record.get("outcome") or {}
        reference, problems = offline[job.app]
        if record["status"] != "success":
            problems = problems + [f"error {record.get('error')}"]
        elif any(outcome.get(key) != reference[key] for key in COMPARED):
            problems = problems + ["differs from the offline reduction"]
        if problems:
            failures += [f"{label}: {p}" for p in problems]
            continue
        done = record["submitted_unix"] + record["latency_seconds"]
        finished_at.append(done)
        latency.append(done - (start_unix + job.due_s))
        queue_s.append(record["queue_seconds"])
        run_s.append(record["latency_seconds"] - record["queue_seconds"])
        rel.append(outcome["final_bytes"] / outcome["total_bytes"])
        hits += outcome["metrics"].get("store.hits", 0)
        lookups += outcome["metrics"].get("store.lookups", 0)
        calls += outcome["predicate_calls"]
        simulated += outcome["simulated_seconds"]

    span = (max(finished_at) - start_unix) if finished_at else 0.0
    result: Dict[str, Any] = {
        "attempted": len(setup.plan),
        "failed": len({f.split(":", 1)[0] for f in failures}),
        "failures": failures[:20],
        "counts": {
            "jobs": len(setup.plan),
            "distinct_apps": len(setup.apps),
            "workers": setup.server.config.workers,
            "rate_per_s": RATE,
        },
        "phases": phases,
        "metrics": {
            "setup_s": (statistics.median(setups), len(setups)),
            "instance_p50_s": (quantile(latency, 0.5), len(latency)),
            "instance_p75_s": (quantile(latency, 0.75), len(latency)),
            "instances_per_s": (ratio(len(finished_at), span), len(finished_at)),
            "rel_bytes_geo": (geo_mean(rel), len(rel)),
            "peak_rss_mb": (peak_rss_mb(), 1),
        },
        "raw": {
            "setup_s": statistics.median(raw_setups),
            "kernel_ms": 1000 * statistics.median(kernels),
        },
        "deterministic": {
            "oracle_calls": calls,
            "sim_s": simulated,
            "rel_bytes_geo": geo_mean(rel),
        },
    }
    if trace:
        result["layers"] = {
            "service.submit_p50_s": quantile(loop.submit_s, 0.5),
            "service.queue_p50_s": quantile(queue_s, 0.5),
            "service.queue_p90_s": quantile(queue_s, 0.9),
            "service.run_p50_s": quantile(run_s, 0.5),
            "service.job_p90_s": quantile(latency, 0.9),
            "service.refused": loop.refused,
            "service.queue_depth_max": loop.depth_max,
            "service.store_hit_ratio": ratio(hits, lookups),
            "service.repeat_share": ratio(
                sum(job.repeat for job in setup.plan), len(setup.plan)
            ),
            "service.poll_s": quantile(loop.poll_gaps, 0.5),
            "loadgen.lag_p90_s": quantile(loop.lag, 0.9),
            "host.kernel_ms": 1000 * statistics.median(kernels),
            # Every reduction ran in a worker process: nothing in this
            # process was wrapped, so nothing is attributed or slowed.
            "unattributed_s": span,
            "trace_overhead": 0.0,
        }
    return result
