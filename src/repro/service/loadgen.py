"""A closed-loop load generator for the reduction service.

A service load test needs a measured curve: jobs/sec and p50/p95/p99
end-to-end latency with up to ``concurrency`` jobs in flight at once.
Each job's lifetime (submit → poll → terminal state) runs on one thread
of a pool through the blocking :class:`~repro.service.client.ServiceClient`;
the server's work is waiting on its workers, so a thread per in-flight
job is cheap.  Jobs carry per-tenant attribution, and backpressure is
handled honestly: a 429 sleeps the server's ``retry_after`` hint (capped)
and resubmits, and the retries are counted, not hidden.  Each job
returns its own result and the calling thread tallies them.

Used by ``jlreduce loadgen``; ``tests/service/test_server.py`` and the
CI ``service`` job drive it at a live server.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.observability.sink import percentile
from repro.service.client import ServiceClient, ServiceError

__all__ = ["build_jobs", "run_loadgen"]

#: Submission attempts per job before the generator gives up on it.
MAX_SUBMIT_ATTEMPTS = 200


def build_jobs(
    tenants: Dict[str, int],
    total: int,
    profile: str = "small",
    benchmarks: int = 3,
    strategy: str = "our-reducer",
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    config: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """A deterministic tenant-mix job list.

    ``tenants`` maps name → share; jobs are dealt proportionally
    (largest-remainder) and interleaved round-robin, cycling through
    the runnable (benchmark, decompiler) pairs of the profile's first
    ``benchmarks`` benchmarks (or an explicit ``pairs`` list) so
    repeat specs exercise the warm store.
    """
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if not tenants:
        raise ValueError("need at least one tenant")
    shares = sum(tenants.values())
    if shares <= 0:
        raise ValueError("tenant shares must sum > 0")
    if pairs is None:
        from repro.service.jobs import workload_pairs

        pairs = workload_pairs(profile, benchmarks)
    if not pairs:
        raise ValueError(f"profile {profile!r} yields no runnable pairs")
    counts = {
        name: (share * total) // shares for name, share in tenants.items()
    }
    remainders = sorted(
        tenants,
        key=lambda name: (
            -((tenants[name] * total) % shares), name
        ),
    )
    short = total - sum(counts.values())
    for name in remainders[:short]:
        counts[name] += 1
    queues = {
        name: [
            {
                "tenant": name,
                "benchmark_id": pairs[i % len(pairs)][0],
                "profile": profile,
                "strategy": strategy,
                "decompiler": pairs[i % len(pairs)][1],
                **({"config": dict(config)} if config else {}),
            }
            for i in range(counts[name])
        ]
        for name in tenants
    }
    jobs: List[Dict[str, Any]] = []
    names = sorted(tenants)
    while any(queues.values()):
        for name in names:
            if queues[name]:
                jobs.append(queues[name].pop(0))
    return jobs


def _drive_job(
    client: ServiceClient, job: Dict[str, Any], poll_seconds: float
) -> Tuple[str, int, float]:
    """One job's lifetime, submit through terminal status.

    Returns ``(verdict, retries_429, latency)``: the verdict is
    ``"completed"``, ``"error"`` (a refusal other than 429, a failed
    job, a status the server would not answer, or a connection error)
    or ``"gave_up"`` (still refused after :data:`MAX_SUBMIT_ATTEMPTS`).
    """
    start = time.perf_counter()
    retries = 0
    try:
        for _ in range(MAX_SUBMIT_ATTEMPTS):
            try:
                job_id = client.submit(job)["job_id"]
                break
            except ServiceError as exc:
                if exc.status != 429:
                    return "error", retries, 0.0
                retries += 1
                hint = exc.body.get("retry_after") or 1.0
                # The hint shapes load honestly, but a bench must not
                # sleep a full server minute per refusal.
                time.sleep(min(float(hint), 0.25))
        else:
            return "gave_up", retries, 0.0
        record = client.wait(
            job_id, timeout=math.inf, poll_seconds=poll_seconds
        )
    except (ServiceError, OSError):
        return "error", retries, 0.0
    if record["status"] == "error":
        return "error", retries, 0.0
    return "completed", retries, time.perf_counter() - start


def _latency_stats(values: Sequence[float]) -> Dict[str, float]:
    return {
        "count": len(values),
        "mean": sum(values) / len(values) if values else 0.0,
        "p50": percentile(values, 0.50),
        "p95": percentile(values, 0.95),
        "p99": percentile(values, 0.99),
        "max": max(values) if values else 0.0,
    }


def run_loadgen(
    host: str,
    port: int,
    jobs: Sequence[Dict[str, Any]],
    concurrency: int = 100,
    poll_seconds: float = 0.02,
) -> Dict[str, Any]:
    """Drive a job list at the service; returns the measured curve.

    ``concurrency`` bounds jobs simultaneously in their submit→done
    lifetime — the "100+ concurrent jobs" axis of the curve.  Latency
    is end-to-end per job (submission attempt through observed terminal
    status), so queueing and backpressure show up in the percentiles,
    exactly as a tenant would experience them.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    client = ServiceClient(host, port)
    start = time.perf_counter()
    with ThreadPoolExecutor(max(1, min(concurrency, len(jobs)))) as pool:
        results = list(pool.map(
            lambda job: _drive_job(client, job, poll_seconds), jobs
        ))
    wall = time.perf_counter() - start
    latencies: List[float] = []
    by_tenant: Dict[str, List[float]] = {}
    failed = {"error": 0, "gave_up": 0}
    for job, (verdict, _, latency) in zip(jobs, results):
        if verdict == "completed":
            latencies.append(latency)
            by_tenant.setdefault(job["tenant"], []).append(latency)
        else:
            failed[verdict] += 1
    completed = len(latencies)
    return {
        "jobs": len(jobs),
        "concurrency": concurrency,
        "completed": completed,
        "errors": failed["error"],
        "gave_up": failed["gave_up"],
        "retries_429": sum(retries for _, retries, _ in results),
        "wall_seconds": round(wall, 4),
        "jobs_per_second": round(completed / wall, 3) if wall else 0.0,
        "latency": _latency_stats(latencies),
        "per_tenant": {
            tenant: _latency_stats(values)
            for tenant, values in sorted(by_tenant.items())
        },
    }
