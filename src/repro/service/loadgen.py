"""An asyncio load generator for the reduction service.

A service load test needs a measured curve — jobs/sec and p50/p95/p99
end-to-end latency at 100+ *concurrent* jobs — and a blocking client
cannot produce one.  This module drives the service the way a fleet of
tenants would: up to ``concurrency`` jobs in flight at once (submit →
poll → terminal state counts as one job's lifetime), per-tenant
attribution, and honest handling of backpressure (a 429 sleeps the
server's ``retry_after`` hint and resubmits; the retries are counted,
not hidden).

Used by ``jlreduce loadgen``; ``tests/service/test_server.py`` and the
CI ``service`` job drive it at a live server.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.observability.sink import percentile

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


# ----------------------------------------------------------------------
# Raw asyncio HTTP (the client side of server.py's HTTP subset)
# ----------------------------------------------------------------------


async def _http_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
    timeout: float = 30.0,
) -> Tuple[int, Dict[str, Any]]:
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=timeout
    )
    try:
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Content-Type: application/json\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        status_line = await asyncio.wait_for(
            reader.readline(), timeout=timeout
        )
        status = int(status_line.split()[1])
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        raw = await reader.readexactly(content_length)
        return status, json.loads(raw.decode("utf-8")) if raw else {}
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------


class _Tally:
    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.by_tenant: Dict[str, List[float]] = {}
        self.errors = 0
        self.retries_429 = 0
        self.gave_up = 0


async def _drive_job(
    host: str,
    port: int,
    job: Dict[str, Any],
    sem: asyncio.Semaphore,
    tally: _Tally,
    poll_seconds: float,
) -> None:
    async with sem:
        start = time.perf_counter()
        job_id = None
        for _ in range(MAX_SUBMIT_ATTEMPTS):
            status, body = await _http_json(
                host, port, "POST", "/v1/jobs", job
            )
            if status == 202:
                job_id = body["job_id"]
                break
            if status == 429:
                tally.retries_429 += 1
                hint = body.get("retry_after") or 1.0
                # The hint shapes load honestly, but a bench must not
                # sleep a full server minute per refusal.
                await asyncio.sleep(min(float(hint), 0.25))
                continue
            tally.errors += 1
            return
        if job_id is None:
            tally.gave_up += 1
            return
        while True:
            status, body = await _http_json(
                host, port, "GET", f"/v1/jobs/{job_id}"
            )
            if status == 200 and body["status"] in ("success", "error"):
                break
            await asyncio.sleep(poll_seconds)
        latency = time.perf_counter() - start
        if body["status"] == "error":
            tally.errors += 1
            return
        tally.latencies.append(latency)
        tally.by_tenant.setdefault(job["tenant"], []).append(latency)


def _latency_stats(values: Sequence[float]) -> Dict[str, float]:
    return {
        "count": len(values),
        "mean": sum(values) / len(values) if values else 0.0,
        "p50": percentile(values, 0.50),
        "p95": percentile(values, 0.95),
        "p99": percentile(values, 0.99),
        "max": max(values) if values else 0.0,
    }


async def _run_async(
    host: str,
    port: int,
    jobs: Sequence[Dict[str, Any]],
    concurrency: int,
    poll_seconds: float,
) -> Dict[str, Any]:
    sem = asyncio.Semaphore(concurrency)
    tally = _Tally()
    start = time.perf_counter()
    await asyncio.gather(*[
        _drive_job(host, port, job, sem, tally, poll_seconds)
        for job in jobs
    ])
    wall = time.perf_counter() - start
    completed = len(tally.latencies)
    return {
        "jobs": len(jobs),
        "concurrency": concurrency,
        "completed": completed,
        "errors": tally.errors,
        "gave_up": tally.gave_up,
        "retries_429": tally.retries_429,
        "wall_seconds": round(wall, 4),
        "jobs_per_second": round(completed / wall, 3) if wall else 0.0,
        "latency": _latency_stats(tally.latencies),
        "per_tenant": {
            tenant: _latency_stats(values)
            for tenant, values in sorted(tally.by_tenant.items())
        },
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
    return asyncio.run(
        _run_async(host, port, jobs, concurrency, poll_seconds)
    )
