"""The reduction service core and its asyncio HTTP front-end.

One event loop owns all bookkeeping (job table, dispatch, telemetry
commits); reduction work happens off-loop in one long-lived process
pool (:func:`~repro.parallel.procpool.spawn_pool`) running
:func:`~repro.parallel.scheduler.run_instance_task`.  The loop's jobs:

- **submit** — validate, admit (429 / 503 refusals never become jobs),
  enqueue, wake the dispatcher;
- **dispatch** — whenever worker slots are free, pop the weighted-fair
  next job, bridge it to an ``InstanceTaskSpec`` and submit it to the
  pool;
- **commit** — the corpus scheduler's fold
  (:func:`~repro.parallel.scheduler.fold_result`), per job: merge the
  worker's metrics snapshot, ingest its trace events with the epoch
  offset; then emit one ``service.job`` span whose id the worker's
  root spans already parent on, observe per-tenant latency histograms,
  settle the tenant's quota;
- **drain** — stop admitting (clear 503s), run everything already
  accepted to completion, then shut the pool down: its workers exit,
  which closes their store handles, so no O_APPEND fd or worker
  process outlives the server.

The HTTP layer is a deliberately tiny HTTP/1.1 subset over
``asyncio.start_server`` — stdlib only, one request per connection
(``Connection: close``), JSON bodies both ways::

    POST /v1/jobs        submit        → 202 / 400 / 429 / 503
    GET  /v1/jobs/<id>   job status    → 200 / 404
    GET  /v1/jobs        recent jobs (?tenant= filters)
    GET  /v1/stats       service + per-tenant stats
    GET  /v1/healthz     {"status": "ok" | "draining"}
    POST /v1/drain       begin graceful drain
    POST /v1/shutdown    drain, then exit the serve loop
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.experiments import ExperimentConfig
from repro.observability import get_metrics, get_tracer, tracing_session
from repro.parallel.procpool import spawn_pool
from repro.parallel.scheduler import StoreSpec, fold_result, run_instance_task
from repro.service.admission import AdmissionController, TenantPolicy
from repro.service.jobs import Job, JobRequest, job_config, job_spec

__all__ = ["ReductionService", "ServiceConfig", "serve"]

#: Submission bodies larger than this are refused with 413 — an app
#: payload is a few KB; nothing legitimate ships megabytes of job.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: How many finished jobs ``GET /v1/jobs`` lists.
LIST_LIMIT = 1000

#: Bucket bounds (seconds) for the per-tenant latency histograms.  A
#: queued job's end-to-end latency under backpressure routinely passes
#: the 10 s top edge of the probe-latency default buckets; these extend
#: to 320 s so p95 estimates interpolate instead of saturating in the
#: overflow bucket.
SERVICE_LATENCY_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    20.0, 40.0, 80.0, 160.0, 320.0,
)


@dataclass
class ServiceConfig:
    """Everything ``jlreduce serve`` configures."""

    host: str = "127.0.0.1"
    port: int = 8437
    #: Pool workers == max concurrently running jobs.
    workers: int = 2
    #: Always ``"process"``: the service runs one pool kind.  The field
    #: stays only because the benchmark's service workload still passes
    #: it; it goes with the next change to ``perfbench/``.
    backend: str = "process"
    store_spec: Optional[StoreSpec] = None
    base_config: ExperimentConfig = field(
        default_factory=lambda: ExperimentConfig(strategies=("our-reducer",))
    )
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)
    policies: Dict[str, TenantPolicy] = field(default_factory=dict)
    #: Queue-depth gauge sampling period (trace time series).
    sample_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.backend != "process":
            raise ValueError(
                f"backend must be 'process', got {self.backend!r}"
            )
        if not self.sample_seconds > 0:
            raise ValueError(
                f"sample_seconds must be > 0, got {self.sample_seconds}"
            )


class ReductionService:
    """The service core: job table, dispatcher, committer, drain."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.pool = spawn_pool(config.workers)
        self.admission = AdmissionController(
            default_policy=config.default_policy,
            policies=config.policies,
            dispatch_width=config.workers,
        )
        self.jobs: Dict[str, Job] = {}
        self.draining = False
        self._serial = 0
        self._inflight = 0
        self._wake = asyncio.Event()
        self._drained = asyncio.Event()
        self._stop = asyncio.Event()
        self._tasks: List[asyncio.Task] = []
        self._metrics = get_metrics()
        self._tracer = get_tracer()
        self._started = False

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Materialize the store layout and start the loop tasks."""
        if self._started:
            return
        self._started = True
        if self.config.store_spec is not None:
            # Parent touches the store first so workers never race the
            # on-disk layout into existence (PR 9 discipline).
            self.config.store_spec.open().close()
        self._tasks.append(asyncio.ensure_future(self._dispatch_loop()))
        self._tasks.append(asyncio.ensure_future(self._sample_loop()))

    async def drain(self) -> None:
        """Refuse new work, run everything accepted, settle the loop."""
        self.draining = True
        self._wake.set()
        await self._drained.wait()

    async def shutdown(self) -> None:
        """Drain, then shut the pool down (its workers exit)."""
        await self.drain()
        for task in self._tasks:
            task.cancel()
        loop = asyncio.get_event_loop()
        # Pool shutdown blocks on worker exit; keep the loop responsive
        # (an HTTP /healthz during shutdown should still answer).
        await loop.run_in_executor(None, self.pool.shutdown)

    def request_stop(self) -> None:
        """Signal the serve loop to drain and exit (signal-safe)."""
        self.draining = True
        self._wake.set()
        self._stop.set()

    @property
    def stopping(self) -> asyncio.Event:
        return self._stop

    # -- submission ----------------------------------------------------

    def submit(self, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """One submission: (HTTP status, response body)."""
        self._metrics.counter("service.submitted").inc()
        if self.draining:
            self._metrics.counter("service.rejected.draining").inc()
            return 503, {
                "status": "draining",
                "error": "service is draining; not accepting new jobs",
            }
        try:
            request = JobRequest.from_payload(payload)
            config = job_config(request, self.config.base_config)
        except ValueError as exc:
            self._metrics.counter("service.rejected.invalid").inc()
            return 400, {"status": "invalid", "error": str(exc)}
        serial = self._serial
        job = Job(
            job_id=f"j{serial:06d}", request=request, serial=serial,
            config=config,
        )
        verdict = self.admission.submit(job)
        tenant = request.tenant
        if not verdict.admitted:
            self._metrics.counter("service.rejected").inc()
            self._metrics.counter(
                f"service.rejected.{verdict.reason}"
            ).inc()
            self._metrics.counter(
                f"service.tenant.{tenant}.rejected"
            ).inc()
            return 429, {
                "status": "rejected",
                "reason": verdict.reason,
                "error": verdict.detail,
                "retry_after": verdict.retry_after,
            }
        self._serial += 1
        self.jobs[job.job_id] = job
        self._metrics.counter("service.queued").inc()
        self._metrics.counter("service.admitted").inc()
        self._metrics.counter(f"service.tenant.{tenant}.admitted").inc()
        self._set_depth_gauge()
        self._wake.set()
        return 202, {
            "status": "queued",
            "job_id": job.job_id,
            "tenant": tenant,
        }

    # -- dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            while self._inflight < self.config.workers:
                job = self.admission.next_job()
                if job is None:
                    break
                self._inflight += 1
                self._tasks = [t for t in self._tasks if not t.done()]
                self._tasks.append(
                    asyncio.ensure_future(self._run_job(job))
                )
            self._set_depth_gauge()
            if (
                self.draining
                and self._inflight == 0
                and self.admission.queue_depth == 0
            ):
                self._drained.set()
                return
            await self._wake.wait()
            self._wake.clear()

    def _trace_ctx(self, job: Job) -> Optional[Dict[str, Any]]:
        """The worker-attachable context, parented on the job's span.

        Minted only when traced: workers ship their events back, and
        the commit ingests them.
        """
        if not self._tracer.enabled:
            return None
        return {
            "run_id": self._tracer.run_id,
            "trace_id": self._tracer.run_id,
            "span_id": f"svc:{job.serial}",
            "serial": -1,
            "worker": "svc",
        }

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_event_loop()
        job.advance("running")
        self._metrics.counter(
            f"service.tenant.{job.request.tenant}.started"
        ).inc()
        ctx = self._trace_ctx(job)
        try:
            try:
                # Spec building decodes/generates app bytes — off-loop.
                spec = await loop.run_in_executor(
                    None,
                    lambda: job_spec(
                        job,
                        store_spec=self.config.store_spec,
                        ctx=ctx,
                    ),
                )
                result = await asyncio.wrap_future(
                    self.pool.submit(run_instance_task, spec)
                )
            except Exception as exc:  # noqa: BLE001 — job-scoped failure
                self._finish(job, error=f"{type(exc).__name__}: {exc}")
            else:
                self._commit(job, result)
        finally:
            self._inflight -= 1
            self._wake.set()

    # -- commit --------------------------------------------------------

    def _commit(self, job: Job, result: Any) -> None:
        """Fold one worker shipment in and settle the job's state."""
        _, outcome, error = next(
            fold_result(result, (job.request.strategy,))
        )
        if error is not None:
            self._finish(job, error=f"{type(error).__name__}: {error}")
            return
        if outcome.status == "error":
            self._finish(
                job, outcome=asdict(outcome),
                error=outcome.error or "instance error",
            )
            return
        self._finish(job, outcome=asdict(outcome))

    def _finish(
        self,
        job: Job,
        outcome: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        job.outcome = outcome
        job.error = error
        job.advance("error" if error is not None else "success")
        tenant = job.request.tenant
        latency = job.latency_seconds or 0.0
        simulated = float((outcome or {}).get("simulated_seconds", 0.0))
        self.admission.record_completion(
            tenant, latency, simulated, failed=error is not None
        )
        if error is not None:
            self._metrics.counter("service.failed").inc()
            self._metrics.counter(f"service.tenant.{tenant}.failed").inc()
        else:
            self._metrics.counter("service.completed").inc()
            self._metrics.counter(
                f"service.tenant.{tenant}.completed"
            ).inc()
        self._metrics.histogram(
            f"service.latency.{tenant}", SERVICE_LATENCY_BUCKETS
        ).observe(latency)
        if job.queue_seconds is not None:
            self._metrics.histogram(
                f"service.queue_wait.{tenant}", SERVICE_LATENCY_BUCKETS
            ).observe(job.queue_seconds)
        self._emit_job_span(job)

    def _emit_job_span(self, job: Job) -> None:
        """One ``service.job`` span per finished job.

        Its id is exactly the ``span_id`` the worker context carried,
        so every worker root span has a recorded parent — the merged
        trace stays one connected tree per job.
        """
        if not self._tracer.enabled:
            return
        self._tracer.ingest({
            "type": "span",
            "name": "service.job",
            "start": job.submitted_unix - self._tracer.epoch_unix,
            "duration": job.latency_seconds or 0.0,
            "span_id": f"svc:{job.serial}",
            "parent_span_id": None,
            "run_id": self._tracer.run_id,
            "trace_id": self._tracer.run_id,
            "serial": -1,
            "worker": "svc",
            "seq": job.serial,
            "attrs": {
                "job_id": job.job_id,
                "tenant": job.request.tenant,
                "benchmark": job.request.benchmark_id,
                "decompiler": job.request.decompiler,
                "strategy": job.request.strategy,
                "status": job.state,
                "queue_seconds": job.queue_seconds,
            },
        })

    # -- telemetry -----------------------------------------------------

    def _set_depth_gauge(self) -> None:
        self._metrics.gauge("service.queue_depth").set(
            self.admission.queue_depth
        )

    async def _sample_loop(self) -> None:
        """Periodic queue-depth samples into the trace (time series)."""
        while True:
            await asyncio.sleep(self.config.sample_seconds)
            depth = self.admission.queue_depth
            self._metrics.gauge("service.queue_depth").set(depth)
            if self._tracer.enabled:
                self._tracer.ingest({
                    "type": "gauge",
                    "name": "service.queue_depth",
                    "value": depth,
                    "t": time.time() - self._tracer.epoch_unix,
                    "serial": -1,
                    "worker": "svc",
                    "run_id": self._tracer.run_id,
                })

    # -- introspection -------------------------------------------------

    def job_status(self, job_id: str) -> Optional[Dict[str, Any]]:
        job = self.jobs.get(job_id)
        return None if job is None else job.to_dict()

    def list_jobs(
        self, tenant: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        rows = [
            {
                "job_id": job.job_id,
                "tenant": job.request.tenant,
                "status": job.state,
                "latency_seconds": job.latency_seconds,
            }
            for job in self.jobs.values()
            if tenant is None or job.request.tenant == tenant
        ]
        return rows[-LIST_LIMIT:]

    def stats(self) -> Dict[str, Any]:
        by_state: Dict[str, int] = {}
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "status": "draining" if self.draining else "ok",
            "workers": self.config.workers,
            "inflight": self._inflight,
            "queue_depth": self.admission.queue_depth,
            "jobs": by_state,
            "tenants": self.admission.stats(),
        }


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------


def _response(
    status: int,
    body: Dict[str, Any],
    retry_after: Optional[float] = None,
) -> bytes:
    reasons = {
        200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
        405: "Method Not Allowed", 413: "Payload Too Large",
        429: "Too Many Requests", 503: "Service Unavailable",
    }
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {reasons.get(status, 'OK')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    if retry_after is not None:
        headers.append(f"Retry-After: {max(1, int(round(retry_after)))}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + payload


class _BodyTooLarge(Exception):
    pass


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """Parse one request; (method, path, body) or None on EOF/garbage."""
    try:
        request_line = await asyncio.wait_for(reader.readline(), timeout=30)
    except (asyncio.TimeoutError, asyncio.LimitOverrunError, ValueError):
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        return None
    method, path = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                return None
    if content_length > MAX_BODY_BYTES:
        raise _BodyTooLarge()
    body = b""
    if content_length:
        try:
            body = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError:
            return None
    return method, path, body


async def _handle_client(
    service: ReductionService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        try:
            parsed = await _read_request(reader)
        except _BodyTooLarge:
            writer.write(_response(413, {"error": "body too large"}))
            await writer.drain()
            return
        if parsed is None:
            return
        method, path, body = parsed
        writer.write(_route(service, method, path, body))
        await writer.drain()
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        try:
            writer.close()
        except RuntimeError:
            pass


def _route(
    service: ReductionService, method: str, path: str, body: bytes
) -> bytes:
    path, _, query = path.partition("?")
    if path in ("/healthz", "/v1/healthz") and method == "GET":
        status = "draining" if service.draining else "ok"
        return _response(200, {"status": status})
    if path == "/v1/jobs" and method == "POST":
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            return _response(400, {"error": "body is not valid JSON"})
        status, reply = service.submit(payload)
        return _response(status, reply, retry_after=reply.get("retry_after"))
    if path.startswith("/v1/jobs/") and method == "GET":
        job = service.job_status(path[len("/v1/jobs/"):])
        if job is None:
            return _response(404, {"error": "no such job"})
        return _response(200, job)
    if path == "/v1/jobs" and method == "GET":
        tenant = None
        for pair in query.split("&"):
            name, _, value = pair.partition("=")
            if name == "tenant" and value:
                tenant = value
        return _response(200, {"jobs": service.list_jobs(tenant)})
    if path == "/v1/stats" and method == "GET":
        return _response(200, service.stats())
    if path == "/v1/drain" and method == "POST":
        service.draining = True
        service._wake.set()
        return _response(202, {"status": "draining"})
    if path == "/v1/shutdown" and method == "POST":
        service.request_stop()
        return _response(202, {"status": "draining"})
    if path in ("/v1/jobs", "/v1/stats", "/v1/drain", "/v1/shutdown",
                "/healthz", "/v1/healthz") or path.startswith("/v1/jobs/"):
        return _response(405, {"error": f"method {method} not allowed"})
    return _response(404, {"error": f"no route {path}"})


# ----------------------------------------------------------------------
# The serve loop
# ----------------------------------------------------------------------


async def _serve_async(
    service: ReductionService,
    ready: Optional[Any] = None,
    log=None,
) -> None:
    """Listen, serve until stopped, drain, release everything."""
    config = service.config
    await service.start()
    server = await asyncio.start_server(
        lambda r, w: _handle_client(service, r, w),
        host=config.host,
        port=config.port,
        limit=2 ** 16,
    )
    host, port = server.sockets[0].getsockname()[:2]
    if ready is not None:
        ready(host, port)
    loop = asyncio.get_event_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, service.request_stop)
        except (NotImplementedError, RuntimeError):
            pass  # non-unix loops: ctrl-C surfaces as KeyboardInterrupt
    try:
        await service.stopping.wait()
        if log is not None:
            log("draining: finishing accepted jobs, refusing new ones")
        # The listener stays open through the drain so clients get the
        # explicit 503 "draining" status, not a connection refusal.
        await service.shutdown()
    finally:
        server.close()
        await server.wait_closed()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.remove_signal_handler(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass


def serve(
    config: ServiceConfig,
    trace_path: Optional[str] = None,
    ready: Optional[Any] = None,
    log=None,
) -> int:
    """Run the service until SIGTERM/SIGINT (or POST /v1/shutdown).

    With ``trace_path``, the whole service session runs inside a
    tracing session: per-job events stream to per-worker shard files as
    they commit, and the final metrics snapshot lands in the main shard
    when the service stops — ``trace summarize`` / ``timeline`` /
    ``metrics export`` read service output exactly like bench output.
    An unwritable ``trace_path`` raises ``OSError`` before the server
    starts.
    """
    with ExitStack() as stack:
        if trace_path:
            stack.enter_context(tracing_session(trace_path, label="serve"))
        service = ReductionService(config)
        asyncio.run(_serve_async(service, ready=ready, log=log))
    return 0
