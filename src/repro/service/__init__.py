"""Reduction-as-a-service: the long-lived multi-tenant job tier.

Everything below the CLI so far runs one :class:`ExperimentConfig` and
exits.  This package turns the engine into always-on infrastructure
(DESIGN.md §13): an asyncio HTTP front-end accepts reduction jobs from
many tenants, a weighted-fair scheduler with `Budget`-backed admission
control queues them, and execution fans out to one long-lived process
pool (:func:`repro.parallel.procpool.spawn_pool`) running the corpus
scheduler's task function over one shared warm predicate store,
tenant-namespaced.

- :mod:`repro.service.jobs` — the job model: a JSON job request
  (workload spec or serialized app bytes) bridged to PR 9's picklable
  :class:`InstanceTaskSpec`, and the queued → running → done lifecycle.
- :mod:`repro.service.admission` — per-tenant admission control:
  latched per-tenant :class:`~repro.resilience.budget.Budget` quotas,
  bounded queues with retry-after backpressure, stride-scheduled
  weighted fair dispatch.
- :mod:`repro.service.server` — the service core (dispatch loop,
  graceful drain) and the stdlib-asyncio HTTP/1.1 front-end behind
  ``jlreduce serve``.
- :mod:`repro.service.client` — the one HTTP client (stdlib
  ``http.client``), behind ``jlreduce submit``, ``jlreduce loadgen``
  and the tests.
- :mod:`repro.service.loadgen` — the closed-loop load generator behind
  ``jlreduce loadgen``: one client call per thread, up to
  ``concurrency`` jobs in flight (a jobs/sec + p50/p95/p99 latency
  curve).
"""

from repro.service.admission import (
    Admission,
    AdmissionController,
    TenantPolicy,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import (
    JOB_STATES,
    Job,
    JobRequest,
    job_config,
    job_spec,
)
from repro.service.loadgen import run_loadgen
from repro.service.server import ReductionService, ServiceConfig, serve

__all__ = [
    "Admission",
    "AdmissionController",
    "JOB_STATES",
    "Job",
    "JobRequest",
    "ReductionService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "TenantPolicy",
    "job_config",
    "job_spec",
    "run_loadgen",
    "serve",
]
