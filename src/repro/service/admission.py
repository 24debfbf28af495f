"""Multi-tenant admission control and weighted fair dispatch.

The front door of the service tier.  Every tenant gets three shields —
and every other tenant gets shielded *from* them:

- **Quota** — one latched :class:`~repro.resilience.budget.Budget`
  per tenant: ``max_jobs`` caps admissions outright (one call spent
  per submission), ``max_seconds`` caps the cumulative *simulated*
  seconds the tenant's completed jobs burn (charged when each job
  settles).  The service never lets ``BudgetExhausted`` escape: a
  refused admission becomes a ``quota`` verdict carrying the budget's
  message, and an over-spend at settle latches silently, so the next
  submission is refused.  Exhaustion latches per tenant instance, so
  one tenant hammering its cap can never flip another tenant's budget.
- **Backpressure** — a bounded per-tenant queue: once
  ``max_queue_depth`` jobs wait, further submissions are refused with
  a retry-after estimate (depth × observed mean service time ÷
  dispatch width) the HTTP layer turns into ``429 Retry-After``.
- **Fair dispatch** — stride scheduling across tenant queues: each
  dispatched job advances the tenant's virtual *pass* by
  ``1 / weight``, and the dispatcher always serves the eligible tenant
  with the smallest pass.  A heavy tenant with a deep queue therefore
  gets exactly its weight share of worker slots, not all of them; a
  tenant waking from idle re-enters at the current minimum pass, so it
  neither starves nor cashes in banked idle time.

The controller is a plain synchronized data structure — no asyncio, no
metrics — so it unit-tests in isolation; the server wraps it with the
event loop and the ``service.*`` telemetry.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

from repro.reduction.problem import BudgetExhausted
from repro.resilience.budget import Budget
from repro.service.jobs import Job

__all__ = ["Admission", "AdmissionController", "TenantPolicy"]


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's admission knobs."""

    weight: float = 1.0
    max_queue_depth: int = 64
    max_jobs: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )


@dataclass(frozen=True)
class Admission:
    """The verdict on one submission."""

    admitted: bool
    #: ``"queue_full"`` | ``"quota"`` — the 429 taxonomy.
    reason: str = ""
    detail: str = ""
    retry_after: Optional[float] = None


class _TenantState:
    def __init__(self, name: str, policy: TenantPolicy):
        self.name = name
        self.policy = policy
        self.queue: Deque[Job] = deque()
        self.budget = Budget(
            max_calls=policy.max_jobs, max_seconds=policy.max_seconds
        )
        self.pass_value = 0.0
        self.admitted = 0
        self.rejected: Dict[str, int] = {"queue_full": 0, "quota": 0}
        self.completed = 0
        self.failed = 0

    def stats(self) -> Dict[str, object]:
        return {
            "weight": self.policy.weight,
            "queue_depth": len(self.queue),
            "admitted": self.admitted,
            "rejected": dict(self.rejected),
            "completed": self.completed,
            "failed": self.failed,
            "quota_jobs": self.budget.calls,
            "quota_seconds": round(self.budget.seconds, 3),
            "quota_exhausted": self.budget.exhausted,
        }


class AdmissionController:
    """Bounded, quota'd, weighted-fair queues over all tenants.

    Thread-safe: the asyncio server calls it from one loop, but tests
    (and a future threaded front-end) may not be so polite.
    """

    def __init__(
        self,
        default_policy: Optional[TenantPolicy] = None,
        policies: Optional[Dict[str, TenantPolicy]] = None,
        dispatch_width: int = 1,
    ):
        self.default_policy = default_policy or TenantPolicy()
        self.policies = dict(policies or {})
        self.dispatch_width = max(1, dispatch_width)
        self._tenants: Dict[str, _TenantState] = {}
        self._lock = threading.Lock()
        #: EWMA of observed end-to-end job seconds; seeds the
        #: retry-after estimate before any job has finished.
        self._mean_latency = 0.5

    def _tenant(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            policy = self.policies.get(name, self.default_policy)
            state = self._tenants[name] = _TenantState(name, policy)
        return state

    # -- submission ----------------------------------------------------

    def submit(self, job: Job) -> Admission:
        """Admit (enqueue) or refuse one job."""
        with self._lock:
            tenant = self._tenant(job.request.tenant)
            if len(tenant.queue) >= tenant.policy.max_queue_depth:
                tenant.rejected["queue_full"] += 1
                return Admission(
                    admitted=False,
                    reason="queue_full",
                    detail=(
                        f"tenant {tenant.name!r} queue at bound "
                        f"{tenant.policy.max_queue_depth}"
                    ),
                    retry_after=self._retry_after(len(tenant.queue)),
                )
            try:
                # A refused spend charges nothing and latches.
                tenant.budget.spend_call()
            except BudgetExhausted as refusal:
                tenant.rejected["quota"] += 1
                return Admission(
                    admitted=False,
                    reason="quota",
                    detail=f"tenant {tenant.name!r}: {refusal}",
                    # A latched quota never un-latches; the hint tells
                    # clients to go away for a while, not to retry-spin.
                    retry_after=60.0,
                )
            was_idle = not tenant.queue
            tenant.queue.append(job)
            tenant.admitted += 1
            if was_idle:
                # Re-enter at the active minimum: no banked credit for
                # idle time, no starvation for waking up.
                active = [
                    t.pass_value
                    for t in self._tenants.values()
                    if t.queue and t is not tenant
                ]
                if active:
                    tenant.pass_value = max(tenant.pass_value, min(active))
            return Admission(admitted=True)

    def _retry_after(self, depth: int) -> float:
        estimate = depth * self._mean_latency / self.dispatch_width
        return min(60.0, max(1.0, round(estimate, 1)))

    # -- dispatch ------------------------------------------------------

    def next_job(self) -> Optional[Job]:
        """Pop the next job under weighted fair (stride) scheduling."""
        with self._lock:
            eligible = [t for t in self._tenants.values() if t.queue]
            if not eligible:
                return None
            tenant = min(
                eligible, key=lambda t: (t.pass_value, t.name)
            )
            tenant.pass_value += 1.0 / tenant.policy.weight
            return tenant.queue.popleft()

    # -- completion ----------------------------------------------------

    def record_completion(
        self,
        tenant_name: str,
        latency_seconds: float,
        simulated_seconds: float,
        failed: bool = False,
    ) -> None:
        """Fold one finished job back in: quota charge, latency EWMA."""
        with self._lock:
            tenant = self._tenant(tenant_name)
            if failed:
                tenant.failed += 1
            else:
                tenant.completed += 1
            if simulated_seconds > 0:
                try:
                    tenant.budget.charge_seconds(simulated_seconds)
                except BudgetExhausted:
                    pass  # latched: the tenant's next submit is refused
            if latency_seconds > 0:
                self._mean_latency = (
                    0.7 * self._mean_latency + 0.3 * latency_seconds
                )

    # -- introspection -------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return sum(len(t.queue) for t in self._tenants.values())

    def stats(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            return {
                name: self._tenants[name].stats()
                for name in sorted(self._tenants)
            }
