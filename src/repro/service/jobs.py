"""The service job model: wire requests, lifecycle, and task bridging.

A reduction job arrives as JSON (one POST body) and must leave the
front-end as the one shape the execution machinery already speaks:
PR 9's picklable :class:`~repro.parallel.scheduler.InstanceTaskSpec`.
This module is that bridge, plus the small state machine the server
tracks per job.

Two request kinds share one schema:

- **workload** — ``benchmark_id`` + corpus ``profile``: the app is
  generated server-side with the id-keyed corpus generator
  (:func:`repro.workloads.corpus.build_benchmark`), so the same
  ``(profile, benchmark_id)`` names the same application bytes here as
  in an offline ``jlreduce bench`` — so a service result can be checked
  against an offline run of the same spec.
- **app** — ``app_b64`` carries the serialized application itself
  (``repro.bytecode.serializer`` format, base64); the tenant ships
  arbitrary bytecode and the service never needs to know where it
  came from.

Job lifecycle (DESIGN.md §13)::

    queued ──> running ──> success
                    └────> error

Rejected submissions (invalid job or config, queue full, quota
exhausted, draining) never become jobs — the refusal is the HTTP response, so the job table holds
only work the service accepted responsibility for.
"""

from __future__ import annotations

import base64
import binascii
import re
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.decompiler.decompile import DECOMPILERS
from repro.harness.experiments import (
    STRATEGY_NAMES,
    ExperimentConfig,
    config_from_payload,
)
from repro.parallel.scheduler import InstanceTaskSpec, StoreSpec
from repro.workloads.corpus import CorpusConfig, build_benchmark

__all__ = [
    "JOB_STATES",
    "Job",
    "JobRequest",
    "job_config",
    "job_spec",
    "workload_pairs",
]

JOB_STATES = ("queued", "running", "success", "error")

_TRANSITIONS = {
    "queued": ("running",),
    "running": ("success", "error"),
    "success": (),
    "error": (),
}

_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")
_BENCHMARK_RE = re.compile(r"^b(\d{3,})$")

#: Generated-app cache bound: (profile, benchmark_id) → serialized
#: bytes.  Repeat submissions of the same workload spec — the warm-lane
#: pattern — skip regeneration entirely.
_APP_CACHE_MAX = 256
_APP_CACHE: "OrderedDict[Tuple[str, str], Tuple[bytes, int]]" = OrderedDict()


@dataclass(frozen=True)
class JobRequest:
    """One validated reduction job, as submitted over the wire."""

    tenant: str
    benchmark_id: str
    decompiler: str = "alpha"
    strategy: str = "our-reducer"
    scenario: str = "reduction"
    profile: str = "small"
    app_b64: Optional[str] = None
    app_seed: int = 0
    #: :func:`config_from_payload` overrides layered on the server's
    #: base config (budgets, speculation, chaos ... not pool sizing).
    config: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobRequest":
        """Validate a JSON submission body; raises ``ValueError``."""
        if not isinstance(payload, dict):
            raise ValueError("job must be a JSON object")
        known = {
            "tenant", "benchmark_id", "decompiler", "strategy",
            "scenario", "profile", "app_b64", "app_seed", "config",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown job fields: {', '.join(unknown)}")
        tenant = payload.get("tenant", "")
        if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
            raise ValueError(
                "tenant must be 1-64 chars of [A-Za-z0-9._-], "
                "starting alphanumeric"
            )
        benchmark_id = payload.get("benchmark_id", "")
        if not isinstance(benchmark_id, str) or not benchmark_id:
            raise ValueError("benchmark_id is required")
        scenario = payload.get("scenario", "reduction")
        if scenario not in ("reduction", "debloat"):
            raise ValueError(f"unknown scenario {scenario!r}")
        decompiler = payload.get(
            "decompiler", "debloat" if scenario == "debloat" else "alpha"
        )
        if scenario == "reduction" and decompiler not in DECOMPILERS:
            known_names = ", ".join(sorted(DECOMPILERS))
            raise ValueError(
                f"unknown decompiler {decompiler!r}; known: {known_names}"
            )
        strategy = payload.get("strategy", "our-reducer")
        if strategy not in STRATEGY_NAMES:
            raise ValueError(f"unknown strategy {strategy!r}")
        profile = payload.get("profile", "small")
        app_b64 = payload.get("app_b64")
        if app_b64 is None:
            CorpusConfig.named(profile)
            if not _BENCHMARK_RE.match(benchmark_id):
                raise ValueError(
                    f"workload benchmark_id must look like 'b003', "
                    f"got {benchmark_id!r}"
                )
        else:
            if not isinstance(app_b64, str):
                raise ValueError("app_b64 must be a base64 string")
            try:
                base64.b64decode(app_b64, validate=True)
            except (binascii.Error, ValueError):
                raise ValueError("app_b64 is not valid base64") from None
        config = payload.get("config", {})
        if not isinstance(config, dict):
            raise ValueError("config must be an object")
        app_seed = payload.get("app_seed", 0)
        if not isinstance(app_seed, int):
            raise ValueError("app_seed must be an integer")
        return cls(
            tenant=tenant,
            benchmark_id=benchmark_id,
            decompiler=decompiler,
            strategy=strategy,
            scenario=scenario,
            profile=profile,
            app_b64=app_b64,
            app_seed=app_seed,
            config=dict(config),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "benchmark_id": self.benchmark_id,
            "decompiler": self.decompiler,
            "strategy": self.strategy,
            "scenario": self.scenario,
            "profile": self.profile,
            "app_b64": self.app_b64,
            "app_seed": self.app_seed,
            "config": dict(self.config),
        }


@dataclass
class Job:
    """One accepted job's server-side record."""

    job_id: str
    request: JobRequest
    serial: int
    #: The effective config, built (and so validated) at admission by
    #: :func:`job_config`.
    config: Optional[ExperimentConfig] = None
    state: str = "queued"
    submitted_unix: float = field(default_factory=time.time)
    #: perf_counter marks, for latency math immune to wall-clock steps.
    submitted_perf: float = field(default_factory=time.perf_counter)
    started_perf: Optional[float] = None
    finished_perf: Optional[float] = None
    outcome: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    def advance(self, state: str) -> None:
        if state not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"job {self.job_id}: illegal transition "
                f"{self.state!r} -> {state!r}"
            )
        self.state = state
        if state == "running":
            self.started_perf = time.perf_counter()
        else:
            self.finished_perf = time.perf_counter()

    @property
    def queue_seconds(self) -> Optional[float]:
        if self.started_perf is None:
            return None
        return self.started_perf - self.submitted_perf

    @property
    def latency_seconds(self) -> Optional[float]:
        if self.finished_perf is None:
            return None
        return self.finished_perf - self.submitted_perf

    def to_dict(self) -> Dict[str, Any]:
        """The HTTP status-endpoint shape (no app bytes echoed back)."""
        return {
            "job_id": self.job_id,
            "tenant": self.request.tenant,
            "benchmark_id": self.request.benchmark_id,
            "decompiler": self.request.decompiler,
            "strategy": self.request.strategy,
            "scenario": self.request.scenario,
            "status": self.state,
            "serial": self.serial,
            "submitted_unix": self.submitted_unix,
            "queue_seconds": self.queue_seconds,
            "latency_seconds": self.latency_seconds,
            "outcome": self.outcome,
            "error": self.error,
        }


def job_config(
    request: JobRequest, base: Optional[ExperimentConfig] = None
) -> ExperimentConfig:
    """The job's effective :class:`ExperimentConfig`.

    Per-job overrides layer on the server's base config; the tenant and
    the single requested strategy always win, so every predicate-store
    entry the job writes lands in the tenant's namespace
    (:func:`~repro.harness.experiments.oracle_fingerprint`) and one job
    is always exactly one strategy run.
    """
    config = config_from_payload(request.config, base=base)
    return replace(
        config,
        strategies=(request.strategy,),
        tenant=request.tenant,
    )


def _workload_app(profile: str, benchmark_id: str) -> Tuple[bytes, int]:
    """Generate (and cache) a workload benchmark's serialized app."""
    key = (profile, benchmark_id)
    cached = _APP_CACHE.get(key)
    if cached is not None:
        _APP_CACHE.move_to_end(key)
        return cached
    from repro.bytecode.serializer import serialize_application

    index = int(_BENCHMARK_RE.match(benchmark_id).group(1))
    benchmark = build_benchmark(index, CorpusConfig.named(profile))
    entry = (serialize_application(benchmark.app), benchmark.seed)
    _APP_CACHE[key] = entry
    while len(_APP_CACHE) > _APP_CACHE_MAX:
        _APP_CACHE.popitem(last=False)
    return entry


def workload_pairs(
    profile: str, benchmarks: int
) -> "list[Tuple[str, str]]":
    """The runnable (benchmark_id, decompiler) pairs of a profile.

    A generated benchmark only carries instances for decompilers that
    actually miscompile it — any other pair has no failure to preserve
    and the job errors at run time.  Load generators and the ``submit``
    CLI use this to build mixes of real work.
    """
    config = CorpusConfig.named(profile)
    pairs = []
    for index in range(benchmarks):
        benchmark = build_benchmark(index, config)
        for instance in benchmark.instances:
            pairs.append((benchmark.benchmark_id, instance.decompiler))
    return pairs


def job_spec(
    job: Job,
    store_spec: Optional[StoreSpec] = None,
    ctx: Optional[Dict[str, Any]] = None,
) -> InstanceTaskSpec:
    """The job as a pool-executable :class:`InstanceTaskSpec`.

    The spec carries ``job.config``, the config admission built and
    validated (:func:`job_config`).  ``serial_base`` is the job's admission serial, so worker spans and
    ledger events land in per-job serial slots and the merged trace
    interleaves deterministically (`trace summarize` / ``timeline``
    work unchanged on service output).
    """
    request = job.request
    if request.app_b64 is not None:
        app_bytes = base64.b64decode(request.app_b64)
        app_seed = request.app_seed
    else:
        app_bytes, app_seed = _workload_app(
            request.profile, request.benchmark_id
        )
    return InstanceTaskSpec(
        benchmark_id=request.benchmark_id,
        decompiler=request.decompiler,
        scenario=request.scenario,
        strategies=(request.strategy,),
        serial_base=job.serial,
        app_seed=app_seed,
        config=job.config,
        app_bytes=app_bytes,
        store=store_spec,
        ctx=ctx,
    )
