"""The benchmark's inputs, generated from the workload seed.

The in-process workloads share one corpus: :data:`CORPUS_SIZE`
reduction instances whose class counts are the log-spaced quantiles of
a log-uniform distribution on [:data:`MIN_CLASSES`,
:data:`MAX_CLASSES`], one instance per stratum.  The seed decides every
application's contents, so it changes every reduction, but not the
size mix, which is what keeps timings comparable across seeds.
Strata are listed even ones first, so any prefix of about half the
corpus still spans the whole size range (``speculate-cold`` uses one).
Each stratum prefers one of the three decompilers in turn and falls
back to another buggy one; apps no decompiler miscompiles are skipped,
as in the paper's selection of failing instances.

The service workload sends tiny-profile applications (the job sizes
the service tier is built for) on an evenly spaced open-loop schedule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.decompiler.decompile import DECOMPILERS
from repro.workloads import corpus as corpus_module
from repro.workloads.corpus import Benchmark, BuggyInstance, CorpusConfig

CORPUS_SIZE = 80
MIN_CLASSES = 8
MAX_CLASSES = 24

#: Tenants of the service workload and their shares of the traffic.
TENANT_SHARES = {"tenant-a": 3, "tenant-b": 1}

Instance = Tuple[Benchmark, BuggyInstance]


def stratum_sizes(count: int, low: int, high: int) -> List[int]:
    """Class counts at the midpoints of ``count`` log-uniform strata."""
    span = math.log(high) - math.log(low)
    return [
        int(round(math.exp(math.log(low) + span * (k + 0.5) / count)))
        for k in range(count)
    ]


def stratum_order(count: int) -> List[int]:
    """Even strata first, then odd: every long prefix spans the range."""
    return list(range(0, count, 2)) + list(range(1, count, 2))


def build_corpus(
    seed: int,
    count: int = CORPUS_SIZE,
    low: int = MIN_CLASSES,
    high: int = MAX_CLASSES,
    limit: Optional[int] = None,
) -> List[Instance]:
    """One buggy (benchmark, decompiler) instance per stratum.

    ``limit`` keeps only the first strata of :func:`stratum_order`.
    """
    names = sorted(DECOMPILERS)
    sizes = stratum_sizes(count, low, high)
    instances: List[Instance] = []
    index = 0
    for stratum in stratum_order(count)[:limit]:
        config = CorpusConfig(
            num_benchmarks=1,
            min_classes=sizes[stratum],
            max_classes=sizes[stratum],
            seed=seed,
        )
        while True:
            benchmark = corpus_module.build_benchmark(index, config)
            index += 1
            if benchmark.instances:
                break
        preferred = names[stratum % len(names)]
        chosen = next(
            (i for i in benchmark.instances if i.decompiler == preferred),
            benchmark.instances[0],
        )
        instances.append((benchmark, chosen))
    return instances


@dataclass(frozen=True)
class PlannedJob:
    """One job of the open-loop schedule."""

    due_s: float
    tenant: str
    app: int  # index into the schedule's app list
    repeat: bool


def tiny_apps(seed: int, count: int, first_index: int = 0) -> List[Instance]:
    """``count`` buggy tiny-profile instances (first buggy decompiler)."""
    config = CorpusConfig.tiny()
    config.seed = seed
    apps: List[Instance] = []
    index = first_index
    while len(apps) < count:
        benchmark = corpus_module.build_benchmark(index, config)
        index += 1
        if benchmark.instances:
            apps.append((benchmark, benchmark.instances[0]))
    return apps


def service_schedule(
    seed: int, jobs: int, rate: float, repeat_share: float
) -> Tuple[List[PlannedJob], int]:
    """The send schedule and the number of distinct apps it uses.

    Tenants get exact shares of the jobs in a seeded interleaving.
    Within a tenant, a fixed share of jobs (spread evenly) repeats an
    earlier job of the same tenant, picked by the seeded rng; every
    other job brings a new application.
    """
    rng = random.Random(seed)
    shares = sum(TENANT_SHARES.values())
    tenants: List[str] = []
    for tenant, share in sorted(TENANT_SHARES.items()):
        tenants += [tenant] * (jobs * share // shares)
    tenants += [max(TENANT_SHARES, key=TENANT_SHARES.get)] * (
        jobs - len(tenants)
    )
    rng.shuffle(tenants)
    sent: Dict[str, int] = {}
    distinct: Dict[str, List[int]] = {}
    plan: List[PlannedJob] = []
    apps = 0
    for position, tenant in enumerate(tenants):
        k = sent[tenant] = sent.get(tenant, 0) + 1
        history = distinct.setdefault(tenant, [])
        repeat = bool(history) and (
            math.floor(k * repeat_share) > math.floor((k - 1) * repeat_share)
        )
        if repeat:
            app = rng.choice(history)
        else:
            app, apps = apps, apps + 1
            history.append(app)
        plan.append(PlannedJob(position / rate, tenant, app, repeat))
    return plan, apps
