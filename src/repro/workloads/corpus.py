"""The benchmark corpus (our NJR stand-in).

The paper evaluates on ~100 NJR programs x 3 decompilers, keeping the
227 instances where the decompiled output fails to compile.  This module
builds the analogous synthetic corpus: seeded applications whose size
distribution is configurable, paired with the three simulated
decompilers, keeping the buggy pairs.

Three shipped profiles:

- :func:`CorpusConfig.small` — quick corpora for tests and default
  benchmark runs (finishes in minutes on a laptop),
- :func:`CorpusConfig.paper` — sizes matching the paper's geometric
  means (~184 classes per program); use for full reproduction runs.
- :func:`CorpusConfig.njr` — the full 1000-app NJR-shape corpus:
  paper-distribution classes *and* bytes (attribute padding closes the
  gap between our minimal encoding and real class-file density), one
  decompiler per app so the corpus stays runnable end to end.

Corpus generation is *id-keyed*: every benchmark derives its rng stream
from ``derive_seed(config.seed, benchmark_id)``, so ``b017`` is the same
application whether it is generated alone, in a different batch order,
or by a different worker process.  (The v1 scheme drew sizes and app
seeds sequentially from one shared rng, which silently keyed every app
on its submission index.)

Large corpora persist to disk (:func:`save_corpus` /
:func:`iter_saved_corpus`): one serialized application blob per
benchmark plus a ``manifest.json`` carrying per-app distributional
stats (classes/bytes/items/clauses) and the buggy-instance list, so a
scheduler can plan a 1000-app run without deserializing — or holding —
a single application in the parent.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.bytecode.classfile import Application
from repro.decompiler.decompile import DECOMPILERS
from repro.decompiler.oracle import DecompilerOracle
from repro.resilience.faults import derive_seed
from repro.workloads.generator import WorkloadConfig, generate_application

__all__ = [
    "CorpusConfig",
    "Benchmark",
    "BuggyInstance",
    "build_benchmark",
    "build_corpus",
    "iter_corpus",
    "all_instances",
    "save_corpus",
    "load_manifest",
    "iter_saved_corpus",
    "load_corpus",
    "MANIFEST_NAME",
]

MANIFEST_NAME = "manifest.json"

#: The named corpus profiles: each is a :class:`CorpusConfig`
#: classmethod, resolved by :meth:`CorpusConfig.named`.
CORPUS_PROFILES = ("tiny", "small", "paper", "njr")

#: The paper's Table 1 geometric means the njr profile targets.
PAPER_GEO_CLASSES = 184.0
PAPER_GEO_BYTES = 285.0 * 1024
PAPER_GEO_ITEMS = 2919.0
PAPER_GEO_CLAUSES = 8713.0


@dataclass
class CorpusConfig:
    """Shape of the corpus."""

    num_benchmarks: int = 8
    min_classes: int = 30
    max_classes: int = 90
    num_modules_per_class: float = 0.2  # interfaces scale with classes
    module_size: int = 5
    seed: int = 2021  # the corpus master seed
    decompilers: Tuple[str, ...] = ("alpha", "beta", "gamma")
    #: Per-class attribute padding (see
    #: :attr:`~repro.workloads.generator.WorkloadConfig.attribute_payload_chars`);
    #: the njr profile uses it to hit the paper's bytes-per-class.
    attribute_payload_chars: int = 0
    #: Method/field density (defaults match
    #: :class:`~repro.workloads.generator.WorkloadConfig`); the njr
    #: profile raises them to hit the paper's items-per-class.
    max_extra_methods: int = 3
    max_fields: int = 2

    @classmethod
    def named(cls, profile: str) -> "CorpusConfig":
        """The profile called ``profile``, looked up when called."""
        if profile not in CORPUS_PROFILES:
            known = ", ".join(sorted(CORPUS_PROFILES))
            raise ValueError(f"unknown profile {profile!r}; known: {known}")
        return getattr(cls, profile)()

    @classmethod
    def tiny(cls) -> "CorpusConfig":
        """Sub-second apps for service latency/throughput benches.

        A service load test holds 100+ jobs in flight; at that fan-in
        the interesting costs are queueing, dispatch, and
        store-hit latency — not GBR search depth — so its jobs must be
        cheap enough that a curve finishes in CI time.
        """
        return cls(num_benchmarks=4, min_classes=10, max_classes=18)

    @classmethod
    def small(cls) -> "CorpusConfig":
        """Fast profile for tests and default bench runs."""
        return cls(num_benchmarks=6, min_classes=24, max_classes=60)

    @classmethod
    def paper(cls) -> "CorpusConfig":
        """Sizes matching the paper's geo-mean of 184 classes."""
        return cls(num_benchmarks=96, min_classes=90, max_classes=360)

    @classmethod
    def njr(cls) -> "CorpusConfig":
        """The 1000-app NJR-shape corpus.

        Log-uniform class counts on [110, 308] give a geometric mean of
        sqrt(110*308) ~ 184 classes; attribute padding lifts the
        serialized size to the paper's ~285 KB geo-mean, and the raised
        method/field density hits its ~2.9k-items / ~8.7k-clauses
        geo-means (all calibrated empirically to within ~5%).  One
        decompiler per app keeps the full corpus runnable end to end
        (the paper's 227-of-300 buggy-instance selection is a rate, not
        a shape — every distributional stat is per-app).
        """
        return cls(
            num_benchmarks=1000,
            min_classes=110,
            max_classes=308,
            decompilers=("alpha",),
            attribute_payload_chars=1680,
            max_extra_methods=5,
            max_fields=6,
        )


@dataclass
class BuggyInstance:
    """One (benchmark, decompiler) pair whose output fails to compile.

    ``scenario`` selects the oracle semantics: ``"reduction"`` is the
    paper's decompiler-bug predicate, ``"debloat"`` the coverage-based
    debloating predicate (:mod:`repro.workloads.debloat`) — same
    ``Problem``/predicate interface, different notion of "interesting".
    """

    benchmark_id: str
    decompiler: str
    oracle: DecompilerOracle
    scenario: str = "reduction"
    #: Error count recorded at generation time (persisted corpora load
    #: with lazily-built oracles; the manifest value avoids forcing a
    #: full decompile just to report corpus statistics).
    known_errors: Optional[int] = None

    @property
    def num_errors(self) -> int:
        if self.known_errors is not None:
            return self.known_errors
        return len(self.oracle.original_errors)


@dataclass
class Benchmark:
    """One synthetic program plus its buggy decompiler pairings."""

    benchmark_id: str
    seed: int
    app: Application
    instances: List[BuggyInstance] = field(default_factory=list)
    #: Set for persisted corpora: the on-disk serialized application,
    #: letting schedulers ship a path instead of megabytes of blob.
    app_path: Optional[str] = None
    #: Manifest stats (classes/bytes/items/clauses) for persisted
    #: corpora — cost hints and distribution checks without recompute.
    stats: Optional[Dict[str, int]] = None

    @property
    def num_classes(self) -> int:
        return len(self.app.classes)


def build_benchmark(index: int, config: CorpusConfig) -> Benchmark:
    """Generate one benchmark, keyed on its id (not its batch position).

    Application sizes are log-uniform between ``min_classes`` and
    ``max_classes`` (real program-size distributions are heavy-tailed).
    Pairs where a decompiler translates cleanly are skipped, mirroring
    the paper's selection of the 227 failing instances.
    """
    benchmark_id = f"b{index:03d}"
    rng = random.Random(derive_seed(config.seed, benchmark_id))
    log_size = rng.uniform(
        math.log(config.min_classes), math.log(config.max_classes)
    )
    num_classes = max(4, int(round(math.exp(log_size))))
    num_interfaces = max(
        2, int(round(num_classes * config.num_modules_per_class * 0.6))
    )
    app_seed = rng.randrange(1 << 30)
    workload = WorkloadConfig(
        num_classes=num_classes,
        num_interfaces=num_interfaces,
        module_size=config.module_size,
        attribute_payload_chars=config.attribute_payload_chars,
        max_extra_methods=config.max_extra_methods,
        max_fields=config.max_fields,
    )
    app = generate_application(app_seed, workload)
    benchmark = Benchmark(benchmark_id=benchmark_id, seed=app_seed, app=app)
    for name in config.decompilers:
        oracle = DecompilerOracle(app, DECOMPILERS[name])
        if oracle.is_buggy:
            benchmark.instances.append(
                BuggyInstance(benchmark.benchmark_id, name, oracle)
            )
    return benchmark


def iter_corpus(config: Optional[CorpusConfig] = None) -> Iterator[Benchmark]:
    """Generate the corpus one benchmark at a time (O(1) memory)."""
    config = config or CorpusConfig()
    for index in range(config.num_benchmarks):
        yield build_benchmark(index, config)


def build_corpus(config: Optional[CorpusConfig] = None) -> List[Benchmark]:
    """Generate the corpus: apps plus their buggy instances."""
    return list(iter_corpus(config))


def all_instances(benchmarks: Iterable[Benchmark]) -> Iterator[Tuple[Benchmark, BuggyInstance]]:
    """Flatten to (benchmark, instance) pairs."""
    for benchmark in benchmarks:
        for instance in benchmark.instances:
            yield benchmark, instance


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------


def save_corpus(
    benchmarks: Iterable[Benchmark],
    path: str,
    progress=None,
) -> Dict:
    """Persist a corpus: one app blob per benchmark plus a manifest.

    Streams: pass :func:`iter_corpus` directly and only one application
    is ever in memory.  The manifest records per-app distributional
    stats (classes, serialized bytes, reducible items, CNF clauses) and
    the buggy-instance list, so later runs can plan scheduling and
    verify distribution fidelity without touching the blobs.  Returns
    the manifest dict.
    """
    from repro.bytecode.constraints import generate_constraints
    from repro.bytecode.items import items_of
    from repro.bytecode.serializer import serialize_application

    os.makedirs(path, exist_ok=True)
    entries: List[Dict] = []
    for benchmark in benchmarks:
        blob = serialize_application(benchmark.app)
        app_file = f"{benchmark.benchmark_id}.app"
        with open(os.path.join(path, app_file), "wb") as fh:
            fh.write(blob)
        entry = {
            "benchmark_id": benchmark.benchmark_id,
            "seed": benchmark.seed,
            "app_file": app_file,
            "classes": len(benchmark.app.classes),
            "bytes": len(blob),
            "items": len(items_of(benchmark.app)),
            "clauses": len(generate_constraints(benchmark.app).clauses),
            "instances": [
                {
                    "decompiler": inst.decompiler,
                    "scenario": inst.scenario,
                    "num_errors": inst.num_errors,
                }
                for inst in benchmark.instances
            ],
        }
        entries.append(entry)
        if progress is not None:
            progress(
                f"{benchmark.benchmark_id}: {entry['classes']} classes, "
                f"{entry['bytes']} bytes, {len(entry['instances'])} instances"
            )
    manifest = {"version": 1, "benchmarks": entries}
    tmp = os.path.join(path, MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    os.replace(tmp, os.path.join(path, MANIFEST_NAME))
    return manifest


def load_manifest(path: str) -> Dict:
    """The persisted corpus manifest (stats + instance lists)."""
    with open(os.path.join(path, MANIFEST_NAME), encoding="utf-8") as fh:
        return json.load(fh)


class _LazyOracle:
    """Builds the real oracle on first attribute access.

    Loading a persisted corpus must not pay 1000 full decompiles up
    front; whoever actually runs an instance (usually a worker process)
    forces construction.
    """

    def __init__(self, factory):
        self._factory = factory
        self._oracle = None

    def __getattr__(self, attr):
        if self._oracle is None:
            self._oracle = self._factory()
        return getattr(self._oracle, attr)


def _oracle_factory(app: Application, decompiler: str, scenario: str,
                    benchmark_id: str):
    if scenario == "debloat":
        from repro.workloads.debloat import DebloatOracle

        return lambda: DebloatOracle(app, benchmark_id)
    return lambda: DecompilerOracle(app, DECOMPILERS[decompiler])


def iter_saved_corpus(path: str) -> Iterator[Benchmark]:
    """Stream a persisted corpus back, one benchmark at a time.

    Applications are deserialized eagerly (the caller controls
    retention by consuming the iterator); oracles are lazy — forcing
    one costs the full-app decompile the manifest already paid at save
    time, so stats come from ``instance.known_errors`` instead.
    """
    from repro.bytecode.serializer import deserialize_application

    manifest = load_manifest(path)
    for entry in manifest["benchmarks"]:
        app_path = os.path.join(path, entry["app_file"])
        with open(app_path, "rb") as fh:
            app = deserialize_application(fh.read())
        benchmark = Benchmark(
            benchmark_id=entry["benchmark_id"],
            seed=entry["seed"],
            app=app,
            app_path=app_path,
            stats={
                k: entry[k] for k in ("classes", "bytes", "items", "clauses")
            },
        )
        for inst in entry["instances"]:
            scenario = inst.get("scenario", "reduction")
            benchmark.instances.append(
                BuggyInstance(
                    benchmark_id=entry["benchmark_id"],
                    decompiler=inst["decompiler"],
                    oracle=_LazyOracle(
                        _oracle_factory(
                            app, inst["decompiler"], scenario,
                            entry["benchmark_id"],
                        )
                    ),
                    scenario=scenario,
                    known_errors=inst.get("num_errors"),
                )
            )
        yield benchmark


def load_corpus(path: str) -> List[Benchmark]:
    """Load a persisted corpus eagerly (small corpora and tests)."""
    return list(iter_saved_corpus(path))
