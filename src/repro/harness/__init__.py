"""The experiment harness.

Regenerates every table and figure of the paper's Section 5 (see
DESIGN.md's per-experiment index and EXPERIMENTS.md for paper-vs-measured
numbers):

- :mod:`repro.harness.metrics` — geometric means, relative sizes, and
  cumulative-frequency-diagram series,
- :mod:`repro.harness.stats` — the corpus statistics row,
- :mod:`repro.harness.experiments` — per-instance strategy runs
  (``run_corpus_experiment`` is the corpus executor,
  :func:`repro.parallel.scheduler.run_scheduled_corpus_experiment`),
- :mod:`repro.harness.timeline` — reduction over (simulated) time,
- :mod:`repro.harness.report` — text renderers for the figures/tables.
"""

from repro.harness.metrics import (
    cumulative_frequency,
    geometric_mean,
    quantile,
)
from repro.harness.stats import corpus_statistics, CorpusStatistics
from repro.harness.experiments import (
    ExperimentConfig,
    InstanceOutcome,
    oracle_fingerprint,
    probe_pool,
    run_instance,
)
from repro.harness.timeline import mean_reduction_over_time
from repro.harness.report import (
    render_cfd_table,
    render_headline,
    render_lossy_comparison,
    render_statistics,
    render_timeline,
)
from repro.harness.export import export_all

__all__ = [
    "geometric_mean",
    "quantile",
    "cumulative_frequency",
    "corpus_statistics",
    "CorpusStatistics",
    "ExperimentConfig",
    "InstanceOutcome",
    "oracle_fingerprint",
    "probe_pool",
    "run_instance",
    "run_corpus_experiment",
    "mean_reduction_over_time",
    "render_cfd_table",
    "render_headline",
    "render_lossy_comparison",
    "render_statistics",
    "render_timeline",
    "export_all",
]


def __getattr__(name: str):
    # The corpus executor lives in repro.parallel.scheduler, which
    # imports this package; resolve it lazily to keep imports acyclic.
    if name == "run_corpus_experiment":
        from repro.parallel.scheduler import run_scheduled_corpus_experiment

        return run_scheduled_corpus_experiment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
