"""Shared fixtures for the figure/table benchmarks.

The corpus profile defaults to ``small`` (minutes on a laptop); set
``REPRO_CORPUS=paper`` for the full-scale run matching the paper's
program sizes (expect a long run — the paper's own evaluation took
machine-days; ours simulates the 33 s decompile cost instead of paying
it, but 96 programs x 3 decompilers x 4 strategies is still real work).

Every bench prints its reproduced figure/table to stdout and appends it
to ``benchmarks/artifacts/<name>.txt`` so the numbers survive pytest's
capture settings.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.harness.experiments import ExperimentConfig
from repro.parallel.scheduler import run_scheduled_corpus_experiment
from repro.workloads.corpus import CorpusConfig, build_corpus

ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"


def corpus_config() -> CorpusConfig:
    profile = os.environ.get("REPRO_CORPUS", "small")
    if profile == "paper":
        return CorpusConfig.paper()
    if profile == "small":
        return CorpusConfig.small()
    raise ValueError(f"unknown REPRO_CORPUS profile {profile!r}")


@pytest.fixture(scope="session")
def corpus():
    return build_corpus(corpus_config())


@pytest.fixture(scope="session")
def outcomes(corpus):
    return run_scheduled_corpus_experiment(corpus, ExperimentConfig())


@pytest.fixture()
def emit(request):
    """Print a reproduced figure and persist it under artifacts/."""

    def _emit(name: str, text: str) -> None:
        ARTIFACTS.mkdir(exist_ok=True)
        (ARTIFACTS / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _emit
