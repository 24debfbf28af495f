"""Section 5 "Statistics" — the corpus statistics row.

Paper geo-means: 184 classes, 285 KB, 9.2 errors, 2.9k items,
8.7k clauses, 97.5% edges among clauses.
"""

import math
import statistics

from repro.bytecode.constraints import generate_constraints
from repro.bytecode.items import items_of
from repro.bytecode.metrics import application_size_bytes
from repro.harness import corpus_statistics, render_statistics
from repro.workloads.corpus import (
    PAPER_GEO_BYTES,
    PAPER_GEO_CLASSES,
    PAPER_GEO_CLAUSES,
    PAPER_GEO_ITEMS,
    CorpusConfig,
    build_benchmark,
)

FIDELITY_TOLERANCE = 0.12  # geo-means within 12% of the paper's
FIDELITY_SAMPLE = 30


def test_bench_corpus_statistics(benchmark, corpus, emit):
    stats = benchmark(corpus_statistics, corpus)
    assert stats.num_instances >= 1
    assert 0.8 <= stats.edge_fraction <= 1.0
    emit("table_statistics", render_statistics(stats))


def test_njr_table1_fidelity():
    """The njr profile's geo-means land near the paper's Table 1.

    Generates the first 30 ``CorpusConfig.njr()`` apps (id-keyed seeds,
    so deterministic) and checks the geo-mean classes, bytes, items and
    clauses each within 12% of the paper's statistics.
    """
    config = CorpusConfig.njr()

    def geo(values):
        return math.exp(statistics.mean(math.log(v) for v in values))

    classes, sizes, items, clauses = [], [], [], []
    for index in range(FIDELITY_SAMPLE):
        app = build_benchmark(index, config).app
        classes.append(len(app.classes))
        sizes.append(application_size_bytes(app))
        items.append(len(items_of(app)))
        clauses.append(len(generate_constraints(app).clauses))

    measured = {
        "classes": geo(classes),
        "bytes": geo(sizes),
        "items": geo(items),
        "clauses": geo(clauses),
    }
    targets = {
        "classes": PAPER_GEO_CLASSES,
        "bytes": PAPER_GEO_BYTES,
        "items": PAPER_GEO_ITEMS,
        "clauses": PAPER_GEO_CLAUSES,
    }
    deviations = {
        key: measured[key] / targets[key] - 1.0 for key in targets
    }
    assert all(
        abs(v) <= FIDELITY_TOLERANCE for v in deviations.values()
    ), deviations
