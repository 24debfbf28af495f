"""GBR's search bookkeeping on paper-size apps.

On the NJR-profile apps (1.8k-3.0k variables) a GBR-shaped sequence of
:class:`ProgressionEngine` rebuilds must equal the materializing
reference in :mod:`tests.reference_engines`, and every prefix union a
binary search probes must have ``size_of_items`` equal to its
serialized length.  These take longer than tier-1 tests and run as
their own CI step::

    PYTHONPATH=src python -m pytest -m corpus_scale tests/reduction/test_search_scale.py
"""

import random

import pytest

from repro.bytecode.constraints import generate_constraints
from repro.bytecode.items import items_of
from repro.bytecode.reducer import reduce_application
from repro.bytecode.serializer import (
    ApplicationSerializer,
    serialize_application,
)
from repro.decompiler.oracle import entry_items
from repro.logic import Clause
from repro.reduction import dependency_order
from repro.reduction.progression import ProgressionEngine
from repro.workloads.corpus import CorpusConfig, build_benchmark
from tests.reference_engines import build_progression_reference

#: Rebuilds per app: each learns one entry and shrinks the scope.
ROUNDS = 4


def njr_app(index):
    config = CorpusConfig.njr()
    config.decompilers = ()  # apps only: no oracle runs
    return build_benchmark(index, config).app


@pytest.mark.corpus_scale
@pytest.mark.parametrize("index", range(3))
def test_gbr_shaped_search_matches_reference_and_serializer(index):
    app = njr_app(index)
    variables = items_of(app)
    assert len(variables) > 1000
    cnf = generate_constraints(app)
    require = frozenset(entry_items(app))
    for item in require:
        cnf.add_clause(Clause.unit(item))
    order = dependency_order(cnf, variables)
    serializer = ApplicationSerializer(app)
    # A monotone stand-in predicate: keep a few random items.
    targets = frozenset(random.Random(index).sample(variables, 3))

    engine = ProgressionEngine(cnf, order)
    learned = []
    scope = frozenset(variables)
    for _ in range(ROUNDS):
        progression = engine.build(scope, require)
        reference = build_progression_reference(
            cnf, order, learned, scope, require
        )
        assert list(progression) == list(reference)
        # Binary search for the shortest prefix holding the targets,
        # sizing every probed prefix union as GBR's timeline does.
        lo, hi = 0, len(progression) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            union = progression.prefix_union(mid)
            expected = serialize_application(reduce_application(app, union))
            assert serializer.size_of_items(union) == len(expected)
            if targets <= union:
                hi = mid
            else:
                lo = mid + 1
        if lo == 0:
            break
        learned.append(progression[lo])
        engine.learn(progression[lo])
        scope = progression.prefix_union(lo)
