"""Problem building against the reference engines, on corpus apps.

The constraint CNF and the variable order must equal what the
pre-optimisation engines in :mod:`tests.reference_engines` produce:
the same clauses in the same order, and the same order of variables.
The sample covers the benchmark corpus's range of app sizes (8 to 24
classes); the ``corpus_scale`` tests repeat it on paper-size NJR-profile
apps, which take longer and run as their own CI step::

    PYTHONPATH=src python -m pytest -m corpus_scale tests/reduction/test_problem_build.py
"""

import json
import os
import subprocess
import sys

import pytest

from repro.bytecode.constraints import generate_constraints
from repro.bytecode.items import items_of
from repro.reduction import dependency_order
from repro.workloads.corpus import CorpusConfig, build_benchmark
from tests.reference_engines import (
    dependency_order_reference,
    generate_constraints_reference,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def corpus_apps(config, count):
    config.decompilers = ()  # apps only: no oracle runs
    return [build_benchmark(index, config).app for index in range(count)]


def assert_matches_reference(app):
    cnf = generate_constraints(app)
    reference = generate_constraints_reference(app)
    assert cnf.clauses == reference.clauses
    assert cnf.variables == reference.variables
    variables = items_of(app)
    assert dependency_order(cnf, variables) == dependency_order_reference(
        reference, variables
    )


@pytest.mark.parametrize("classes", [8, 12, 17, 24])
def test_benchmark_size_apps_match_the_reference(classes):
    config = CorpusConfig(
        num_benchmarks=1, min_classes=classes, max_classes=classes, seed=1
    )
    (app,) = corpus_apps(config, 1)
    assert_matches_reference(app)


@pytest.mark.corpus_scale
def test_njr_apps_match_the_reference():
    for app in corpus_apps(CorpusConfig.njr(), 3):
        assert len(items_of(app)) > 1000
        assert_matches_reference(app)


SEED_PROBE = """
import json
from repro.logic import CNF, Clause
from repro.reduction import dependency_order
from tests.reference_engines import dependency_order_reference

pairs = [("alpha", "beta"), ("gamma", "delta"), ("eps", "zeta")]
clauses = []
for a, b in pairs:
    clauses += [Clause.implication([a], [b]), Clause.implication([b], [a])]
names = [name for pair in pairs for name in pair]
cnf = CNF(clauses, variables=names)
print(json.dumps([dependency_order(cnf, names),
                  dependency_order_reference(cnf, names)]))
"""


def test_order_of_cycles_does_not_depend_on_the_hash_seed():
    orders, reference_orders = set(), set()
    for seed in range(6):
        env = dict(
            os.environ,
            PYTHONHASHSEED=str(seed),
            PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
        )
        out = subprocess.run(
            [sys.executable, "-c", SEED_PROBE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout
        order, reference = json.loads(out)
        orders.add(tuple(order))
        reference_orders.add(tuple(reference))
    assert len(orders) == 1
    # The plain-repr ranking this replaced is what varied.
    assert len(reference_orders) > 1
