"""Compiled-problem records: a loaded problem is the built one, a stale
or malformed record is never served, and code edits make stores miss.
"""

import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.bytecode.items import items_of
from repro.bytecode.serializer import serialize_application
from repro.decompiler.oracle import build_reduction_problem
from repro.harness import experiments
from repro.harness.experiments import (
    ExperimentConfig,
    outcome_signature,
    run_instance,
)
from repro.harness.problems import (
    compiled_problem,
    decode_record,
    encode_record,
    problem_namespace,
)
from repro.observability.metrics import MetricsRegistry, scoped_metrics
from repro.parallel import open_store
from repro.parallel.procpool import build_oracle
from repro.reduction import dependency_order
from repro.workloads.corpus import CorpusConfig, build_benchmark

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _instance(classes):
    """The first buggy instance of a ``classes``-class app (seed 1)."""
    config = CorpusConfig(
        num_benchmarks=1, min_classes=classes, max_classes=classes, seed=1
    )
    for index in itertools.count():
        benchmark = build_benchmark(index, config)
        if benchmark.instances:
            return benchmark, benchmark.instances[0]


def _digest(app):
    return hashlib.sha256(serialize_application(app)).hexdigest()


def _load(benchmark, instance, store):
    """compiled_problem's answer and the problem.* counters it moved."""
    registry = MetricsRegistry()
    with scoped_metrics(registry):
        problem, order = compiled_problem(
            benchmark.app, _digest(benchmark.app), instance.oracle, store
        )
    counters = {
        name: value for name, value in registry.counter_values().items()
        if name.startswith("problem.")
    }
    return problem, order, counters


def _assert_same_problem(problem, order, app, decompiler):
    built = build_reduction_problem(app, decompiler)
    assert list(problem.variables) == list(items_of(app))
    assert problem.constraint.clauses == built.constraint.clauses
    assert problem.constraint.variables == built.constraint.variables
    assert order == dependency_order(built.constraint, built.variables)
    assert problem.description == built.description


@pytest.mark.parametrize("classes", [8, 12, 17, 24])
def test_loaded_record_equals_a_fresh_build(tmp_path, classes):
    benchmark, instance = _instance(classes)
    app = benchmark.app
    with open_store(tmp_path / "store") as store:
        _, _, counters = _load(benchmark, instance, store)
        assert counters == {"problem.misses": 1}
    with open_store(tmp_path / "store") as reopened:
        problem, order, counters = _load(benchmark, instance, reopened)
        assert counters == {"problem.hits": 1}
    _assert_same_problem(problem, order, app, instance.oracle.decompiler)

    # GBR on the loaded problem: the store holds the record but no
    # verdicts, so the run does the same oracle work as one that builds.
    config = ExperimentConfig(strategies=("our-reducer",))
    with open_store(tmp_path / "store") as primed, open_store(
        tmp_path / "empty"
    ) as empty:
        loaded = run_instance(benchmark, instance, "our-reducer", config,
                              primed)
        built = run_instance(benchmark, instance, "our-reducer", config,
                             empty)
    assert loaded.predicate_calls > 0
    assert outcome_signature(loaded) == outcome_signature(built)


def _corrupt_record(store_path, app, edit):
    """Rewrite the app's record in place through ``edit(fields)``."""
    key = _digest(app)
    for name in os.listdir(store_path):
        if not name.endswith(".jsonl"):
            continue
        path = os.path.join(store_path, name)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for i, line in enumerate(lines):
            entry = json.loads(line)
            if entry["k"] == key and "p" in entry:
                fields = json.loads(entry["p"])
                edit(fields)
                entry["p"] = json.dumps(fields)
                lines[i] = json.dumps(entry)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write("\n".join(lines) + "\n")
                return
    raise AssertionError("no record to corrupt")


def _out_of_range(fields):
    fields[1][0][0] = fields[0] + 1


def _not_a_permutation(fields):
    fields[3][0] = fields[3][1]


def _wrong_item_count(fields):
    fields[0] += 1


@pytest.mark.parametrize(
    "edit", [_out_of_range, _not_a_permutation, _wrong_item_count]
)
def test_malformed_record_is_rejected_and_rebuilt(tmp_path, edit):
    benchmark, instance = _instance(8)
    path = tmp_path / "store"
    with open_store(path) as store:
        _load(benchmark, instance, store)
    _corrupt_record(path, benchmark.app, edit)
    with open_store(path) as reopened:
        problem, order, counters = _load(benchmark, instance, reopened)
        assert counters == {"problem.rejected": 1}
    _assert_same_problem(
        problem, order, benchmark.app, instance.oracle.decompiler
    )
    with open_store(path) as repaired:
        _, _, counters = _load(benchmark, instance, repaired)
        assert counters == {"problem.hits": 1}


def test_truncated_record_line_is_never_served(tmp_path):
    benchmark, instance = _instance(8)
    path = tmp_path / "store"
    with open_store(path, shards=1) as store:
        _load(benchmark, instance, store)
    shard = path / "shard-000.jsonl"
    shard.write_text(shard.read_text()[:-40])
    with open_store(path) as reopened:
        problem, order, counters = _load(benchmark, instance, reopened)
        assert counters == {"problem.misses": 1}
    _assert_same_problem(
        problem, order, benchmark.app, instance.oracle.decompiler
    )


@pytest.mark.parametrize("payload", [
    "", "[", "{}", "[1, 2, 3]", '[2, [[1, -1]], [0, 1], [0, 1]]',
    '[2, [[1, 0]], [0, 1], [0, 1]]', '[2, [[1.0]], [0, 1], [0, 1]]',
    '[2, [[2]], [0], [0, 1]]', '[2, [], [0, 0], [0, 1]]',
    '[2, [], [0, 1], [0, 1, 1]]', '[true, [], [], []]',
])
def test_decode_rejects_shapes_encode_cannot_write(payload):
    with pytest.raises(ValueError):
        decode_record(payload, ["a", "b"])


def test_record_round_trips_through_encode():
    benchmark, instance = _instance(8)
    app = benchmark.app
    problem = build_reduction_problem(app, instance.oracle.decompiler)
    order = dependency_order(problem.constraint, problem.variables)
    cnf, loaded_order = decode_record(
        encode_record(problem, order), items_of(app)
    )
    assert cnf.clauses == problem.constraint.clauses
    assert cnf.variables == problem.constraint.variables
    assert loaded_order == order


def test_tenants_keep_separate_records():
    assert problem_namespace("a") != problem_namespace("b")
    assert problem_namespace("a").startswith("tenant=a:problem:")
    assert problem_namespace().startswith("problem:")


def test_one_serialization_of_the_unmodified_app(tmp_path, monkeypatch):
    benchmark, instance = _instance(8)
    app = benchmark.app
    calls = []
    original = experiments.serialize_application

    def spy(target):
        calls.append(target is app)
        return original(target)

    monkeypatch.setattr(experiments, "serialize_application", spy)
    monkeypatch.setattr(
        "repro.bytecode.metrics.serialize_application", spy
    )
    with open_store(tmp_path / "store") as store:
        run_instance(benchmark, instance, "our-reducer",
                     ExperimentConfig(strategies=("our-reducer",)), store)
    assert calls.count(True) == 1


def test_problem_build_reuses_the_oracle_error_set(monkeypatch):
    benchmark, instance = _instance(8)
    decompiler = instance.oracle.decompiler
    calls = []
    original = type(decompiler).decompile

    def spy(self, app, memo):
        calls.append(app is benchmark.app)
        return original(self, app, memo)

    monkeypatch.setattr(type(decompiler), "decompile", spy)
    build_oracle(
        benchmark.app, instance.scenario, instance.decompiler,
        benchmark.benchmark_id, instance.oracle.original_errors,
    ).build_problem()
    assert calls == []


# -- code edits make stores miss -----------------------------------------

RERUN = """
import json, sys
from repro.harness.experiments import ExperimentConfig, run_instance
from repro.observability.metrics import MetricsRegistry, scoped_metrics
from repro.parallel import open_store
from repro.parallel.procpool import build_oracle
from repro.workloads.corpus import CorpusConfig, build_benchmark

config = CorpusConfig(num_benchmarks=1, min_classes=8, max_classes=8, seed=1)
index = 0
while not (benchmark := build_benchmark(index, config)).instances:
    index += 1
registry = MetricsRegistry()
with scoped_metrics(registry), open_store(sys.argv[1]) as store:
    outcome = run_instance(
        benchmark, benchmark.instances[0], "our-reducer",
        ExperimentConfig(strategies=("our-reducer",)), store)
counters = registry.counter_values()
print(json.dumps({
    "calls": outcome.predicate_calls,
    "final_bytes": outcome.final_bytes,
    **{name: counters.get(name, 0) for name in (
        "problem.hits", "problem.misses", "store.hits", "store.misses")},
}))
"""


def _rerun(src, store):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-c", RERUN, str(store)], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _src_copy(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(
        os.path.join(ROOT, "src"), src,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return src


def _edit(src, relative):
    with open(src / "repro" / relative, "a", encoding="utf-8") as handle:
        handle.write("\n# edited\n")


def test_editing_the_constraint_generator_misses_the_record(tmp_path):
    src = _src_copy(tmp_path)
    store = tmp_path / "store"
    cold = _rerun(src, store)
    assert cold["problem.misses"] == 1 and cold["calls"] > 0
    warm = _rerun(src, store)
    assert warm["problem.hits"] == 1 and warm["problem.misses"] == 0
    assert warm["calls"] == 0
    _edit(src, "bytecode/constraints.py")
    edited = _rerun(src, store)
    assert edited["problem.misses"] == 1 and edited["problem.hits"] == 0
    assert edited["final_bytes"] == cold["final_bytes"]


def test_editing_the_oracle_misses_the_verdicts(tmp_path):
    src = _src_copy(tmp_path)
    store = tmp_path / "store"
    cold = _rerun(src, store)
    assert cold["store.hits"] == 0 and cold["calls"] > 0
    _edit(src, "decompiler/bugs.py")
    edited = _rerun(src, store)
    # The constraint generator did not change: its record still serves.
    assert edited["problem.hits"] == 1
    assert edited["store.hits"] == 0
    assert edited["calls"] == cold["calls"]
    assert edited["final_bytes"] == cold["final_bytes"]
