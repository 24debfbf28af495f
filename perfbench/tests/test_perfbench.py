"""The benchmark's own tests: inputs, catalog, certificates, wrappers."""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

from perfbench import corpus, inprocess, run, stats
from perfbench.certify import SolutionCapture, certify
from perfbench.layers import LAYERS, LayerTracer, leftover_wrappers
from repro.bytecode.constraints import generate_constraints
from repro.decompiler.oracle import entry_items
from repro.harness import experiments

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _small_pass(seed, tmp_path):
    spec = inprocess.Spec(limit=3)
    prepared = inprocess.Prepared(spec, seed, tempfile.mkdtemp(dir=tmp_path))
    try:
        store = prepared.pass_store()
        with SolutionCapture() as capture:
            result = inprocess.run_pass(prepared, store, capture)
        store.close()
    finally:
        prepared.close()
    return prepared, result


# -- inputs and determinism ---------------------------------------------


def test_same_seed_same_figures_other_seed_different(tmp_path):
    first = inprocess.deterministic(_small_pass(3, tmp_path)[1].outcomes)
    again = inprocess.deterministic(_small_pass(3, tmp_path)[1].outcomes)
    other = inprocess.deterministic(_small_pass(4, tmp_path)[1].outcomes)
    assert first == again
    for name in ("oracle_calls", "sim_s", "rel_bytes_geo"):
        assert first[name] != other[name], name


def test_corpus_prefix_spans_the_size_range():
    sizes = corpus.stratum_sizes(40, 10, 30)
    order = corpus.stratum_order(40)
    assert sorted(order) == list(range(40))
    half = [sizes[s] for s in order[:20]]
    assert min(half) == sizes[0] and max(half) >= sizes[-2]


def test_service_schedule_shares_and_repeats():
    plan, distinct = corpus.service_schedule(5, 100, 8.0, 0.25)
    again, _ = corpus.service_schedule(5, 100, 8.0, 0.25)
    assert plan == again
    tenants = [job.tenant for job in plan]
    assert tenants.count("tenant-a") == 75 and tenants.count("tenant-b") == 25
    repeats = sum(job.repeat for job in plan)
    assert 20 <= repeats <= 25 and distinct == 100 - repeats
    owner = {}
    for job in plan:
        assert owner.setdefault(job.app, job.tenant) == job.tenant
    assert [job.due_s for job in plan] == [k / 8.0 for k in range(100)]


def test_scaling_is_relative_to_the_reference_kernel():
    ref = stats.REFERENCE_KERNEL_S
    assert stats.scaled(2.0, [ref]) == pytest.approx(2.0)
    # A host half as fast reads the kernel twice as slow; one stray
    # reading does not move the median.
    assert stats.scaled(4.0, [2 * ref, 2 * ref, 9 * ref]) == pytest.approx(2.0)
    assert min(stats.kernel_readings()) > 0


# -- the catalog ---------------------------------------------------------


def test_catalog_names_units_and_bounds():
    catalog = run.load_catalog()
    names = [w["name"] for w in catalog["workloads"]]
    assert sorted(names) == sorted([*inprocess.SPECS, "service-mix"])
    seen = set()
    for metric in catalog["end_to_end"] + catalog["per_layer"]:
        assert NAME.match(metric["name"]) and metric["name"] not in seen
        seen.add(metric["name"])
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in catalog["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in catalog["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in catalog["end_to_end"])


def test_metric_block_refuses_missing_or_undeclared_metrics():
    catalog = run.load_catalog()
    metrics = {m["name"]: (1.0, 3) for m in catalog["end_to_end"]}
    result = {"metrics": metrics}
    block = run.metric_block(result, catalog, False, "cold-corpus")
    assert block["setup_s"] == {"value": 1.0, "unit": "s", "samples": 3}
    del metrics["setup_s"]
    with pytest.raises(RuntimeError, match="setup_s"):
        run.metric_block(result, catalog, False, "cold-corpus")
    metrics["setup_s"] = metrics["bogus"] = (1.0, 1)
    with pytest.raises(RuntimeError, match="bogus"):
        run.metric_block(result, catalog, False, "cold-corpus")


def test_without_the_program_the_command_fails_quietly(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


_POOL_THEN_STOP = """
import multiprocessing, os, sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker
sys.path[:0] = [sys.argv[1]]
from perfbench import run
pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn"))
pool.submit(os.getpid).result()
pool.shutdown(wait=True)
tracker = resource_tracker._resource_tracker._pid
assert tracker is not None
run.stop_children()
assert not multiprocessing.active_children()
try:
    os.kill(tracker, 0)
except ProcessLookupError:
    print("stopped")
"""


def test_stop_children_leaves_no_process_behind():
    done = subprocess.run(
        [sys.executable, "-c", _POOL_THEN_STOP, ROOT],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "stopped"


# -- certificates --------------------------------------------------------


@pytest.fixture(scope="module")
def reduced(tmp_path_factory):
    prepared, result = _small_pass(3, tmp_path_factory.mktemp("cert"))
    benchmark, instance = prepared.instances[0]
    outcome = result.outcomes[0]
    app, solution = result.solutions[0]
    assert app is benchmark.app
    return benchmark.app, instance.decompiler, solution, outcome


def test_certify_accepts_the_reducers_output(reduced):
    app, decompiler, solution, outcome = reduced
    assert certify(app, decompiler, solution, outcome.final_bytes) == []


def test_certify_rejects_a_dropped_entry_point(reduced):
    app, decompiler, solution, _ = reduced
    entry = entry_items(app)[2]
    assert entry in solution
    assert certify(app, decompiler, solution - {entry})


def test_certify_rejects_a_dropped_dependency(reduced):
    app, decompiler, solution, _ = reduced
    cnf = generate_constraints(app)
    required = next(
        item for item in sorted(solution, key=repr)
        if item not in entry_items(app)
        and not cnf.satisfied_by(solution - {item})
    )
    problems = certify(app, decompiler, solution - {required})
    assert "solution violates the constraint CNF" in problems


def test_certify_rejects_a_misreported_size(reduced):
    app, decompiler, solution, outcome = reduced
    assert certify(app, decompiler, solution, outcome.final_bytes + 1)


# -- wrappers ------------------------------------------------------------


def _originals():
    import importlib

    found = {}
    for _, module_name, class_name, attr in LAYERS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = vars(owner)[class_name]
        found[(module_name, class_name, attr)] = vars(owner)[attr]
    return found


def test_wrappers_attribute_time_and_leave_no_trace(tmp_path):
    before = _originals()
    reduce_before = experiments.reduce_application
    spec = inprocess.Spec(limit=2)
    prepared = inprocess.Prepared(spec, 3, str(tmp_path))
    tracer = LayerTracer()
    try:
        store = prepared.pass_store()
        with SolutionCapture() as capture, tracer:
            assert leftover_wrappers()
            result = inprocess.run_pass(prepared, store, capture)
        store.close()
    finally:
        prepared.close()
    assert leftover_wrappers() == []
    assert _originals() == before
    assert experiments.reduce_application is reduce_before
    self_s = tracer.layer_self()
    assert tracer.calls("harness") == 2
    # javac and the serializer are reached through names other modules
    # imported; decompile through its class.
    for layer in ("javac", "serializer", "decompile", "constraints"):
        assert tracer.calls(layer) > 0, layer
    # The self times partition the time spent inside the timed calls.
    covered = sum(result.walls)
    assert sum(self_s.values()) == pytest.approx(covered, rel=0.1)


def test_wrappers_are_removed_when_the_region_raises():
    with pytest.raises(ZeroDivisionError):
        with LayerTracer():
            1 / 0
    assert leftover_wrappers() == []


def test_baseline_file_matches_the_catalog_workloads():
    path = os.path.join(ROOT, "perfbench", "BASELINE.json")
    with open(path, encoding="utf-8") as fh:
        baseline = json.load(fh)
    names = [w["name"] for w in run.load_catalog()["workloads"]]
    assert sorted(baseline["workloads"]) == sorted(names)
