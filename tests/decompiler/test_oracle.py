"""Tests for the oracle — above all, predicate monotonicity."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode.constraints import generate_constraints
from repro.bytecode.items import items_of
from repro.bytecode.reducer import reduce_application
from repro.decompiler import DECOMPILERS, check_sources
from repro.decompiler.bugs import BUG_KINDS, sites_for
from repro.decompiler.oracle import (
    DecompilerOracle,
    build_reduction_problem,
    entry_items,
)
from repro.logic.msa import MsaSolver
from repro.workloads import generate_application
from repro.workloads.generator import WorkloadConfig

CONFIG = WorkloadConfig(num_classes=14, num_interfaces=4)


def first_buggy(seed_start=0):
    for seed in range(seed_start, seed_start + 50):
        app = generate_application(seed, CONFIG)
        for name in DECOMPILERS:
            oracle = DecompilerOracle(app, name)
            if oracle.is_buggy:
                return app, name, oracle
    raise AssertionError("no buggy pair found")


class TestOracle:
    def test_full_input_satisfies_predicate(self):
        app, name, oracle = first_buggy()
        assert oracle.item_predicate(frozenset(items_of(app)))

    def test_empty_input_fails_predicate(self):
        app, name, oracle = first_buggy()
        assert not oracle.item_predicate(frozenset())

    def test_class_predicate_full_set(self):
        app, name, oracle = first_buggy()
        assert oracle.class_predicate(frozenset(app.class_names()))

    def test_errors_deterministic(self):
        app, name, oracle = first_buggy()
        again = DecompilerOracle(app, name)
        assert again.original_errors == oracle.original_errors

    def test_build_problem_requires_entry(self):
        app, name, oracle = first_buggy()
        problem = build_reduction_problem(app, name)
        for item in entry_items(app):
            assert not problem.constraint.satisfied_by(
                frozenset(problem.variables) - {item}
            )

    def test_build_problem_rejects_clean_pairs(self):
        for seed in range(60):
            app = generate_application(seed, CONFIG)
            for name in DECOMPILERS:
                oracle = DecompilerOracle(app, name)
                if not oracle.is_buggy:
                    with pytest.raises(ValueError):
                        build_reduction_problem(app, name)
                    return
        pytest.skip("every pair buggy in this range")


class TestMonotonicity:
    """Definition 4.1's key assumption, property-tested end to end.

    For valid sub-inputs X <= Y: P(X) implies P(Y).  We generate a chain
    of valid sub-inputs by growing an MSA model and check the predicate
    never flips from true back to false along the chain.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=500),
        st.randoms(use_true_random=False),
    )
    def test_predicate_monotone_along_growing_chains(self, seed, rng):
        app = generate_application(seed, CONFIG)
        buggy = [
            DecompilerOracle(app, name)
            for name in DECOMPILERS
            if DecompilerOracle(app, name).is_buggy
        ]
        if not buggy:
            return
        oracle = buggy[0]
        cnf = generate_constraints(app)
        items = items_of(app)
        solver = MsaSolver(cnf, items)

        current = solver.compute(require_true=frozenset(entry_items(app)))
        assert current is not None
        seen_true = False
        for _ in range(6):
            value = oracle.item_predicate(current)
            if seen_true:
                assert value, "monotonicity violated: true then false"
            seen_true = seen_true or value
            remaining = [v for v in items if v not in current]
            if not remaining:
                break
            batch = rng.sample(remaining, min(len(remaining), 40))
            extended = set(current)
            assert solver.extend(extended, batch) is not None
            current = frozenset(extended)
        assert oracle.item_predicate(frozenset(items))


class TestBugSiteMonotonicity:
    """Site sets only shrink when items are removed."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=500), st.data())
    def test_sites_shrink_with_items(self, seed, data):
        app = generate_application(seed, CONFIG)
        cnf = generate_constraints(app)
        items = items_of(app)
        solver = MsaSolver(cnf, items)
        wanted = data.draw(st.sets(st.sampled_from(items), max_size=30))
        model = solver.compute(require_true=frozenset(wanted))
        if model is None:
            return
        reduced = reduce_application(app, model)
        for bug_id in BUG_KINDS:
            full_sites = set(sites_for(app, (bug_id,), 1.0, {}))
            reduced_sites = set(sites_for(reduced, (bug_id,), 1.0, {}))
            assert reduced_sites <= full_sites, bug_id


#: One oracle per (decompiler, bug scale), shared by every example of a
#: test, so its memos carry over between examples as between probes.
_ORACLES = {}


def shared_oracle(name, scale):
    key = (name, scale)
    if key not in _ORACLES:
        app = generate_application(7, CONFIG)
        decompiler = dataclasses.replace(DECOMPILERS[name], bug_scale=scale)
        _ORACLES[key] = DecompilerOracle(app, decompiler)
    return _ORACLES[key]


class TestIncrementalOracle:
    """The probe path's memos change no answer."""

    @pytest.mark.parametrize("scale", [1.0, 0.0])
    @pytest.mark.parametrize("name", sorted(DECOMPILERS))
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32),
                # Mostly-kept sets make reduced classes recur, so the
                # memos hit; the rest of the range makes them miss.
                st.one_of(
                    st.sampled_from([1.0, 0.97, 0.9]),
                    st.floats(min_value=0.3, max_value=1.0),
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_memoized_errors_equal_uncached(self, name, scale, probes):
        oracle = shared_oracle(name, scale)
        app = oracle.app
        items = sorted(items_of(app), key=repr)
        for seed, keep in probes:
            rng = random.Random(seed)
            kept = frozenset(i for i in items if rng.random() < keep)
            expected = oracle.errors_of(reduce_application(app, kept))
            assert oracle.probe_errors(kept) == expected
            assert oracle.item_predicate(kept) == (
                expected == oracle.original_errors
            )

    @pytest.mark.parametrize("name", sorted(DECOMPILERS))
    def test_memo_reuses_recurring_classes(self, name):
        oracle = shared_oracle(name, 0.0)
        kept = frozenset(items_of(oracle.app))
        first = oracle.decompiler.decompile(
            oracle._materializer.reduce(kept), oracle._decompile_memo
        )
        again = oracle.decompiler.decompile(
            oracle._materializer.reduce(kept), oracle._decompile_memo
        )
        assert all(a is b for a, b in zip(first, again))
        assert check_sources(again, oracle._check_memo) == (
            oracle.original_errors
        )

    def test_construction_leaves_memos_empty(self):
        app, name, oracle = first_buggy()
        for fresh in (oracle, DecompilerOracle(app, name)):
            assert not fresh._decompile_memo.sites
            assert not fresh._decompile_memo.classes
            assert not fresh._check_memo
        oracle.item_predicate(frozenset(items_of(app)))
        assert oracle._decompile_memo.classes and oracle._check_memo


def _class_subset(app, kept_classes):
    return app.replace_classes(
        tuple(c for c in app.classes if c.name in kept_classes)
    )


#: Random class subsets: each class kept with the drawn probability
#: (high ones keep the classes a predicate needs).
CLASS_PROBES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([1.0, 0.95, 0.8, 0.5]),
    ),
    min_size=1,
    max_size=4,
)


def _draw_classes(app, seed, keep):
    rng = random.Random(seed)
    return frozenset(c.name for c in app.classes if rng.random() < keep)


class TestClassProbes:
    """A class probe is the item probe over the kept classes' items."""

    @pytest.mark.parametrize("scale", [1.0, 0.0])
    @pytest.mark.parametrize("name", sorted(DECOMPILERS))
    @settings(max_examples=10, deadline=None)
    @given(CLASS_PROBES)
    def test_class_predicate_equals_whole_class_errors(
        self, name, scale, probes
    ):
        oracle = shared_oracle(name, scale)
        app = oracle.app
        for seed, keep in probes:
            kept = _draw_classes(app, seed, keep)
            subset = _class_subset(app, kept)
            assert oracle._materializer.reduce(
                oracle.class_items(kept)
            ) == subset
            assert oracle.class_predicate(kept) == (
                oracle.errors_of(subset) == oracle.original_errors
            )

    @settings(max_examples=20, deadline=None)
    @given(CLASS_PROBES, st.booleans())
    def test_debloat_class_predicate_equals_whole_class_check(
        self, probes, covered
    ):
        from repro.bytecode.validator import validate_application
        from repro.workloads.debloat import DebloatOracle

        oracle = _ORACLES.get("debloat")
        if oracle is None:
            app = generate_application(7, CONFIG)
            oracle = _ORACLES["debloat"] = DebloatOracle(app, "b007")
        app = oracle.app
        for seed, keep in probes:
            kept = _draw_classes(app, seed, keep)
            if covered:
                kept |= oracle.covered_classes
            subset = _class_subset(app, kept)
            assert oracle.class_predicate(kept) == (
                oracle.covered_classes <= kept
                and not validate_application(subset, raise_on_error=False)
            )
