"""Differential tests: watched-literal propagation vs ``unit_propagate``.

The two engines implement the same least-fixpoint computation, so on any
clause database and any seed they must detect the same conflicts and —
when there is no conflict — derive exactly the same assignment (unit
propagation is confluent: the fixpoint does not depend on queue order).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.cnf import CNF, Clause, Lit
from repro.logic.propagation import WatchedIndex, propagate_watched
from tests.reference_engines import (
    OccurrenceIndex,
    unit_propagate,
    watched_propagate_from_seed,
)
from tests.strategies import VAR_NAMES, cnfs


def _engines(cnf: CNF):
    indexed = cnf.to_indexed()
    occurrence = OccurrenceIndex(indexed.clauses, indexed.num_vars)
    watched = WatchedIndex(indexed.clauses, indexed.num_vars)
    return indexed, occurrence, watched


@st.composite
def cnf_and_seed(draw):
    cnf = draw(cnfs())
    indexed = cnf.to_indexed()
    n = indexed.num_vars
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=max(0, n - 1)),
                st.booleans(),
            ),
            max_size=6,
        )
    )
    return cnf, pairs


class TestWatchedVsOccurrence:
    @given(cnf_and_seed())
    @settings(max_examples=200, deadline=None)
    def test_same_conflicts_and_assignments(self, case):
        cnf, seed = case
        _, occurrence, watched = _engines(cnf)
        reference = unit_propagate(occurrence, seed)
        candidate = watched_propagate_from_seed(watched, seed)
        assert candidate.conflict == reference.conflict
        if not reference.conflict:
            assert candidate.assignment == reference.assignment

    @given(cnf_and_seed(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_same_fixpoint_on_top_of_a_base(self, case, rng):
        """Propagating from a consistent base must agree across engines."""
        cnf, seed = case
        _, occurrence, watched = _engines(cnf)
        # Build a conflict-free base by propagating a prefix of the seed.
        cut = rng.randrange(len(seed) + 1)
        warmup = unit_propagate(occurrence, seed[:cut])
        if warmup.conflict:
            return
        base = warmup.assignment
        rest = seed[cut:]
        reference = unit_propagate(occurrence, rest, base=base)
        candidate = watched_propagate_from_seed(watched, rest, base=base)
        assert candidate.conflict == reference.conflict
        if not reference.conflict:
            assert candidate.assignment == reference.assignment

    @given(cnfs())
    @settings(max_examples=100, deadline=None)
    def test_empty_seed_reaches_root_fixpoint(self, cnf):
        _, occurrence, watched = _engines(cnf)
        reference = unit_propagate(occurrence, [])
        candidate = watched_propagate_from_seed(watched, [])
        assert candidate.conflict == reference.conflict
        if not reference.conflict:
            assert candidate.assignment == reference.assignment


class TestWatchInvariants:
    def test_unit_clauses_are_not_watched(self):
        cnf = CNF(
            [Clause.unit("a"), Clause.implication(["a"], ["b"])],
            variables=["a", "b"],
        )
        indexed = cnf.to_indexed()
        watched = WatchedIndex(indexed.clauses, indexed.num_vars)
        assert len(watched.unit_literals) == 1
        watched_ids = {ci for ids in watched.watches.values() for ci in ids}
        assert watched_ids == {indexed.clauses.index((-1, 2))}

    def test_empty_clause_sets_flag(self):
        watched = WatchedIndex([()], num_vars=0)
        assert watched.has_empty

    def test_watch_lists_survive_repeated_conflicting_runs(self):
        """Watch moves are never undone; re-running must stay correct."""
        names = VAR_NAMES[:6]
        rng = random.Random(2021)
        clause_list = []
        for _ in range(12):
            size = rng.randint(1, 3)
            chosen = rng.sample(names, size)
            clause_list.append(
                Clause(Lit(v, rng.random() < 0.5) for v in chosen)
            )
        cnf = CNF(clause_list, variables=names)
        _, occurrence, watched = _engines(cnf)
        for _ in range(50):
            seed = [
                (rng.randrange(len(names)), rng.random() < 0.5)
                for _ in range(rng.randint(0, 4))
            ]
            reference = unit_propagate(occurrence, seed)
            candidate = watched_propagate_from_seed(watched, seed)
            assert candidate.conflict == reference.conflict
            if not reference.conflict:
                assert candidate.assignment == reference.assignment

    def test_propagate_watched_appends_implications_to_trail(self):
        cnf = CNF(
            [
                Clause.implication(["a"], ["b"]),
                Clause.implication(["b"], ["c"]),
            ],
            variables=["a", "b", "c"],
        )
        indexed = cnf.to_indexed()
        watched = WatchedIndex(indexed.clauses, indexed.num_vars)
        values = [None] * indexed.num_vars
        a = indexed.index["a"]
        values[a] = True
        trail = [a + 1]
        ok, qhead = propagate_watched(watched, values, trail, 0)
        assert ok
        assert qhead == len(trail) == 3
        assert values == [True, True, True]
