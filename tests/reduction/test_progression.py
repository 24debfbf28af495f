"""Tests for the PROGRESSION subroutine and its invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import CNF, Clause
from repro.reduction import build_progression
from repro.reduction.problem import ReductionError
from repro.reduction.progression import Progression, ProgressionEngine
from tests.reference_engines import build_progression_reference
from tests.strategies import implication_cnfs


def edge(a, b):
    return Clause.implication([a], [b])


class TestProgressionClass:
    def test_prefix_unions(self):
        prog = Progression([frozenset({"a"}), frozenset({"b", "c"})])
        assert prog.first == {"a"}
        assert prog.prefix_union(0) == {"a"}
        assert prog.prefix_union(1) == {"a", "b", "c"}
        assert prog.union == {"a", "b", "c"}

    def test_non_empty_required(self):
        with pytest.raises(ValueError):
            Progression([])


class TestBuildProgression:
    def test_unconstrained_universe_gives_singletons(self):
        cnf = CNF(variables=["a", "b", "c"])
        prog = build_progression(
            cnf, ["a", "b", "c"], [], frozenset({"a", "b", "c"})
        )
        assert prog.first == frozenset()
        assert list(prog)[1:] == [
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"c"}),
        ]

    def test_prefixes_are_valid(self):
        cnf = CNF(
            [edge("a", "b"), edge("c", "a"), Clause.unit("b")],
            variables=["a", "b", "c"],
        )
        prog = build_progression(
            cnf, ["a", "b", "c"], [], frozenset({"a", "b", "c"})
        )
        for r in range(len(prog)):
            assert cnf.satisfied_by(prog.prefix_union(r))

    def test_entries_are_disjoint_and_cover_scope(self):
        cnf = CNF([edge("a", "b"), edge("b", "c")], variables="abcd")
        scope = frozenset("abcd")
        prog = build_progression(cnf, list("abcd"), [], scope)
        union = set()
        for entry in prog:
            assert not (union & entry)
            union |= entry
        assert union == scope

    def test_learned_sets_hit_first_entry(self):
        cnf = CNF(variables=["a", "b", "c"])
        learned = [frozenset({"b", "c"})]
        prog = build_progression(
            cnf, ["a", "b", "c"], learned, frozenset({"a", "b", "c"})
        )
        # D0 must contain the <-smallest variable of the learned set.
        assert "b" in prog.first

    def test_all_prefixes_hit_learned_sets(self):
        cnf = CNF([edge("a", "b")], variables=["a", "b", "c"])
        learned = [frozenset({"c"})]
        prog = build_progression(
            cnf, ["a", "b", "c"], learned, frozenset({"a", "b", "c"})
        )
        for r in range(len(prog)):
            assert prog.prefix_union(r) & {"c"}

    def test_invalid_scope_is_reported(self):
        # b depends on d which is outside the scope, so the scope itself
        # violates R(J) — a precondition of PROGRESSION.  We surface the
        # violation instead of looping or silently dropping b.
        cnf = CNF([edge("b", "d")], variables=["a", "b", "d"])
        with pytest.raises(ReductionError):
            build_progression(cnf, ["a", "b", "d"], [], frozenset({"a", "b"}))

    def test_unsat_scope_raises(self):
        cnf = CNF([Clause.unit("a")], variables=["a", "b"])
        with pytest.raises(ReductionError):
            build_progression(cnf, ["a", "b"], [], frozenset({"b"}))

    def test_partial_order_leftovers_keep_prefixes_valid(self):
        # `c` is missing from the order but its dependency `d` must
        # still be pulled in: appending leftovers raw would put `c`
        # in a prefix union without `d`, violating INV-PRO.
        cnf = CNF([edge("c", "d")], variables=["a", "c", "d"])
        scope = frozenset({"a", "c", "d"})
        prog = build_progression(cnf, ["a"], [], scope)
        union = set()
        for r, entry in enumerate(prog):
            assert not (union & entry), "entries must stay disjoint"
            union |= entry
            assert cnf.satisfied_by(prog.prefix_union(r)), "INV-PRO"
        assert union == scope

    def test_partial_order_leftovers_are_deterministic(self):
        cnf = CNF(variables=["a", "x", "y", "z"])
        scope = frozenset({"a", "x", "y", "z"})
        first = build_progression(cnf, ["a"], [], scope)
        second = build_progression(cnf, ["a"], [], scope)
        assert list(first) == list(second)

    def test_partial_order_unsatisfiable_leftover_raises(self):
        # `c` requires `d`, but `d` is outside the scope entirely — the
        # leftover path must surface the violation, not emit an invalid
        # progression.
        cnf = CNF([edge("c", "d")], variables=["a", "c", "d"])
        with pytest.raises(ReductionError):
            build_progression(cnf, ["a"], [], frozenset({"a", "c"}))

    def test_require_true_lands_in_first_entry(self):
        cnf = CNF([edge("m", "i")], variables=["m", "i", "x"])
        prog = build_progression(
            cnf,
            ["i", "m", "x"],
            [],
            frozenset({"m", "i", "x"}),
            require_true=frozenset({"m"}),
        )
        assert {"m", "i"} <= prog.first


class TestEngineMatchesReference:
    """The incremental engine must replay the materializing reference
    bit-for-bit, including across learn/shrink sequences like GBR's."""

    @settings(max_examples=60, deadline=None)
    @given(implication_cnfs(), st.data())
    def test_single_build_matches_reference(self, cnf, data):
        universe = sorted(cnf.variables, key=repr)
        scope = frozenset(
            data.draw(st.sets(st.sampled_from(universe or ["v0"])))
        ) & cnf.variables

        def run(builder):
            try:
                return list(builder(cnf, universe, [], scope))
            except ReductionError as error:
                return ("error", str(error))

        assert run(build_progression) == run(build_progression_reference)

    @settings(max_examples=40, deadline=None)
    @given(implication_cnfs(), st.data())
    def test_gbr_like_learn_shrink_sequence(self, cnf, data):
        """Drive both implementations through the same learned/scope
        trajectory and compare every rebuilt progression."""
        universe = sorted(cnf.variables, key=repr)
        scope = frozenset(cnf.variables)
        if not cnf.satisfied_by(scope):
            return
        engine = ProgressionEngine(cnf, universe)
        learned = []
        for _ in range(3):
            from_engine = engine.build(scope)
            reference = build_progression_reference(
                cnf, universe, learned, scope
            )
            assert list(from_engine) == list(reference)
            if len(from_engine) < 2:
                break
            # Learn a random non-first entry and shrink to its prefix,
            # exactly as GBR does.
            r = data.draw(
                st.integers(min_value=1, max_value=len(from_engine) - 1)
            )
            learned.append(from_engine[r])
            engine.learn(from_engine[r])
            scope = from_engine.prefix_union(r)

    def test_learned_set_outside_scope_raises(self):
        cnf = CNF(variables=["a", "b", "c"])
        engine = ProgressionEngine(cnf, ["a", "b", "c"])
        engine.learn(frozenset({"c"}))
        with pytest.raises(ReductionError):
            engine.build(frozenset({"a", "b"}))

    def test_duplicate_learned_sets_are_tolerated(self):
        cnf = CNF(variables=["a", "b"])
        engine = ProgressionEngine(cnf, ["a", "b"])
        engine.learn(frozenset({"b"}))
        engine.learn(frozenset({"b"}))
        prog = engine.build(frozenset({"a", "b"}))
        assert prog.first == frozenset({"b"})


class TestProgressionProperties:
    @settings(max_examples=50, deadline=None)
    @given(implication_cnfs())
    def test_invariants_on_random_implication_cnfs(self, cnf):
        order = sorted(cnf.variables, key=repr)
        scope = frozenset(cnf.variables)
        if not cnf.satisfied_by(scope):
            return  # R(I) must hold per Definition 4.1
        prog = build_progression(cnf, order, [], scope)
        union = set()
        for r, entry in enumerate(prog):
            assert not (union & entry), "entries must be disjoint"
            union |= entry
            assert cnf.satisfied_by(prog.prefix_union(r)), "INV-PRO"
        assert union == scope, "the union must be the scope"


class TestPrefixUnionMaterializationCost:
    """Regression guard for the lazy prefix-union fast path.

    The eager implementation materialized every prefix union up front —
    O(n²) element copies for n entries — and the old per-call one
    rebuilt from entry 0 every time.  ``progression.union_elements``
    counts elements copied into materialized unions, so the probe
    patterns GBR actually issues must stay far below the quadratic
    baseline.
    """

    @staticmethod
    def _counter(metrics):
        return metrics.counter_values().get("progression.union_elements", 0)

    def test_repeated_full_union_is_materialized_once(self):
        from repro.observability import scoped_metrics

        n = 2000
        prog = Progression([frozenset({i}) for i in range(n)])
        with scoped_metrics() as metrics:
            results = [prog.prefix_union(n - 1) for _ in range(50)]
        # Eager/per-call baseline: 50 probes x 2000 elements = 100k.
        assert self._counter(metrics) == n
        first = results[0]
        assert all(r is first for r in results), "cache must share objects"

    def test_binary_search_probe_pattern_is_subquadratic(self):
        from repro.observability import scoped_metrics

        n = 2048
        prog = Progression([frozenset({i}) for i in range(n)])
        probes = []
        low, high = 0, n - 1
        while high - low > 1:
            mid = (low + high) // 2
            probes.append(mid)
            high = mid  # always descend: the worst case for reuse
        with scoped_metrics() as metrics:
            for _ in range(10):  # GBR re-probes across iterations
                for r in probes:
                    prog.prefix_union(r)
        copied = self._counter(metrics)
        distinct_cost = sum(r + 1 for r in set(probes))
        assert copied == distinct_cost
        # The old per-call rebuild would pay this every repetition.
        assert copied < 10 * distinct_cost

    def test_incremental_extension_reuses_nearest_prefix(self):
        from repro.observability import scoped_metrics

        n = 1000
        prog = Progression([frozenset({i}) for i in range(n)])
        prog.prefix_union(n // 2)
        with scoped_metrics() as metrics:
            prog.prefix_union(n // 2 + 1)
        # Extending by one entry still copies the base prefix (building
        # a fresh frozenset), but never rescans from entry zero twice.
        assert self._counter(metrics) == n // 2 + 2

    def test_negative_and_out_of_range_indices(self):
        prog = Progression([frozenset({"a"}), frozenset({"b"})])
        assert prog.prefix_union(-1) == {"a", "b"}
        assert prog.prefix_union(-2) == {"a"}
        with pytest.raises(IndexError):
            prog.prefix_union(2)
        with pytest.raises(IndexError):
            prog.prefix_union(-3)
