"""The bytecode soundness property (the Theorem 3.1 analogue).

For any generated application and any satisfying assignment of its
dependency constraints, the reduced application is structurally valid.
This ties together the constraint generator, the MSA machinery, the
reducer, and the validator — the load-bearing invariant of the whole
reproduction.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode.constraints import generate_constraints
from repro.bytecode.items import items_of
from repro.bytecode.reducer import reduce_application
from repro.bytecode.validator import validate_application
from repro.decompiler.oracle import entry_items
from repro.logic.msa import MsaSolver
from repro.workloads import generate_application
from repro.workloads.generator import WorkloadConfig

CONFIG = WorkloadConfig(num_classes=10, num_interfaces=3)


class TestSoundness:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=3000),
        st.data(),
    )
    def test_every_model_reduces_to_a_valid_application(self, seed, data):
        app = generate_application(seed, CONFIG)
        cnf = generate_constraints(app)
        items = items_of(app)
        required = frozenset(entry_items(app))
        wanted = data.draw(
            st.sets(st.sampled_from(items), max_size=10)
        )
        solver = MsaSolver(cnf, items)
        model = solver.compute(require_true=wanted | required)
        if model is None:
            return
        assert cnf.satisfied_by(model)
        reduced = reduce_application(app, model)
        problems = validate_application(reduced, raise_on_error=False)
        assert problems == [], (
            f"seed {seed}: model of the constraints reduced to an "
            f"invalid application: {problems[:3]}"
        )
        # The stronger, end-to-end form: a defect-free decompiler's
        # output on any valid sub-application compiles cleanly.
        from dataclasses import replace as _replace

        from repro.decompiler import check_sources, get_decompiler
        from repro.decompiler.decompile import DecompileMemo

        clean = _replace(get_decompiler("alpha"), bug_ids=())
        errors = check_sources(clean.decompile(reduced, DecompileMemo()), {})
        assert errors == frozenset(), (
            f"seed {seed}: valid sub-application decompiled to "
            f"non-compiling source: {sorted(errors)[:3]}"
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=3000))
    def test_full_item_set_is_a_model(self, seed):
        app = generate_application(seed, CONFIG)
        cnf = generate_constraints(app)
        assert cnf.satisfied_by(frozenset(items_of(app)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=3000))
    def test_minimal_entry_model_is_small_and_valid(self, seed):
        """The MSA of just the entry point is a valid, much smaller app."""
        app = generate_application(seed, CONFIG)
        cnf = generate_constraints(app)
        items = items_of(app)
        solver = MsaSolver(cnf, items)
        model = solver.compute(require_true=frozenset(entry_items(app)))
        assert model is not None
        reduced = reduce_application(app, model)
        assert validate_application(reduced, raise_on_error=False) == []
        assert len(model) < len(items)
