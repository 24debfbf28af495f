"""The black-box predicate: decompile, compile-check, compare messages.

``DecompilerOracle`` packages the paper's evaluation loop for one
(application, decompiler) pair:

1. decompile the (sub-)application,
2. run the mini-javac over the output,
3. the predicate holds iff the error-message set equals the original's
   ("the goal of the evaluation is to reduce the input program while
   preserving the full error message of the compiler").

Probes are incremental: :meth:`DecompilerOracle.item_predicate`
decompiles through a per-oracle
:class:`~repro.decompiler.decompile.DecompileMemo` and compile-checks
through a per-oracle :func:`~repro.decompiler.javac.check_sources`
memo, so a reduced class that recurs across probes (the
materialization memo hands back the same object) is decompiled once
per run, not once per probe, and rechecked only when a signature it
resolves against changed.  The full application's decompile (the
constructor, :meth:`errors_of`) and the class-granularity predicate
stay unmemoized: a corpus keeps its instances' oracles alive, so what
they memoized would never be freed.  The simulated cost of a probe
does not change.

Because every bug site's presence is monotone in the kept items (see
:mod:`repro.decompiler.bugs`) and messages of *valid* sub-inputs are
always a subset of the original's, the predicate is monotone on valid
sub-inputs, matching Definition 4.1.

:func:`build_reduction_problem` assembles the full Input Reduction
Problem instance — items, constraint CNF (with the entry point required
by unit clauses, like the paper's hand-added ``[M.main()!code]``), and
the instrumented predicate.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set, Tuple

from repro.bytecode.classfile import Application
from repro.bytecode.constraints import generate_constraints
from repro.bytecode.items import (
    ClassItem,
    CodeItem,
    Item,
    MethodItem,
    items_of,
)
from repro.bytecode.reducer import MaterializationMemo
from repro.decompiler.decompile import (
    DecompileMemo,
    Decompiler,
    get_decompiler,
)
from repro.decompiler.javac import CheckMemo, check_sources
from repro.logic.cnf import CNF, Clause
from repro.reduction.problem import ReductionProblem

__all__ = ["DecompilerOracle", "build_reduction_problem", "entry_items"]


def entry_items(app: Application) -> Tuple[Item, ...]:
    """The items the tool always needs: the entry point and its body."""
    return (
        ClassItem(app.entry_class),
        MethodItem(app.entry_class, app.entry_method, app.entry_descriptor),
        CodeItem(app.entry_class, app.entry_method, app.entry_descriptor),
    )


class DecompilerOracle:
    """Decompile + compile-check for one (application, decompiler) pair.

    ``original_errors``, when given, is the error set of the full
    application as another oracle of the same pair already computed it;
    the constructor then skips its own full-application decompile.
    """

    def __init__(
        self,
        app: Application,
        decompiler,
        original_errors: Optional[FrozenSet[str]] = None,
    ) -> None:
        if isinstance(decompiler, str):
            decompiler = get_decompiler(decompiler)
        self.app = app
        self.decompiler: Decompiler = decompiler
        # Probe fast path: per-class materialization memo shared by
        # every probe of this oracle (reducer.memo_* telemetry).  Kept
        # per-oracle, not module-global, so each reduction run (which
        # builds a fresh oracle) starts cold and its memo telemetry is
        # deterministic regardless of what ran before.
        self._materializer = MaterializationMemo(app)
        # Filled only by item_predicate (see the module docstring).
        self._decompile_memo = DecompileMemo()
        self._check_memo: CheckMemo = {}
        if original_errors is None:
            original_errors = self.errors_of(app)
        self.original_errors = original_errors

    def errors_of(self, app: Application) -> FrozenSet[str]:
        """The compiler error messages the decompiled output produces."""
        sources = self.decompiler.decompile(app)
        return check_sources(sources)

    @property
    def is_buggy(self) -> bool:
        """Does this decompiler mistranslate this application at all?"""
        return bool(self.original_errors)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def probe_errors(self, kept_items: FrozenSet[Item]) -> FrozenSet[str]:
        """:meth:`errors_of` the reduced application, incrementally.

        Equal to ``errors_of(reduce_application(app, kept_items))``; the
        reduction, the decompile and the compile check reuse this
        oracle's memos.
        """
        reduced = self._materializer.reduce(kept_items)
        sources = self.decompiler.decompile(reduced, self._decompile_memo)
        return check_sources(sources, self._check_memo)

    def item_predicate(self, kept_items: FrozenSet[Item]) -> bool:
        """P over item sets: reduce, decompile, compare messages."""
        return self.probe_errors(kept_items) == self.original_errors

    def class_predicate(self, kept_classes: FrozenSet[str]) -> bool:
        """P over *class* sets (J-Reduce granularity): whole classes."""
        reduced = self.app.replace_classes(
            tuple(c for c in self.app.classes if c.name in kept_classes)
        )
        return self.errors_of(reduced) == self.original_errors


def build_reduction_problem(
    app: Application,
    decompiler,
    require_entry: bool = True,
    original_errors: Optional[FrozenSet[str]] = None,
    constraint: Optional[CNF] = None,
) -> ReductionProblem:
    """The Input Reduction Problem for one (application, decompiler) pair.

    The returned problem's constraint includes unit clauses for the entry
    point when ``require_entry`` is set — the analogue of the paper's
    hand-added ``[M.main()!code]`` requirement.

    The predicate runs on a fresh :class:`DecompilerOracle`, built from
    ``original_errors`` when the caller has the pair's error set
    already.  ``constraint``, when given, is that constraint compiled
    earlier (entry clauses included; see :mod:`repro.harness.problems`)
    and is used instead of generating one.

    Raises ValueError when the decompiler is not buggy on this input
    (nothing to reduce; the paper's benchmarks keep only buggy pairs).
    """
    oracle = DecompilerOracle(app, decompiler, original_errors)
    if not oracle.is_buggy:
        raise ValueError(
            f"decompiler {oracle.decompiler.name!r} translates this "
            "application cleanly; no failure to preserve"
        )
    if constraint is None:
        constraint = generate_constraints(app)
        if require_entry:
            for item in entry_items(app):
                constraint.add_clause(Clause.unit(item))
    return ReductionProblem(
        variables=items_of(app),
        predicate=oracle.item_predicate,
        constraint=constraint,
        description=(
            f"{oracle.decompiler.name} on {app.entry_class} "
            f"({len(oracle.original_errors)} errors)"
        ),
    )
