"""The black-box predicate: decompile, compile-check, compare messages.

``DecompilerOracle`` packages the paper's evaluation loop for one
(application, decompiler) pair:

1. decompile the (sub-)application,
2. run the mini-javac over the output,
3. the predicate holds iff the error-message set equals the original's
   ("the goal of the evaluation is to reduce the input program while
   preserving the full error message of the compiler").

Every evaluation takes one path: materialize through the oracle's
:class:`~repro.bytecode.reducer.MaterializationMemo`, decompile through
a :class:`~repro.decompiler.decompile.DecompileMemo`, compile-check
through a :func:`~repro.decompiler.javac.check_sources` memo.  A probe
(:meth:`ProbeOracle.item_predicate`, and
:meth:`ProbeOracle.class_predicate`, the item probe over every item of
the kept classes) uses the oracle's own memos, so a reduced class that
recurs across probes (the materialization memo hands back the same
object) is decompiled once per run, not once per probe, and rechecked
only when a signature it resolves against changed.  The full
application's check (:meth:`DecompilerOracle.errors_of`) runs the same
code on fresh, throwaway memos.  A reduction run probes an oracle it
owns (:func:`repro.parallel.procpool.build_oracle`), so the memos live
exactly as long as the run; a corpus instance's long-lived oracle only
supplies the original error set.  The simulated cost of a probe does
not change.

Because every bug site's presence is monotone in the kept items (see
:mod:`repro.decompiler.bugs`) and messages of *valid* sub-inputs are
always a subset of the original's, the predicate is monotone on valid
sub-inputs, matching Definition 4.1.

:meth:`DecompilerOracle.build_problem` assembles the full Input
Reduction Problem instance — items, constraint CNF (with the entry point
required by unit clauses, like the paper's hand-added
``[M.main()!code]``), and the oracle's item predicate.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, List, Optional, Tuple

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

__all__ = [
    "DecompilerOracle",
    "ProbeOracle",
    "build_reduction_problem",
    "entry_items",
]


def entry_items(app: Application) -> Tuple[Item, ...]:
    """The items the tool always needs: the entry point and its body."""
    return (
        ClassItem(app.entry_class),
        MethodItem(app.entry_class, app.entry_method, app.entry_descriptor),
        CodeItem(app.entry_class, app.entry_method, app.entry_descriptor),
    )


class ProbeOracle:
    """What every oracle shares: one materialization memo per oracle,
    and a class probe that is the item probe keeping whole classes.

    Subclasses define ``item_predicate``.
    """

    def __init__(self, app: Application) -> None:
        self.app = app
        # Per-oracle, not module-global: each reduction run builds its
        # own oracle, so it starts cold and its memo telemetry is
        # deterministic regardless of what ran before.
        self._materializer = MaterializationMemo(app)

    def item_predicate(self, kept_items: FrozenSet[Item]) -> bool:
        raise NotImplementedError

    def class_items(self, kept_classes: AbstractSet[str]) -> FrozenSet[Item]:
        """Every item of the kept classes."""
        return self._materializer.class_items(kept_classes)

    def class_predicate(self, kept_classes: FrozenSet[str]) -> bool:
        """P over *class* sets (J-Reduce granularity): whole classes."""
        return self.item_predicate(self.class_items(kept_classes))

    @property
    def required_classes(self) -> List[str]:
        """What binary reduction over the class graph must keep."""
        return [self.app.entry_class]


class DecompilerOracle(ProbeOracle):
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
        super().__init__(app)
        if isinstance(decompiler, str):
            decompiler = get_decompiler(decompiler)
        self.decompiler: Decompiler = decompiler
        self._decompile_memo = DecompileMemo()
        self._check_memo: CheckMemo = {}
        if original_errors is None:
            original_errors = self.errors_of(app)
        self.original_errors = original_errors

    def errors_of(self, app: Application) -> FrozenSet[str]:
        """The compiler error messages the decompiled output produces.

        The probe path's decompile and check, on fresh memos: the answer
        does not depend on this oracle's probes, nor changes their memos.
        """
        return check_sources(
            self.decompiler.decompile(app, DecompileMemo()), {}
        )

    @property
    def is_buggy(self) -> bool:
        """Does this decompiler mistranslate this application at all?"""
        return bool(self.original_errors)

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

    def build_problem(
        self, constraint: Optional[CNF] = None, require_entry: bool = True
    ) -> ReductionProblem:
        """The Input Reduction Problem over this oracle's item predicate.

        The constraint includes unit clauses for the entry point when
        ``require_entry`` is set — the analogue of the paper's
        hand-added ``[M.main()!code]`` requirement.  ``constraint``,
        when given, is that constraint compiled earlier (entry clauses
        included; see :mod:`repro.harness.problems`) and is used
        instead of generating one.

        Raises ValueError when the decompiler is not buggy on this input
        (nothing to reduce; the paper's benchmarks keep only buggy
        pairs).
        """
        if not self.is_buggy:
            raise ValueError(
                f"decompiler {self.decompiler.name!r} translates this "
                "application cleanly; no failure to preserve"
            )
        if constraint is None:
            constraint = generate_constraints(self.app)
            if require_entry:
                for item in entry_items(self.app):
                    constraint.add_clause(Clause.unit(item))
        return ReductionProblem(
            variables=items_of(self.app),
            predicate=self.item_predicate,
            constraint=constraint,
            description=(
                f"{self.decompiler.name} on {self.app.entry_class} "
                f"({len(self.original_errors)} errors)"
            ),
        )


def build_reduction_problem(
    app: Application, decompiler, require_entry: bool = True
) -> ReductionProblem:
    """The Input Reduction Problem for one (application, decompiler)
    pair, on a new oracle (see :meth:`DecompilerOracle.build_problem`)."""
    return DecompilerOracle(app, decompiler).build_problem(
        require_entry=require_entry
    )
