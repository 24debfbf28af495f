"""Checks every reduction output from outside the program.

The harness reports sizes but not the solution it reached, so
:class:`SolutionCapture` wraps the one call through which
``run_instance`` materializes an ``our-reducer`` solution
(``repro.harness.experiments.reduce_application``) and keeps the
argument.  :func:`certify` then checks it with no help from the
reducer's caches: the reduced application must validate, the solution
must satisfy the instance's constraint CNF (entry point included), and
a freshly built oracle must report the original error set on it.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro.bytecode.classfile import Application
from repro.bytecode.constraints import generate_constraints
from repro.bytecode.items import items_of
from repro.bytecode.metrics import application_size_bytes
from repro.bytecode.reducer import reduce_application
from repro.bytecode.validator import validate_application
from repro.decompiler.oracle import DecompilerOracle, entry_items
from repro.harness import experiments
from repro.logic.cnf import Clause

from perfbench.layers import MARK

Solution = FrozenSet


class SolutionCapture:
    """Keeps the solution of each harness ``reduce_application`` call.

    A context manager; the harness attribute is restored on exit.
    """

    def __init__(self) -> None:
        self.captured: List[Tuple[Application, Solution]] = []
        self._original = None

    def __enter__(self) -> "SolutionCapture":
        original = self._original = experiments.reduce_application
        captured = self.captured

        def capture(app, true_items):
            captured.append((app, frozenset(true_items)))
            return original(app, true_items)

        setattr(capture, MARK, ("certify", "reduce_application"))
        experiments.reduce_application = capture
        return self

    def __exit__(self, *exc_info: object) -> None:
        experiments.reduce_application = self._original

    def take_one(self) -> Optional[Tuple[Application, Solution]]:
        """The single solution captured since the last take, else None."""
        captured, self.captured[:] = list(self.captured), []
        return captured[0] if len(captured) == 1 else None


def certify(
    app: Application,
    decompiler: str,
    solution: Solution,
    final_bytes: Optional[int] = None,
) -> List[str]:
    """Why ``solution`` is not a correct reduction; empty when it is.

    ``final_bytes``, when given, is the size the program reported for
    the output and must equal the certified output's size.
    """
    problems: List[str] = []
    stray = solution - frozenset(items_of(app))
    if stray:
        problems.append(f"{len(stray)} items not in the application")
    reduced = reduce_application(app, solution)
    invalid = validate_application(reduced, raise_on_error=False)
    if invalid:
        problems.append(f"invalid bytecode: {invalid[0]}")
    cnf = generate_constraints(app)
    for item in entry_items(app):
        cnf.add_clause(Clause.unit(item))
    if not cnf.satisfied_by(solution):
        problems.append("solution violates the constraint CNF")
    oracle = DecompilerOracle(app, decompiler)
    if not oracle.original_errors:
        problems.append("the original application shows no failure")
    elif oracle.errors_of(reduced) != oracle.original_errors:
        problems.append("the failure does not reproduce on the output")
    if final_bytes is not None and application_size_bytes(reduced) != final_bytes:
        problems.append(
            f"reported {final_bytes} bytes, output has "
            f"{application_size_bytes(reduced)}"
        )
    return problems
