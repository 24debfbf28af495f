r"""A small propositional-formula AST.

The paper's type rules (Figures 6 and 7) build constraints of the shape

    [C.m()!code] => [C.m()] /\ pi_1 /\ pi_2
    ([C <| I] /\ [I.m()]) => mAny(P, m, C)

i.e. implications between conjunctions and disjunctions of variables.  This
module provides an ergonomic AST for writing those constraints down, plus a
conversion to clause form (:meth:`Formula.to_clauses`) used by the rest of
the logic stack.

Variables are arbitrary hashable Python objects, so the FJI and bytecode
constraint generators can use their item objects directly as variable
names.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable, List, Tuple

__all__ = [
    "Formula",
    "Var",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "TRUE",
    "FALSE",
    "conj",
    "disj",
]

VarName = Hashable
ClauseTuple = FrozenSet[Tuple[VarName, bool]]


class Formula:
    """Base class for propositional formulas.

    Supports the operators ``&`` (and), ``|`` (or), ``~`` (not), ``>>``
    (implies).  Equality is structural.
    """

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Implies(self, other)

    # -- structure ---------------------------------------------------------

    def variables(self) -> FrozenSet[VarName]:
        """The set of variable names appearing in the formula."""
        out = set()
        self._collect_variables(out)
        return frozenset(out)

    def _collect_variables(self, out: set) -> None:
        raise NotImplementedError

    # -- evaluation --------------------------------------------------------

    def evaluate(self, true_vars: Iterable[VarName]) -> bool:
        """Evaluate under the assignment that sets exactly ``true_vars``.

        This is the paper's convention: a solution is written as the set
        of true variables; everything else is false.
        """
        return self._evaluate(frozenset(true_vars))

    def _evaluate(self, true_vars: FrozenSet[VarName]) -> bool:
        raise NotImplementedError

    # -- clause conversion -------------------------------------------------

    def to_clauses(self) -> List[ClauseTuple]:
        """Convert to CNF clauses by NNF + distribution.

        Each clause is a frozenset of ``(var, polarity)`` literals.  An
        empty list means the formula is valid (no constraints); a list
        containing the empty frozenset means the formula is unsatisfiable.

        Distribution can blow up exponentially on adversarial input, but
        the constraint shapes produced by the type rules are already
        near-CNF, so this is the right tool here (a Tseitin transform
        would introduce fresh variables, which would pollute the reducer's
        variable universe).
        """
        nnf = self._nnf(positive=True)
        clauses = nnf._distribute()
        return _simplify_clauses(clauses)

    def _nnf(self, positive: bool) -> "Formula":
        raise NotImplementedError

    def _distribute(self) -> List[ClauseTuple]:
        raise NotImplementedError


class _Const(Formula):
    """Boolean constant (use the TRUE / FALSE singletons)."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def _collect_variables(self, out: set) -> None:
        pass

    def _evaluate(self, true_vars: FrozenSet[VarName]) -> bool:
        return self.value

    def _nnf(self, positive: bool) -> Formula:
        return TRUE if (self.value == positive) else FALSE

    def _distribute(self) -> List[ClauseTuple]:
        if self.value:
            return []
        return [frozenset()]

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"

    def __eq__(self, other) -> bool:
        return isinstance(other, _Const) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("const", self.value))


TRUE = _Const(True)
FALSE = _Const(False)


class Var(Formula):
    """A propositional variable named by any hashable object."""

    __slots__ = ("name",)

    def __init__(self, name: VarName):
        self.name = name

    def _collect_variables(self, out: set) -> None:
        out.add(self.name)

    def _evaluate(self, true_vars: FrozenSet[VarName]) -> bool:
        return self.name in true_vars

    def _nnf(self, positive: bool) -> Formula:
        return self if positive else Not(self)

    def _distribute(self) -> List[ClauseTuple]:
        return [frozenset([(self.name, True)])]

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("var", self.name))


class Not(Formula):
    """Negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Formula):
        self.operand = operand

    def _collect_variables(self, out: set) -> None:
        self.operand._collect_variables(out)

    def _evaluate(self, true_vars: FrozenSet[VarName]) -> bool:
        return not self.operand._evaluate(true_vars)

    def _nnf(self, positive: bool) -> Formula:
        return self.operand._nnf(not positive)

    def _distribute(self) -> List[ClauseTuple]:
        # In NNF, Not only wraps Vars.
        if isinstance(self.operand, Var):
            return [frozenset([(self.operand.name, False)])]
        raise ValueError("Not outside NNF; call to_clauses() on the root")

    def __repr__(self) -> str:
        return f"Not({self.operand!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Not) and self.operand == other.operand

    def __hash__(self) -> int:
        return hash(("not", self.operand))


class _Nary(Formula):
    """Shared machinery for And / Or."""

    __slots__ = ("operands",)
    _symbol = "?"

    def __init__(self, operands: Iterable[Formula]):
        ops: List[Formula] = []
        for op in operands:
            if not isinstance(op, Formula):
                raise TypeError(f"expected Formula, got {op!r}")
            # Flatten nested nodes of the same connective.
            if type(op) is type(self):
                ops.extend(op.operands)  # type: ignore[attr-defined]
            else:
                ops.append(op)
        self.operands: Tuple[Formula, ...] = tuple(ops)

    def _collect_variables(self, out: set) -> None:
        for op in self.operands:
            op._collect_variables(out)

    def __repr__(self) -> str:
        inner = f" {self._symbol} ".join(repr(op) for op in self.operands)
        return f"({inner})"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.operands == other.operands

    def __hash__(self) -> int:
        return hash((self._symbol, self.operands))


class And(_Nary):
    """Conjunction of zero or more formulas (empty = TRUE)."""

    _symbol = "&"

    def _evaluate(self, true_vars: FrozenSet[VarName]) -> bool:
        return all(op._evaluate(true_vars) for op in self.operands)

    def _nnf(self, positive: bool) -> Formula:
        children = tuple(op._nnf(positive) for op in self.operands)
        return And(children) if positive else Or(children)

    def _distribute(self) -> List[ClauseTuple]:
        clauses: List[ClauseTuple] = []
        for op in self.operands:
            clauses.extend(op._distribute())
        return clauses


class Or(_Nary):
    """Disjunction of zero or more formulas (empty = FALSE)."""

    _symbol = "|"

    def _evaluate(self, true_vars: FrozenSet[VarName]) -> bool:
        return any(op._evaluate(true_vars) for op in self.operands)

    def _nnf(self, positive: bool) -> Formula:
        children = tuple(op._nnf(positive) for op in self.operands)
        return Or(children) if positive else And(children)

    def _distribute(self) -> List[ClauseTuple]:
        if not self.operands:
            return [frozenset()]
        result: List[ClauseTuple] = [frozenset()]
        for op in self.operands:
            op_clauses = op._distribute()
            result = [
                prefix | suffix for prefix in result for suffix in op_clauses
            ]
        return result


def Implies(antecedent: Formula, consequent: Formula) -> Formula:
    """``antecedent => consequent`` as a formula."""
    return Or((Not(antecedent), consequent))


def Iff(left: Formula, right: Formula) -> Formula:
    """``left <=> right`` as a formula."""
    return And((Implies(left, right), Implies(right, left)))


def conj(formulas: Iterable[Formula]) -> Formula:
    """Conjunction of an iterable of formulas (TRUE when empty)."""
    ops = tuple(formulas)
    if not ops:
        return TRUE
    if len(ops) == 1:
        return ops[0]
    return And(ops)


def disj(formulas: Iterable[Formula]) -> Formula:
    """Disjunction of an iterable of formulas (FALSE when empty)."""
    ops = tuple(formulas)
    if not ops:
        return FALSE
    if len(ops) == 1:
        return ops[0]
    return Or(ops)


def _simplify_clauses(clauses: List[ClauseTuple]) -> List[ClauseTuple]:
    """Drop tautological and duplicate clauses, preserving order."""
    seen = set()
    out: List[ClauseTuple] = []
    for clause in clauses:
        if _is_tautology(clause):
            continue
        if clause in seen:
            continue
        seen.add(clause)
        out.append(clause)
    return out


def _is_tautology(clause: ClauseTuple) -> bool:
    positives = {v for (v, polarity) in clause if polarity}
    negatives = {v for (v, polarity) in clause if not polarity}
    return bool(positives & negatives)
