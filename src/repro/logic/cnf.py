"""CNF representation over arbitrary hashable variable names.

This is the workhorse representation of the reducer: the constraint
generators (FJI and bytecode) emit a :class:`CNF`, and the reduction
algorithms condition and restrict it as described in Section 4 of the
paper:

- ``R | X = 1`` — conditioning, substituting true for the variables in X
  (:meth:`CNF.condition`),
- "with vars not in J set to 0" — restriction (:meth:`CNF.restrict`),
- graph-constraint detection — a clause is a *graph constraint* when it
  has exactly one positive and one negative literal, i.e. it is an
  implication edge ``a => b`` (:meth:`Clause.is_graph_constraint`).
"""

from __future__ import annotations

from itertools import repeat
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.logic.formula import Formula

__all__ = ["Lit", "Clause", "CNF", "pos", "neg", "IndexedCNF"]

VarName = Hashable


class Lit(NamedTuple):
    """A literal: a variable name plus a polarity."""

    var: VarName
    positive: bool

    def __repr__(self) -> str:
        sign = "" if self.positive else "~"
        return f"{sign}{self.var}"


def pos(var: VarName) -> Lit:
    """The positive literal on ``var``."""
    return Lit(var, True)


def neg(var: VarName) -> Lit:
    """The negative literal on ``var``."""
    return Lit(var, False)


class Clause:
    """A disjunction of literals (immutable).

    The variables occurring positively (:attr:`positives`) and
    negatively (:attr:`negatives`) are each collected on first read and
    kept: the MSA cascade reads a clause's positives every time the
    clause is violated.
    """

    __slots__ = ("literals", "_positives", "_negatives")

    def __init__(self, literals: Iterable[Lit]):
        lits = []
        for lit in literals:
            if not isinstance(lit, Lit):
                raise TypeError(f"expected Lit, got {lit!r}")
            lits.append(lit)
        self.literals: FrozenSet[Lit] = frozenset(lits)
        self._positives: Optional[FrozenSet[VarName]] = None
        self._negatives: Optional[FrozenSet[VarName]] = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def implication(
        cls, antecedents: Iterable[VarName], consequents: Iterable[VarName]
    ) -> "Clause":
        """The clause for ``(/\\ antecedents) => (\\/ consequents)``."""
        lits = [neg(a) for a in antecedents]
        lits.extend(pos(c) for c in consequents)
        # Built from Lits right here, so __init__'s type check is moot.
        clause = cls.__new__(cls)
        clause.literals = frozenset(lits)
        clause._positives = clause._negatives = None
        return clause

    @classmethod
    def unit(cls, var: VarName, positive: bool = True) -> "Clause":
        """A unit clause requiring (or forbidding) ``var``."""
        return cls([Lit(var, positive)])

    # -- structure -----------------------------------------------------------

    @property
    def positives(self) -> FrozenSet[VarName]:
        if self._positives is None:
            self._positives = frozenset(
                lit.var for lit in self.literals if lit.positive
            )
        return self._positives

    @property
    def negatives(self) -> FrozenSet[VarName]:
        if self._negatives is None:
            self._negatives = frozenset(
                lit.var for lit in self.literals if not lit.positive
            )
        return self._negatives

    def variables(self) -> FrozenSet[VarName]:
        return frozenset(lit.var for lit in self.literals)

    def is_graph_constraint(self) -> bool:
        """True when the clause is an implication edge ``a => b``.

        The paper: "A clause can be represented as an edge in a graph if
        there [is] exactly one positive and [one] negative literal in the
        clause."
        """
        if len(self.literals) != 2:
            return False
        first, second = self.literals
        return first.positive != second.positive

    def is_unit(self) -> bool:
        return len(self.literals) == 1

    def is_tautology(self) -> bool:
        # The literals are distinct, so a variable occurs twice exactly
        # when it occurs with both polarities.
        return len({lit.var for lit in self.literals}) < len(self.literals)

    def is_empty(self) -> bool:
        return not self.literals

    # -- semantics -----------------------------------------------------------

    def satisfied_by(self, true_vars: AbstractSet[VarName]) -> bool:
        """Evaluate under the assignment whose true set is ``true_vars``."""
        for lit in self.literals:
            if lit.positive == (lit.var in true_vars):
                return True
        return False

    def condition(
        self,
        true_vars: AbstractSet[VarName] = frozenset(),
        false_vars: AbstractSet[VarName] = frozenset(),
    ) -> Optional["Clause"]:
        """Substitute constants; return None when the clause is satisfied.

        Returns the residual clause otherwise (possibly empty, meaning the
        clause — and hence the CNF — became unsatisfiable).
        """
        residual = []
        for lit in self.literals:
            if lit.var in true_vars:
                if lit.positive:
                    return None
                continue
            if lit.var in false_vars:
                if not lit.positive:
                    return None
                continue
            residual.append(lit)
        if len(residual) == len(self.literals):
            return self
        return Clause(residual)

    # -- dunder ----------------------------------------------------------------

    def __iter__(self) -> Iterator[Lit]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __eq__(self, other) -> bool:
        return isinstance(other, Clause) and self.literals == other.literals

    def __hash__(self) -> int:
        return hash(self.literals)

    def __repr__(self) -> str:
        if not self.literals:
            return "Clause(<empty>)"
        inner = " | ".join(repr(lit) for lit in sorted(
            self.literals, key=lambda l: (repr(l.var), not l.positive)))
        return f"Clause({inner})"


class CNF:
    """A conjunction of clauses over named variables.

    The variable universe can be wider than the variables mentioned in the
    clauses (pass ``variables=`` to the constructor); this matters for the
    reducer, where unconstrained items are still removable items.
    """

    def __init__(
        self,
        clauses: Iterable[Clause] = (),
        variables: Iterable[VarName] = (),
    ):
        self.clauses: List[Clause] = []
        self._clause_set: set = set()
        self._variables: set = set(variables)
        self._indexed_cache: Optional["IndexedCNF"] = None
        for clause in clauses:
            self.add_clause(clause)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_formula(cls, formula: Formula) -> "CNF":
        """Build a CNF from a formula AST via NNF + distribution."""
        cnf = cls(variables=formula.variables())
        for raw in formula.to_clauses():
            cnf.add_clause(Clause(Lit(v, p) for (v, p) in raw))
        return cnf

    def add_clause(self, clause: Clause) -> bool:
        """Add a clause (tautologies and duplicates are dropped).

        Returns True when the clause actually entered the database —
        incremental callers (solver sessions, MSA occurrence indexes)
        use this to know whether their derived structures need the
        clause too.
        """
        variables = clause.variables()
        if len(variables) < len(clause):
            # A tautology (see Clause.is_tautology).  Even a dropped
            # tautology can widen the universe, which changes the
            # default compilation order.
            self._indexed_cache = None
            self._variables.update(variables)
            return False
        if clause in self._clause_set:
            return False
        self._indexed_cache = None
        self.clauses.append(clause)
        self._clause_set.add(clause)
        self._variables.update(variables)
        return True

    def add_formula(self, formula: Formula) -> None:
        """Add all clauses of a formula (via NNF and distribution)."""
        self._indexed_cache = None
        self._variables.update(formula.variables())
        for raw in formula.to_clauses():
            self.add_clause(Clause(Lit(v, p) for (v, p) in raw))

    def copy(self) -> "CNF":
        """An independent CNF with the same clauses and universe.

        The clauses themselves are shared (they are immutable); nothing
        is re-checked.
        """
        out = CNF()
        out.clauses = list(self.clauses)
        out._clause_set = set(self._clause_set)
        out._variables = set(self._variables)
        out._indexed_cache = self._indexed_cache
        return out

    def numbered(
        self, names: Sequence[VarName]
    ) -> Tuple[List[List[int]], List[int]]:
        """The clauses and the universe as integers over ``names``.

        Clauses keep their order; a literal on ``names[i]`` is ``i + 1``
        when positive and ``-(i + 1)`` when negative (DIMACS
        numbering).  The universe is the sorted list of the indexes
        ``i`` of its variables.  :meth:`from_numbered` is the inverse.
        Raises KeyError for a variable outside ``names``.
        """
        number = {name: i + 1 for i, name in enumerate(names)}
        clauses = [
            [number[lit.var] if lit.positive else -number[lit.var]
             for lit in clause.literals]
            for clause in self.clauses
        ]
        universe = sorted(number[var] - 1 for var in self._variables)
        return clauses, universe

    @classmethod
    def from_numbered(
        cls,
        names: Sequence[VarName],
        clauses: Iterable[Sequence[int]],
        universe: Iterable[int],
    ) -> "CNF":
        """A CNF from the output of :meth:`numbered`, in bulk.

        Trusted: the clauses enter in order without :meth:`add_clause`'s
        checks, so the caller guarantees what :meth:`numbered`
        guarantees — every number within ``names``, no clause twice, no
        tautology, and every clause variable in the universe.
        """
        # table[k] is the positive literal on names[k - 1]; table[-k],
        # counted from the end, is the negative one.  tuple.__new__
        # builds each Lit without a Python-level call.
        table: List[Optional[Lit]] = [None]
        table.extend(map(tuple.__new__, repeat(Lit), zip(names, repeat(True))))
        table.extend(
            map(tuple.__new__, repeat(Lit), zip(reversed(names), repeat(False)))
        )
        out = cls()
        for numbers in clauses:
            clause = Clause.__new__(Clause)
            clause.literals = frozenset(map(table.__getitem__, numbers))
            clause._positives = clause._negatives = None
            out.clauses.append(clause)
        out._clause_set = set(out.clauses)
        out._variables = {names[i] for i in universe}
        return out

    def conjoin(self, other: "CNF") -> "CNF":
        """A new CNF that is the conjunction of self and other."""
        out = CNF(variables=self._variables | other._variables)
        for clause in self.clauses:
            out.add_clause(clause)
        for clause in other.clauses:
            out.add_clause(clause)
        return out

    # -- structure ---------------------------------------------------------------

    @property
    def variables(self) -> FrozenSet[VarName]:
        return frozenset(self._variables)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def graph_clause_fraction(self) -> float:
        """Fraction of clauses that are graph constraints (paper: 97.5%)."""
        if not self.clauses:
            return 1.0
        edges = sum(1 for c in self.clauses if c.is_graph_constraint())
        return edges / len(self.clauses)

    def non_graph_clauses(self) -> List[Clause]:
        return [c for c in self.clauses if not c.is_graph_constraint()]

    # -- semantics -----------------------------------------------------------------

    def satisfied_by(self, true_vars: AbstractSet[VarName]) -> bool:
        """Evaluate under the assignment whose true set is ``true_vars``."""
        return all(clause.satisfied_by(true_vars) for clause in self.clauses)

    def condition(
        self,
        true_vars: AbstractSet[VarName] = frozenset(),
        false_vars: AbstractSet[VarName] = frozenset(),
    ) -> "CNF":
        """The paper's ``R | X = 1, Y = 0`` conditioning operator.

        The conditioned variables leave the universe.  An empty residual
        clause is kept, recording unsatisfiability.
        """
        true_vars = frozenset(true_vars)
        false_vars = frozenset(false_vars)
        overlap = true_vars & false_vars
        if overlap:
            raise ValueError(f"variables conditioned both ways: {overlap!r}")
        out = CNF(variables=self._variables - true_vars - false_vars)
        for clause in self.clauses:
            residual = clause.condition(true_vars, false_vars)
            if residual is not None:
                out.add_clause(residual)
        return out

    def restrict(self, keep: AbstractSet[VarName]) -> "CNF":
        """Set every variable outside ``keep`` to false.

        This is the paper's "with vars not in J set to 0" step in the
        PROGRESSION subroutine.
        """
        drop = self._variables - set(keep)
        return self.condition(false_vars=drop)

    def is_unsat_trivially(self) -> bool:
        """True when the CNF contains the empty clause."""
        return any(clause.is_empty() for clause in self.clauses)

    def to_indexed(
        self, order: Optional[Sequence[VarName]] = None
    ) -> "IndexedCNF":
        """Compile to the integer-indexed form used by the solver stack.

        ``order`` fixes variable indices (index 0 = smallest); by default
        variables are sorted by repr for determinism.

        The default-order compilation is memoized on the instance
        (invalidated by :meth:`add_clause`), so the solver stack's many
        ``to_indexed()`` calls on one CNF pay for the repr-sort and
        clause encoding once.  Treat the returned object as immutable —
        it is shared between callers.
        """
        if order is None:
            if self._indexed_cache is not None:
                return self._indexed_cache
            ordered = sorted(self._variables, key=repr)
            indexed = IndexedCNF(self, ordered)
            self._indexed_cache = indexed
            return indexed
        ordered = list(order)
        missing = self._variables - set(ordered)
        if missing:
            raise ValueError(f"order is missing variables: {missing!r}")
        return IndexedCNF(self, ordered)

    def __repr__(self) -> str:
        return (
            f"CNF({len(self.clauses)} clauses, "
            f"{len(self._variables)} variables)"
        )


class IndexedCNF:
    """An integer-compiled view of a :class:`CNF`.

    Variables are numbered ``0..n-1`` following a supplied total order; a
    literal is encoded DIMACS-style as ``idx + 1`` (positive) or
    ``-(idx + 1)`` (negative).  The solver, MSA, and counter all run on
    this form.
    """

    def __init__(self, cnf: CNF, ordered_vars: Sequence[VarName]):
        self.names: List[VarName] = list(ordered_vars)
        self.index: Dict[VarName, int] = {
            name: i for i, name in enumerate(self.names)
        }
        if len(self.index) != len(self.names):
            raise ValueError("duplicate variables in order")
        self.clauses: List[Tuple[int, ...]] = []
        for clause in cnf.clauses:
            encoded = tuple(
                sorted(
                    (self.index[lit.var] + 1)
                    if lit.positive
                    else -(self.index[lit.var] + 1)
                    for lit in clause
                )
            )
            self.clauses.append(encoded)

    @property
    def num_vars(self) -> int:
        return len(self.names)

    def decode(self, true_indices: Iterable[int]) -> FrozenSet[VarName]:
        """Map a set of 0-based true variable indices back to names."""
        return frozenset(self.names[i] for i in true_indices)

    def encode_vars(self, names: Iterable[VarName]) -> FrozenSet[int]:
        """Map variable names to 0-based indices."""
        return frozenset(self.index[name] for name in names)
