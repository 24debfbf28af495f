"""Shared hypothesis strategies for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.logic.cnf import CNF, Clause, Lit
from repro.logic.formula import FALSE, TRUE, Implies, Not, Var, conj, disj

VAR_NAMES = [f"v{i}" for i in range(10)]


@st.composite
def literals(draw, names=None):
    name = draw(st.sampled_from(names or VAR_NAMES))
    positive = draw(st.booleans())
    return Lit(name, positive)


@st.composite
def clauses(draw, names=None, max_size=4):
    lits = draw(st.lists(literals(names), min_size=1, max_size=max_size))
    return Clause(lits)


@st.composite
def cnfs(draw, names=None, max_clauses=12):
    names = names or VAR_NAMES
    clause_list = draw(
        st.lists(clauses(names), min_size=0, max_size=max_clauses)
    )
    return CNF(clause_list, variables=names)


@st.composite
def satisfiable_cnfs(draw, names=None, max_clauses=12):
    """CNFs guaranteed satisfiable: built to be satisfied by a seed model."""
    names = names or VAR_NAMES
    seed_true = draw(st.sets(st.sampled_from(names)))
    clause_list = []
    n_clauses = draw(st.integers(min_value=0, max_value=max_clauses))
    for _ in range(n_clauses):
        size = draw(st.integers(min_value=1, max_value=4))
        chosen = draw(
            st.lists(
                st.sampled_from(names),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        lits = []
        # Force at least one literal to agree with the seed model.
        witness = draw(st.sampled_from(chosen))
        for name in chosen:
            if name == witness:
                lits.append(Lit(name, name in seed_true))
            else:
                lits.append(Lit(name, draw(st.booleans())))
        clause_list.append(Clause(lits))
    return CNF(clause_list, variables=names), frozenset(seed_true)


@st.composite
def implication_cnfs(draw, names=None, max_clauses=14):
    """CNFs made only of implications with non-empty positive heads.

    This is the clause shape the FJI/bytecode type rules generate; the
    greedy MSA path must never get stuck on these.
    """
    names = names or VAR_NAMES
    clause_list = []
    n_clauses = draw(st.integers(min_value=0, max_value=max_clauses))
    for _ in range(n_clauses):
        antecedents = draw(
            st.lists(st.sampled_from(names), max_size=3, unique=True)
        )
        consequents = draw(
            st.lists(
                st.sampled_from(names),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        clause_list.append(Clause.implication(antecedents, consequents))
    return CNF(clause_list, variables=names)


@st.composite
def formulas(draw, names=None):
    """Small formulas over a few names: variables, negations, constants,
    and conjunctions and disjunctions of them, nested up to twice."""
    names = names or VAR_NAMES[:4]
    leaves = st.one_of(
        st.sampled_from(names).map(Var),
        st.sampled_from(names).map(lambda name: Not(Var(name))),
        st.sampled_from([TRUE, FALSE]),
    )
    return draw(
        st.recursive(
            leaves,
            lambda children: st.one_of(
                st.lists(children, max_size=3).map(conj),
                st.lists(children, max_size=3).map(disj),
            ),
            max_leaves=6,
        )
    )


@st.composite
def implications(draw, names=None):
    """``Implies`` shapes, weighted towards the ones the type rules emit:
    a variable or a conjunction of variables on each side."""
    names = names or VAR_NAMES[:4]
    variables = st.sampled_from(names).map(Var)
    sides = st.one_of(
        variables,
        st.lists(variables, min_size=1, max_size=3).map(conj),
        st.lists(st.one_of(variables, st.just(TRUE)), max_size=3).map(conj),
        formulas(names),
    )
    return Implies(draw(sides), draw(sides))
