"""Variable orders for MSA_< and the progression.

The paper's Section 4.4: "the variable order < (a total order of I) helps
the main loop terminate in polynomial time; it also helps us design MSA_<
that runs in polynomial time", and Theorem 4.5 needs < to be "picked
well" for graph constraints.

Two orders are provided:

- :func:`declaration_order` — the order items appear in the input.  This
  is what the worked example in Section 4.5 uses (``[B]`` is "the
  smallest variable in J \\ D0" because B's items are declared before the
  remaining ones).
- :func:`dependency_order` — dependencies first: variables are sorted by
  the topological order of the graph-constraint condensation, so when the
  MSA picks the smallest variable of a disjunction it prefers variables
  that drag in little.  Ties (and variables in no graph clause) fall back
  to declaration order.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence

from repro.graphs.digraph import kahn
from repro.graphs.scc import tarjan
from repro.logic.cnf import CNF

__all__ = ["declaration_order", "dependency_order"]

VarName = Hashable


def declaration_order(variables: Sequence[VarName]) -> List[VarName]:
    """The identity order — items as declared in the input."""
    return list(variables)


def _component_label(component: Iterable[int], reprs: Sequence[str]) -> str:
    """The sort label of a component of node ids, seed-independent.

    ``reprs[i]`` is the ``repr`` of node ``i``'s variable.  The label
    renders the component of variables the way ``repr`` renders a
    frozenset, but with the members sorted: a frozenset's own ``repr``
    follows hash iteration order, which changes with ``PYTHONHASHSEED``
    when the component has several members.  For a single variable the
    label equals ``repr(frozenset({var}))``.
    """
    return "frozenset({" + ", ".join(sorted(reprs[i] for i in component)) + "})"


def dependency_order(
    cnf: CNF, variables: Sequence[VarName]
) -> List[VarName]:
    """Dependencies-first total order derived from the graph constraints.

    Members of the same SCC stay adjacent; SCCs are ordered so that a
    component precedes everything that depends on it.  Within a component
    (and among components at the same depth) the declaration order breaks
    ties, keeping the result stable.

    The components are ordered by the condensation's topological sort,
    whose ties go to the smallest :func:`_component_label`; the result is
    then reversed.  Labels do not depend on ``PYTHONHASHSEED``, so
    neither does the order.  The whole build costs O((V + E) log V).
    """
    declared_rank: Dict[VarName, int] = {
        var: i for i, var in enumerate(variables)
    }
    # The graph work runs on integer node ids, a variable's declaration
    # rank (CNF variables outside ``variables`` get the ids after them):
    # hashing an int is much cheaper than hashing an item.
    names = list(variables)
    node_of = dict(declared_rank)
    for var in sorted(cnf.variables.difference(declared_rank), key=repr):
        node_of[var] = len(names)
        names.append(var)
    successors: List[List[int]] = [[] for _ in names]
    for clause in cnf.clauses:
        if clause.is_graph_constraint():
            # ~a | b is the edge a -> b ("a depends on b").
            src, dst = clause.literals
            if src.positive:
                src, dst = dst, src
            successors[node_of[src.var]].append(node_of[dst.var])
    component_of, members = tarjan(successors)

    # The condensation; an edge between two components may repeat.
    depends_on: List[List[int]] = [[] for _ in members]
    for src, dsts in enumerate(successors):
        for dst in dsts:
            if component_of[src] != component_of[dst]:
                depends_on[component_of[src]].append(component_of[dst])
    reprs = [repr(name) for name in names]
    labels = [_component_label(group, reprs) for group in members]
    # Topological order of the condensation with *dependencies last*
    # (edges point at dependencies), so reverse it.
    component_order = kahn(depends_on, labels)
    component_order.reverse()

    component_rank = [0] * len(members)
    for rank, component in enumerate(component_order):
        component_rank[component] = rank

    def key(var: VarName):
        rank = declared_rank[var]
        return (component_rank[component_of[rank]], rank)

    return sorted(variables, key=key)
