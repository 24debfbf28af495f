"""Reference engines the differential tests compare production code to.

These are the original, pre-optimisation implementations, kept verbatim
as executable specifications:

- :class:`OccurrenceIndex` + :func:`unit_propagate` — occurrence-list
  unit propagation; :func:`watched_propagate_from_seed` runs
  :func:`repro.logic.propagation.propagate_watched` behind the same
  call shape so the two engines compare call-for-call;
- :func:`solve_legacy` / :func:`solve_indexed` — the per-call DPLL
  solver that :class:`repro.logic.session.SolverSession` must match
  model-for-model;
- :func:`build_progression_reference` — the materializing PROGRESSION
  builder that :class:`repro.reduction.progression.ProgressionEngine`
  must match entry-for-entry;
- :func:`topological_order_reference`,
  :func:`strongly_connected_components_reference` and
  :func:`dependency_order_reference` — the re-sorting Kahn sort, the
  dict-based Tarjan and the item-graph variable order that
  :meth:`repro.graphs.digraph.DiGraph.topological_order`,
  :func:`repro.graphs.scc.strongly_connected_components` and
  :func:`repro.reduction.ordering.dependency_order` must match
  element-for-element;
- :func:`generate_constraints_reference` — the formula-based bytecode
  constraint generator (each type rule a
  :class:`~repro.logic.formula.Formula` tree, put through NNF and
  distribution by :func:`add_formula_reference`), which
  :func:`repro.bytecode.constraints.generate_constraints`, emitting
  clauses straight from the rules, must match clause-for-clause and
  error-for-error.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.bytecode.classfile import (
    Application,
    BUILTIN_CLASSES,
    ClassFile,
    INIT,
    JAVA_OBJECT,
    MethodDef,
)
from repro.bytecode.constraints import BUILTIN_METHODS, ConstraintError
from repro.bytecode.descriptors import (
    parse_field_descriptor,
    parse_method_descriptor,
)
from repro.bytecode.hierarchy import Hierarchy
from repro.bytecode.instructions import (
    CheckCast,
    InvokeSpecial,
    LoadClassConstant,
)
from repro.bytecode.items import (
    AttributeItem,
    ClassItem,
    CodeItem,
    ConstructorCodeItem,
    ConstructorItem,
    FieldItem,
    ImplementsItem,
    InterfaceItem,
    Item,
    MethodItem,
    SignatureItem,
    SuperClassItem,
    items_of,
)
from repro.graphs.digraph import DiGraph
from repro.logic.cnf import CNF, Clause, IndexedCNF, Lit
from repro.logic.formula import FALSE, TRUE, Formula, Implies, Var, conj, disj
from repro.logic.msa import MsaSolver
from repro.logic.propagation import WatchedIndex, propagate_watched
from repro.logic.session import SatResult, _SolverStats
from repro.observability import get_metrics, get_tracer
from repro.observability.spans import NULL_SPAN
from repro.reduction.problem import ReductionError
from repro.reduction.progression import Progression

VarName = Hashable


# -- propagation -------------------------------------------------------------


class PropagationResult(NamedTuple):
    """Outcome of a propagation run.

    ``conflict`` is True when a clause became empty.  ``assignment`` maps
    variable index -> bool for every variable assigned so far (including
    the seed literals).
    """

    conflict: bool
    assignment: Dict[int, bool]


class OccurrenceIndex:
    """Occurrence lists for a clause database (built once, reused)."""

    def __init__(self, clauses: Sequence[Tuple[int, ...]], num_vars: int):
        self.clauses = list(clauses)
        self.num_vars = num_vars
        # occurrences[var][polarity] -> clause indices where (var, polarity)
        # appears; polarity 1 = positive, 0 = negative.
        self.occurrences: List[Tuple[List[int], List[int]]] = [
            ([], []) for _ in range(num_vars)
        ]
        for ci, clause in enumerate(self.clauses):
            for lit in clause:
                var = abs(lit) - 1
                self.occurrences[var][1 if lit > 0 else 0].append(ci)


def unit_propagate(
    index: OccurrenceIndex,
    seed: Iterable[Tuple[int, bool]],
    base: Optional[Dict[int, bool]] = None,
) -> PropagationResult:
    """Propagate units from ``seed`` on top of the partial assignment ``base``.

    ``seed`` is an iterable of (variable index, value) decisions.  The
    returned assignment includes ``base``, the seeds, and everything
    implied.  Detects conflicts (a clause with every literal falsified).
    """
    assignment: Dict[int, bool] = dict(base) if base else {}
    queue: List[Tuple[int, bool]] = []

    def assign(var: int, value: bool) -> bool:
        existing = assignment.get(var)
        if existing is not None:
            return existing == value
        assignment[var] = value
        queue.append((var, value))
        return True

    for var, value in seed:
        if not assign(var, value):
            return PropagationResult(True, assignment)

    clauses = index.clauses
    occurrences = index.occurrences

    while queue:
        var, value = queue.pop()
        # Clauses where the assigned literal is falsified may become unit.
        affected = occurrences[var][0 if value else 1]
        for ci in affected:
            clause = clauses[ci]
            unit_lit = None
            satisfied = False
            for lit in clause:
                lvar = abs(lit) - 1
                lval = assignment.get(lvar)
                if lval is None:
                    if unit_lit is not None:
                        unit_lit = 0  # at least two free literals
                    else:
                        unit_lit = lit
                elif lval == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if unit_lit is None:
                return PropagationResult(True, assignment)  # all falsified
            if unit_lit == 0:
                continue  # still has 2+ free literals
            uvar = abs(unit_lit) - 1
            if not assign(uvar, unit_lit > 0):
                return PropagationResult(True, assignment)

    return PropagationResult(False, assignment)


def _repair_watches(
    index: WatchedIndex,
    values: List[Optional[bool]],
    base: Dict[int, bool],
) -> None:
    """Move watches off literals falsified by an unpropagated base.

    ``propagate_watched`` relies on the invariant that a clause's first
    watch is only falsified while its falsifying assignment is still
    pending in the queue.  A base installed directly into ``values``
    breaks that (nothing is pending), so a clause can end up watched on
    two literals where one is already false — a later watch move would
    then skip a unit implication.  This pass re-points such watches at
    non-false literals where any exist.  Clauses with at most one
    non-false literal are left alone (unit under the base): asserting
    them would derive more than the occurrence-list reference does.
    """
    clause_lits = index.clause_lits
    watches = index.watches
    for var, value in base.items():
        false_lit = -(var + 1) if value else (var + 1)
        watchers = watches.get(false_lit)
        if not watchers:
            continue
        kept: List[int] = []
        for ci in watchers:
            lits = clause_lits[ci]
            if lits[0] == false_lit:
                lits[0], lits[1] = lits[1], lits[0]
            moved = False
            for k in range(2, len(lits)):
                other = lits[k]
                ovar = other - 1 if other > 0 else -other - 1
                oval = values[ovar]
                if oval is None or oval == (other > 0):
                    lits[1] = other
                    lits[k] = false_lit
                    watches.setdefault(other, []).append(ci)
                    moved = True
                    break
            if not moved:
                kept.append(ci)
        watches[false_lit] = kept


def watched_propagate_from_seed(
    index: WatchedIndex,
    seed: Iterable[Tuple[int, bool]],
    base: Optional[Dict[int, bool]] = None,
) -> PropagationResult:
    """Drop-in :func:`unit_propagate` twin running on watched literals.

    Exists so the differential tests can compare the two engines
    call-for-call; the solver session drives :func:`propagate_watched`
    directly (no dict copies, trail-based backtracking).

    Parity notes: like ``unit_propagate``, base literals are not
    re-queued, and length-1 clauses assert nothing on their own — but an
    assignment made *during this call* against a unit clause is a
    conflict (``unit_propagate`` sees it through the occurrence lists;
    units are outside the watch database, so we check them explicitly).
    """
    values: List[Optional[bool]] = [None] * index.num_vars
    trail: List[int] = []
    if base:
        for var, value in base.items():
            values[var] = value
            trail.append(var + 1 if value else -(var + 1))
        # Base literals are installed without propagation, which can
        # leave clauses watched on base-falsified literals.  Repair the
        # watch invariant (move watches off falsified literals) without
        # asserting anything: implications that follow from the base
        # alone stay underived, matching ``unit_propagate``.
        _repair_watches(index, values, base)
    start = len(trail)
    conflict = False
    for var, value in seed:
        existing = values[var]
        if existing is None:
            values[var] = value
            trail.append(var + 1 if value else -(var + 1))
        elif existing != value:
            conflict = True
            break
    if not conflict:
        ok, _ = propagate_watched(index, values, trail, start)
        conflict = not ok
    if not conflict and index.unit_literals:
        assigned_now = {
            lit - 1 if lit > 0 else -lit - 1 for lit in trail[start:]
        }
        for lit in index.unit_literals:
            var = lit - 1 if lit > 0 else -lit - 1
            if var in assigned_now and values[var] != (lit > 0):
                conflict = True
                break
    assignment = {
        var: value for var, value in enumerate(values) if value is not None
    }
    return PropagationResult(conflict, assignment)


# -- solver ------------------------------------------------------------------


def solve_legacy(
    cnf: CNF,
    assume_true: AbstractSet[VarName] = frozenset(),
    assume_false: AbstractSet[VarName] = frozenset(),
) -> SatResult:
    """The pre-session code path, preserved verbatim as a baseline.

    Pays the original per-call costs on purpose — a fresh repr-sort of
    the universe, a fresh :class:`OccurrenceIndex`, dict-copy
    backtracking — so the differential tests compare against the real
    former behaviour, not a half-accelerated one.
    """
    indexed = IndexedCNF(cnf, sorted(cnf.variables, key=repr))
    seed: List[Tuple[int, bool]] = []
    for name in assume_true:
        if name in indexed.index:
            seed.append((indexed.index[name], True))
    for name in assume_false:
        if name in indexed.index:
            seed.append((indexed.index[name], False))
        if name in assume_true:
            return SatResult(False, None)
    sat, model_indices = solve_indexed(indexed, seed)
    if not sat:
        return SatResult(False, None)
    assert model_indices is not None
    return SatResult(True, indexed.decode(model_indices))


def solve_indexed(
    indexed: IndexedCNF,
    seed: Iterable[Tuple[int, bool]] = (),
) -> Tuple[bool, Optional[FrozenSet[int]]]:
    """DPLL over the integer-indexed form (occurrence-list engine).

    Returns (satisfiable, set of true variable indices).  Unconstrained
    variables are left false, biasing the model toward small true sets.
    """
    stats = _SolverStats()
    tracer = get_tracer()
    if tracer.enabled:
        cm = tracer.span(
            "solver.solve",
            variables=indexed.num_vars,
            clauses=len(indexed.clauses),
        )
    else:
        cm = NULL_SPAN
    with cm as sp:
        satisfiable, model = _solve_indexed(indexed, seed, stats)
        sp.set_attr("satisfiable", satisfiable)
        sp.set_attr("decisions", stats.decisions)
        sp.set_attr("conflicts", stats.conflicts)
    stats.publish(satisfiable)
    return satisfiable, model


def _solve_indexed(
    indexed: IndexedCNF,
    seed: Iterable[Tuple[int, bool]],
    stats: _SolverStats,
) -> Tuple[bool, Optional[FrozenSet[int]]]:
    if any(not clause for clause in indexed.clauses):
        return False, None  # an empty clause is trivially unsatisfiable
    index = OccurrenceIndex(indexed.clauses, indexed.num_vars)
    seed = list(seed)
    result = unit_propagate(index, seed)
    if result.conflict:
        stats.conflicts += 1
        return False, None
    stats.propagations += len(result.assignment) - len(seed)
    assignment = result.assignment
    final = _dpll(index, assignment, stats)
    if final is None:
        return False, None
    true_indices = frozenset(v for v, val in final.items() if val)
    return True, true_indices


def _dpll(
    index: OccurrenceIndex,
    assignment: Dict[int, bool],
    stats: _SolverStats,
) -> Optional[Dict[int, bool]]:
    """Recursive DPLL search on top of a propagated partial assignment."""
    branch_var = _pick_branch_variable(index, assignment)
    if branch_var is None:
        return assignment  # every clause satisfied
    for value in (False, True):  # false-first: prefer small models
        stats.decisions += 1
        result = unit_propagate(index, [(branch_var, value)], base=assignment)
        if result.conflict:
            stats.conflicts += 1
            continue
        # Everything newly assigned beyond the decision itself was implied.
        stats.propagations += len(result.assignment) - len(assignment) - 1
        final = _dpll(index, result.assignment, stats)
        if final is not None:
            return final
    return None


def _pick_branch_variable(
    index: OccurrenceIndex, assignment: Dict[int, bool]
) -> Optional[int]:
    """Pick a free variable from the shortest unsatisfied clause.

    Returns None when all clauses are satisfied (so any remaining free
    variables can default to false).
    """
    best_var: Optional[int] = None
    best_free = None
    for clause in index.clauses:
        free: List[int] = []
        satisfied = False
        for lit in clause:
            var = abs(lit) - 1
            value = assignment.get(var)
            if value is None:
                free.append(var)
            elif value == (lit > 0):
                satisfied = True
                break
        if satisfied:
            continue
        if not free:
            # Propagation detects every falsified clause before we branch.
            free_conflict(clause)
        if best_free is None or len(free) < best_free:
            best_free = len(free)
            best_var = free[0]
            if best_free == 1:
                break
    return best_var


def free_conflict(clause: Tuple[int, ...]) -> int:
    """Unreachable guard: a falsified clause survived propagation."""
    raise AssertionError(
        f"falsified clause {clause!r} reached the branching step"
    )


# -- progression -------------------------------------------------------------


def build_progression_reference(
    constraint: CNF,
    order: Sequence[VarName],
    learned: Iterable[FrozenSet[VarName]],
    scope: FrozenSet[VarName],
    require_true: FrozenSet[VarName] = frozenset(),
) -> Progression:
    """The pre-engine implementation, preserved as a baseline.

    Materializes ``constraint.restrict(scope)`` plus the learned clauses
    and builds a fresh :class:`MsaSolver` per call — the differential
    tests assert :class:`ProgressionEngine` produces identical entries.
    """
    scope = frozenset(scope)
    learned = list(learned)
    get_metrics().counter("progression.rebuilds").inc()
    with get_tracer().span(
        "progression.build", scope=len(scope), learned=len(learned)
    ) as sp:
        strengthened = constraint.restrict(scope)
        for learned_set in learned:
            inside = frozenset(learned_set) & scope
            if not inside:
                raise ReductionError(
                    "learned set fell fully outside the search space"
                )
            strengthened.add_clause(Clause.implication([], inside))

        scoped_order = [v for v in order if v in scope]
        solver = MsaSolver(strengthened, scoped_order)
        stragglers = sorted(scope - set(scoped_order), key=solver.rank)

        first = solver.compute(require_true=frozenset(require_true) & scope)
        if first is None:
            raise ReductionError(
                "R+ is unsatisfiable: no valid sub-input in the search space"
            )

        entries: List[FrozenSet[VarName]] = [first]
        covered = set(first)
        for var in scoped_order + stragglers:
            if var in covered:
                continue
            # extend grows its argument in place; the reference hands it
            # a copy and derives each entry from the sets themselves.
            extended = set(covered)
            if solver.extend(extended, [var]) is None:
                raise ReductionError(
                    f"could not extend progression with {var!r}; "
                    "is R(J) violated?"
                )
            entry = frozenset(extended - covered)
            entries.append(entry)
            covered = extended
        sp.set_attr("entries", len(entries))

    return Progression(entries)


# -- problem building ----------------------------------------------------------


def topological_order_reference(graph: DiGraph) -> List[VarName]:
    """Kahn's algorithm re-sorting the whole ready list by ``repr``
    after every insertion: O(V^2 log V) on wide graphs."""
    indegree: Dict[VarName, int] = {n: 0 for n in graph._succ}
    for _, dst in graph.edges():
        indegree[dst] += 1
    ready = sorted(
        (n for n, d in indegree.items() if d == 0), key=repr, reverse=True
    )
    order: List[VarName] = []
    while ready:
        node = ready.pop()
        order.append(node)
        inserted = False
        for nxt in graph._succ[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
                inserted = True
        if inserted:
            ready.sort(key=repr, reverse=True)
    if len(order) != len(graph._succ):
        raise ValueError("graph has a cycle; no topological order")
    return order


def strongly_connected_components_reference(
    graph: DiGraph,
) -> List[FrozenSet[VarName]]:
    """Tarjan over dicts, sorting every successor set by ``repr``."""
    index_counter = 0
    indices: Dict[VarName, int] = {}
    lowlinks: Dict[VarName, int] = {}
    on_stack: Dict[VarName, bool] = {}
    stack: List[VarName] = []
    components: List[FrozenSet[VarName]] = []

    for root in sorted(graph.nodes, key=repr):
        if root in indices:
            continue
        work: List[Tuple[VarName, List[VarName]]] = [
            (root, sorted(graph.successors(root), key=repr))
        ]
        indices[root] = lowlinks[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack[root] = True

        while work:
            node, successors = work[-1]
            advanced = False
            while successors:
                nxt = successors.pop()
                if nxt not in indices:
                    indices[nxt] = lowlinks[nxt] = index_counter
                    index_counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append(
                        (nxt, sorted(graph.successors(nxt), key=repr))
                    )
                    advanced = True
                    break
                if on_stack.get(nxt):
                    lowlinks[node] = min(lowlinks[node], indices[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component: List[VarName] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(frozenset(component))

    return components


def dependency_order_reference(
    cnf: CNF, variables: Sequence[VarName]
) -> List[VarName]:
    """The variable order over the item graph and its condensation.

    Components are ranked by their plain ``repr``, which for a component
    of several members follows hash iteration order; on inputs whose
    components are all single variables it is seed-independent.
    """
    declared_rank = {var: i for i, var in enumerate(variables)}
    graph = DiGraph(nodes=variables or cnf.variables)
    for clause in cnf.clauses:
        if clause.is_graph_constraint():
            (src,) = clause.negatives
            (dst,) = clause.positives
            graph.add_edge(src, dst)
    components = strongly_connected_components_reference(graph)
    component_of = {
        node: component for component in components for node in component
    }
    dag = DiGraph(nodes=components)
    for src, dst in graph.edges():
        if component_of[src] != component_of[dst]:
            dag.add_edge(component_of[src], component_of[dst])
    component_order = topological_order_reference(dag)
    component_order.reverse()
    component_rank = {comp: i for i, comp in enumerate(component_order)}
    return sorted(
        variables,
        key=lambda var: (component_rank[component_of[var]], declared_rank[var]),
    )


def add_formula_reference(cnf: CNF, formula: Formula) -> None:
    """Add a formula's clauses, always through NNF and distribution."""
    cnf._indexed_cache = None
    cnf._variables.update(formula.variables())
    for raw in formula.to_clauses():
        cnf.add_clause(Clause(Lit(v, p) for (v, p) in raw))


def generate_constraints_reference(app) -> CNF:
    """The bytecode constraint CNF built from the type rules' formulas.

    Each rule is a :class:`~repro.logic.formula.Formula` tree that goes
    through NNF and distribution; the production generator emits the
    same clauses directly and must match this clause-for-clause.
    """
    generator = _Generator(app)
    cnf = CNF(variables=items_of(app))
    for decl in app.classes:
        for formula in generator.class_constraints(decl):
            add_formula_reference(cnf, formula)
    return cnf


class _Generator:
    def __init__(self, app: Application):
        self.app = app
        self.hierarchy = Hierarchy(app)

    # ------------------------------------------------------------------

    def run(self) -> CNF:
        cnf = CNF(variables=items_of(self.app))
        for decl in self.app.classes:
            for formula in self.class_constraints(decl):
                cnf.add_formula(formula)
        return cnf

    # ------------------------------------------------------------------
    # Formula helpers
    # ------------------------------------------------------------------

    def type_formula(self, name: str) -> Formula:
        if name in BUILTIN_CLASSES:
            return TRUE
        decl = self.app.class_file(name)
        if decl is None:
            raise ConstraintError(f"reference to unknown type {name!r}")
        if decl.is_interface:
            return Var(InterfaceItem(name))
        return Var(ClassItem(name))

    def descriptor_types(self, descriptor: str, is_method: bool) -> Formula:
        if is_method:
            refs = parse_method_descriptor(descriptor).referenced_classes()
        else:
            refs = parse_field_descriptor(descriptor).referenced_classes()
        return conj(self.type_formula(name) for name in sorted(refs))

    def member_item(self, class_name: str, method: MethodDef) -> Item:
        decl = self.app.class_file(class_name)
        if method.is_constructor:
            return ConstructorItem(class_name, method.descriptor)
        if method.is_abstract or (decl is not None and decl.is_interface):
            return SignatureItem(class_name, method.name, method.descriptor)
        return MethodItem(class_name, method.name, method.descriptor)

    def paths_formula(self, sub: str, sup: str) -> Formula:
        """Disjunction over subtype derivations (FALSE when none)."""
        paths = self.hierarchy.subtype_paths(sub, sup)
        if not paths:
            return FALSE
        return disj(conj(Var(item) for item in sorted(path, key=str))
                    for path in paths)

    def m_any(self, owner: str, name: str, descriptor: str) -> Formula:
        """At least one reachable declaration of owner.name:descriptor.

        A candidate declared on ancestor X contributes
        ``(path owner->X alive) /\\ [X.name]``.
        """
        if (owner, name, descriptor) in BUILTIN_METHODS:
            return TRUE
        candidates = self.hierarchy.method_candidates(owner, name, descriptor)
        options: List[Formula] = []
        for declaring, method in candidates:
            path = self.paths_formula(owner, declaring)
            if path == FALSE:
                continue
            options.append(
                conj([path, Var(self.member_item(declaring, method))])
            )
        if not options:
            raise ConstraintError(
                f"method {owner}.{name}{descriptor} does not resolve"
            )
        return disj(options)

    def f_any(self, owner: str, name: str) -> Formula:
        candidates = self.hierarchy.field_candidates(owner, name)
        options: List[Formula] = []
        for declaring, _field in candidates:
            path = self.paths_formula(owner, declaring)
            if path == FALSE:
                continue
            options.append(
                conj([path, Var(FieldItem(declaring, name))])
            )
        if not options:
            raise ConstraintError(f"field {owner}.{name} does not resolve")
        return disj(options)

    # ------------------------------------------------------------------
    # Per-class constraints
    # ------------------------------------------------------------------

    def class_constraints(self, decl: ClassFile) -> Iterable[Formula]:
        name = decl.name
        self_var = self.type_formula(name)

        # Relations.
        if not decl.is_interface and decl.superclass != JAVA_OBJECT:
            super_item = Var(SuperClassItem(name))
            yield Implies(super_item, self_var)
            yield Implies(super_item, self.type_formula(decl.superclass))
        for iface in decl.interfaces:
            impl = Var(ImplementsItem(name, iface))
            yield Implies(impl, self_var)
            yield Implies(impl, self.type_formula(iface))

        # Attributes.
        for attribute in decl.attributes:
            yield Implies(Var(AttributeItem(name, attribute.name)), self_var)

        # Fields.
        for fdecl in decl.fields:
            field_var = Var(FieldItem(name, fdecl.name))
            yield Implies(field_var, self_var)
            types = self.descriptor_types(fdecl.descriptor, is_method=False)
            if types != TRUE:
                yield Implies(field_var, types)

        # Methods, signatures, constructors.
        for method in decl.methods:
            yield from self.method_constraints(decl, method)

        # Interface / abstract obligations (only concrete classes carry
        # them; abstract classes defer to their concrete subclasses).
        if not decl.is_interface and not decl.is_abstract:
            yield from self.obligation_constraints(decl)

    def method_constraints(
        self, decl: ClassFile, method: MethodDef
    ) -> Iterable[Formula]:
        name = decl.name
        member_var = Var(self.member_item(name, method))
        yield Implies(member_var, self.type_formula(name))
        types = self.descriptor_types(method.descriptor, is_method=True)
        if types != TRUE:
            yield Implies(member_var, types)

        if method.code is None:
            return
        if method.is_constructor:
            code_var: Formula = Var(
                ConstructorCodeItem(name, method.descriptor)
            )
        else:
            code_var = Var(CodeItem(name, method.name, method.descriptor))
        yield Implies(code_var, member_var)
        for requirement in self.code_requirements(decl, method):
            if requirement != TRUE:
                yield Implies(code_var, requirement)

    def code_requirements(
        self, decl: ClassFile, method: MethodDef
    ) -> Iterable[Formula]:
        assert method.code is not None
        for instruction in method.code:
            # Direct type references.
            for type_name in sorted(instruction.type_refs()):
                yield self.type_formula(type_name)

            method_ref = instruction.method_ref()
            if method_ref is not None:
                if isinstance(instruction, InvokeSpecial):
                    yield from self.invoke_special_requirements(
                        decl, instruction
                    )
                else:
                    yield self.m_any(
                        method_ref.owner, method_ref.name, method_ref.descriptor
                    )

            field_ref = instruction.field_ref()
            if field_ref is not None:
                yield self.f_any(field_ref.owner, field_ref.name)

            if isinstance(instruction, CheckCast):
                if instruction.known_from is not None:
                    paths = self.paths_formula(
                        instruction.known_from, instruction.class_name
                    )
                    if paths == FALSE:
                        raise ConstraintError(
                            f"cast {instruction.known_from} -> "
                            f"{instruction.class_name} can never succeed"
                        )
                    yield paths

            if isinstance(instruction, LoadClassConstant):
                # The generics/reflection approximation: reflection on C
                # depends on C extending all its superclasses.
                yield from self.reflection_requirements(
                    instruction.class_name
                )

    def invoke_special_requirements(
        self, decl: ClassFile, instruction: InvokeSpecial
    ) -> Iterable[Formula]:
        """invokespecial: constructors and super calls."""
        ref = instruction.method_ref()
        if instruction.is_super_call and ref.owner != JAVA_OBJECT:
            # An explicit super dispatch needs the extends relation:
            # without it the class extends Object and the target vanishes.
            yield Var(SuperClassItem(decl.name))
        if ref.name == INIT:
            if (ref.owner, ref.name, ref.descriptor) in BUILTIN_METHODS:
                return
            owner_decl = self.app.class_file(ref.owner)
            if owner_decl is None or owner_decl.method(INIT, ref.descriptor) is None:
                raise ConstraintError(
                    f"constructor {ref.owner}.<init>{ref.descriptor} "
                    "does not resolve"
                )
            yield Var(ConstructorItem(ref.owner, ref.descriptor))
        else:
            # Private or super method call: resolve like a virtual call.
            yield self.m_any(ref.owner, ref.name, ref.descriptor)

    def reflection_requirements(self, class_name: str) -> Iterable[Formula]:
        current = class_name
        while True:
            decl = self.app.class_file(current)
            if decl is None or decl.is_interface:
                return
            if decl.superclass == JAVA_OBJECT:
                return
            yield Var(SuperClassItem(current))
            current = decl.superclass

    def obligation_constraints(self, decl: ClassFile) -> Iterable[Formula]:
        """(relation-path alive /\\ signature alive) => mAny.

        Covers interfaces (directly or transitively implemented) and
        abstract superclasses of this concrete class.
        """
        name = decl.name

        # Interface obligations.
        for iface_name in sorted(self.hierarchy.all_interfaces(name)):
            iface = self.app.class_file(iface_name)
            if iface is None:
                continue
            paths = self.hierarchy.subtype_paths(name, iface_name)
            for signature in iface.methods:
                if signature.is_constructor:
                    continue
                sig_var = Var(
                    SignatureItem(
                        iface_name, signature.name, signature.descriptor
                    )
                )
                implementation = self.concrete_m_any(
                    name, signature.name, signature.descriptor
                )
                for path in paths:
                    antecedent = conj(
                        [sig_var]
                        + [Var(item) for item in sorted(path, key=str)]
                    )
                    yield Implies(antecedent, implementation)

        # Abstract-method obligations up the superclass chain.
        chain_items: List[Item] = []
        current = decl.superclass
        chain_source = name
        while current not in BUILTIN_CLASSES:
            ancestor = self.app.class_file(current)
            if ancestor is None:
                break
            chain_items.append(SuperClassItem(chain_source))
            for method in ancestor.methods:
                if not method.is_abstract:
                    continue
                sig_var = Var(
                    SignatureItem(current, method.name, method.descriptor)
                )
                antecedent = conj(
                    [sig_var] + [Var(item) for item in chain_items]
                )
                yield Implies(
                    antecedent,
                    self.concrete_m_any(
                        name, method.name, method.descriptor
                    ),
                )
            chain_source = current
            current = ancestor.superclass

    def concrete_m_any(
        self, owner: str, name: str, descriptor: str
    ) -> Formula:
        """Like ``m_any`` but only concrete implementations count."""
        candidates = self.hierarchy.method_candidates(owner, name, descriptor)
        options: List[Formula] = []
        for declaring, method in candidates:
            if method.is_abstract:
                continue
            declaring_decl = self.app.class_file(declaring)
            if declaring_decl is not None and declaring_decl.is_interface:
                continue
            path = self.paths_formula(owner, declaring)
            if path == FALSE:
                continue
            options.append(
                conj([path, Var(self.member_item(declaring, method))])
            )
        if not options:
            raise ConstraintError(
                f"{owner} has no concrete implementation of "
                f"{name}{descriptor}"
            )
        return disj(options)
