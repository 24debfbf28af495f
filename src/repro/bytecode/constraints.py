"""The logical dependency model for bytecode (Section 3, "Java Bytecode").

:func:`generate_constraints` maps an application to a CNF over its
reducible items such that every satisfying assignment is a structurally
valid sub-application (see :mod:`repro.bytecode.validator` for the
validity judgment; the pair is property-tested together).

Three constraint families, mirroring the running example's taxonomy:

- **syntactic** — children require their parents (a method its class, a
  body its method, ...), so reduced class files are well-formed;
- **referential** — code requires the classes, methods (via ``mAny``),
  and fields (via ``fAny``) it mentions; members require the types in
  their descriptors; relations require both endpoints;
- **non-referential semantic** — interface/abstract-method obligations
  ``(relation-path /\\ signature) => mAny`` and subtype-path requirements
  for casts with statically known operand types; method and field
  resolution through a superclass chain also requires the chain's
  relation items, which makes ``mAny`` a disjunction of conjunctions —
  the beyond-graph fragment the paper is about.

Every rule has the shape ``(/\\ body) => head``: the body is a
conjunction of items and the head a monotone formula over items.  The
generator writes each head straight down in clause form — a tuple of
clauses, each a frozenset of item numbers (all positive) — so the rule
becomes one clause ``~body \\/ c`` per clause ``c`` of its head, with no
formula tree in between.  A conjunction concatenates its parts' clauses
and a disjunction distributes them (one clause per choice of a clause
from each part), exactly as NNF and distribution of the corresponding
formula would, so the clause list — order included — is the one the
formula route gives (``tests/reference_engines.py`` keeps that route as
the executable specification).  Each resolution (a type, a descriptor's
types, ``mAny``, ``fAny``, a concrete ``mAny``, a subtype derivation) is
computed once per key and reused by every rule that mentions it.

:func:`class_dependency_graph` produces the *class-granularity* graph
J-Reduce works on (one node per class, an edge per reference).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.bytecode.classfile import (
    Application,
    BUILTIN_CLASSES,
    ClassFile,
    INIT,
    JAVA_OBJECT,
    JAVA_STRING,
    MethodDef,
)
from repro.bytecode.descriptors import (
    parse_field_descriptor,
    parse_method_descriptor,
)
from repro.bytecode.hierarchy import Hierarchy
from repro.bytecode.instructions import (
    CheckCast,
    Instruction,
    InvokeSpecial,
    LoadClassConstant,
    MethodRef,
)
from repro.bytecode.items import (
    AttributeItem,
    CodeItem,
    ConstructorCodeItem,
    ConstructorItem,
    FieldItem,
    ImplementsItem,
    Item,
    MethodItem,
    SignatureItem,
    SuperClassItem,
    class_root,
    items_of,
)
from repro.graphs.digraph import DiGraph
from repro.logic.cnf import CNF

__all__ = ["generate_constraints", "class_dependency_graph", "ConstraintError"]

#: Methods on the built-in classes, free to call (never reducible).
BUILTIN_METHODS = frozenset(
    {
        (JAVA_OBJECT, INIT, "()V"),
        (JAVA_OBJECT, "hashCode", "()I"),
        (JAVA_OBJECT, "toString", "()Ljava/lang/String;"),
        (JAVA_STRING, INIT, "()V"),
        (JAVA_STRING, "length", "()I"),
    }
)

#: A monotone formula in clause form: a tuple of clauses, each the
#: frozenset of the numbers of its (positive) items.  ``()`` is TRUE.
Clauses = Tuple[FrozenSet[int], ...]


class ConstraintError(ValueError):
    """The application is not closed (a reference cannot resolve)."""


def generate_constraints(app: Application) -> CNF:
    """Map an application to its dependency CNF over ``items_of(app)``."""
    return _Generator(app).run()


def _disjunction(options: Sequence[Clauses]) -> Clauses:
    """The clauses of ``\\/ options`` by distribution, duplicates dropped.

    One clause per choice of a clause from each option, the first
    option's choice varying slowest; an option with no clauses (TRUE)
    makes the whole disjunction TRUE.
    """
    product: List[FrozenSet[int]] = [frozenset()]
    for option in options:
        product = [prefix | clause for prefix in product for clause in option]
    return tuple(dict.fromkeys(product))


class _Generator:
    """Emits one application's clauses, numbering items as it goes.

    Item ``k`` is ``names[k - 1]``: first ``items_of(app)``, then any
    other item a rule mentions (the universe is all of them).  Clauses
    are frozensets of signed item numbers (DIMACS style) until
    :meth:`run` hands them to :meth:`CNF.from_numbered`.
    """

    def __init__(self, app: Application):
        self.app = app
        self.hierarchy = Hierarchy(app)
        self.names: List[Item] = items_of(app)
        self.numbers: Dict[Item, int] = {
            item: k for k, item in enumerate(self.names, 1)
        }
        self.clauses: List[FrozenSet[int]] = []
        self.seen: Set[FrozenSet[int]] = set()
        # One resolution per key.
        self._types: Dict[str, Clauses] = {}
        self._descriptors: Dict[Tuple[str, bool], Clauses] = {}
        self._instructions: Dict[Instruction, Clauses] = {}
        self._constructors: Dict[Tuple[str, str], Clauses] = {}
        self._methods: Dict[Tuple[str, str, str], Clauses] = {}
        self._concrete: Dict[Tuple[str, str, str], Clauses] = {}
        self._fields: Dict[Tuple[str, str], Clauses] = {}
        self._paths: Dict[Tuple[str, str], List[Tuple[int, ...]]] = {}
        self._path_clauses: Dict[Tuple[str, str], Optional[Clauses]] = {}

    # ------------------------------------------------------------------

    def run(self) -> CNF:
        for decl in self.app.classes:
            self.class_constraints(decl)
        return CNF.from_numbered(
            self.names, self.clauses, range(len(self.names))
        )

    def number(self, item: Item) -> int:
        number = self.numbers.get(item)
        if number is None:
            self.names.append(item)
            number = self.numbers[item] = len(self.names)
        return number

    def unit(self, item: Item) -> FrozenSet[int]:
        return frozenset((self.number(item),))

    def implies(self, body: FrozenSet[int], head: Sequence[FrozenSet[int]]) -> None:
        """Emit ``(/\\ body) => head``, one clause per clause of ``head``.

        Tautologies (an item on both sides) and clauses already emitted
        are dropped, as :meth:`CNF.add_clause` drops them.
        """
        negated = frozenset([-k for k in body])
        seen = self.seen
        for clause in head:
            if body.isdisjoint(clause):
                literals = negated | clause
                if literals not in seen:
                    seen.add(literals)
                    self.clauses.append(literals)

    # ------------------------------------------------------------------
    # Resolutions, each in clause form and computed once per key
    # ------------------------------------------------------------------

    def type_clauses(self, name: str) -> Clauses:
        clauses = self._types.get(name)
        if clauses is None:
            if name in BUILTIN_CLASSES:
                clauses = ()
            else:
                decl = self.app.class_file(name)
                if decl is None:
                    raise ConstraintError(f"reference to unknown type {name!r}")
                clauses = (self.unit(class_root(decl)),)
            self._types[name] = clauses
        return clauses

    def descriptor_types(self, descriptor: str, is_method: bool) -> Clauses:
        key = (descriptor, is_method)
        clauses = self._descriptors.get(key)
        if clauses is None:
            if is_method:
                refs = parse_method_descriptor(descriptor).referenced_classes()
            else:
                refs = parse_field_descriptor(descriptor).referenced_classes()
            clauses = ()
            for name in sorted(refs):
                clauses += self.type_clauses(name)
            self._descriptors[key] = clauses
        return clauses

    def member_item(self, class_name: str, method: MethodDef) -> Item:
        decl = self.app.class_file(class_name)
        if method.is_constructor:
            return ConstructorItem(class_name, method.descriptor)
        if method.is_abstract or (decl is not None and decl.is_interface):
            return SignatureItem(class_name, method.name, method.descriptor)
        return MethodItem(class_name, method.name, method.descriptor)

    def paths(self, sub: str, sup: str) -> List[Tuple[int, ...]]:
        """The subtype derivations of ``sub <= sup`` as item numbers."""
        key = (sub, sup)
        paths = self._paths.get(key)
        if paths is None:
            paths = self._paths[key] = [
                tuple(self.number(item) for item in sorted(path, key=str))
                for path in self.hierarchy.subtype_paths(sub, sup)
            ]
        return paths

    def path_clauses(self, sub: str, sup: str) -> Optional[Clauses]:
        """Some derivation of ``sub <= sup`` holds; None when none can."""
        key = (sub, sup)
        if key not in self._path_clauses:
            paths = self.paths(sub, sup)
            self._path_clauses[key] = _disjunction(
                [tuple(frozenset((k,)) for k in path) for path in paths]
            ) if paths else None
        return self._path_clauses[key]

    def candidates(
        self, owner: str, found: List[Tuple[str, Item]]
    ) -> List[Clauses]:
        """``(path owner->X alive) /\\ [X.member]`` per reachable candidate."""
        options = []
        for declaring, item in found:
            path = self.path_clauses(owner, declaring)
            if path is not None:
                options.append(path + (self.unit(item),))
        return options

    def constructor(self, owner: str, descriptor: str) -> Clauses:
        key = (owner, descriptor)
        clauses = self._constructors.get(key)
        if clauses is None:
            if (owner, INIT, descriptor) in BUILTIN_METHODS:
                clauses = ()
            else:
                owner_decl = self.app.class_file(owner)
                if (
                    owner_decl is None
                    or owner_decl.method(INIT, descriptor) is None
                ):
                    raise ConstraintError(
                        f"constructor {owner}.<init>{descriptor} "
                        "does not resolve"
                    )
                clauses = (self.unit(ConstructorItem(owner, descriptor)),)
            self._constructors[key] = clauses
        return clauses

    def m_any(self, owner: str, name: str, descriptor: str) -> Clauses:
        """At least one reachable declaration of owner.name:descriptor."""
        key = (owner, name, descriptor)
        clauses = self._methods.get(key)
        if clauses is None:
            if key in BUILTIN_METHODS:
                clauses = ()
            else:
                options = self.candidates(owner, [
                    (declaring, self.member_item(declaring, method))
                    for declaring, method in
                    self.hierarchy.method_candidates(owner, name, descriptor)
                ])
                if not options:
                    raise ConstraintError(
                        f"method {owner}.{name}{descriptor} does not resolve"
                    )
                clauses = _disjunction(options)
            self._methods[key] = clauses
        return clauses

    def f_any(self, owner: str, name: str) -> Clauses:
        key = (owner, name)
        clauses = self._fields.get(key)
        if clauses is None:
            options = self.candidates(owner, [
                (declaring, FieldItem(declaring, name))
                for declaring, _field in
                self.hierarchy.field_candidates(owner, name)
            ])
            if not options:
                raise ConstraintError(f"field {owner}.{name} does not resolve")
            clauses = self._fields[key] = _disjunction(options)
        return clauses

    def concrete_m_any(self, owner: str, name: str, descriptor: str) -> Clauses:
        """Like ``m_any`` but only concrete implementations count."""
        key = (owner, name, descriptor)
        clauses = self._concrete.get(key)
        if clauses is None:
            found = []
            for declaring, method in self.hierarchy.method_candidates(
                owner, name, descriptor
            ):
                if method.is_abstract:
                    continue
                declaring_decl = self.app.class_file(declaring)
                if declaring_decl is not None and declaring_decl.is_interface:
                    continue
                found.append((declaring, self.member_item(declaring, method)))
            options = self.candidates(owner, found)
            if not options:
                raise ConstraintError(
                    f"{owner} has no concrete implementation of "
                    f"{name}{descriptor}"
                )
            clauses = self._concrete[key] = _disjunction(options)
        return clauses

    # ------------------------------------------------------------------
    # Per-class constraints
    # ------------------------------------------------------------------

    def class_constraints(self, decl: ClassFile) -> None:
        name = decl.name
        own = self.type_clauses(name)

        # Relations.
        if not decl.is_interface and decl.superclass != JAVA_OBJECT:
            self.implies(
                self.unit(SuperClassItem(name)),
                own + self.type_clauses(decl.superclass),
            )
        for iface in decl.interfaces:
            self.implies(
                self.unit(ImplementsItem(name, iface)),
                own + self.type_clauses(iface),
            )

        # Attributes.
        for attribute in decl.attributes:
            self.implies(self.unit(AttributeItem(name, attribute.name)), own)

        # Fields.
        for fdecl in decl.fields:
            self.implies(
                self.unit(FieldItem(name, fdecl.name)),
                own + self.descriptor_types(fdecl.descriptor, is_method=False),
            )

        # Methods, signatures, constructors.
        for method in decl.methods:
            self.method_constraints(decl, method, own)

        # Interface / abstract obligations (only concrete classes carry
        # them; abstract classes defer to their concrete subclasses).
        if not decl.is_interface and not decl.is_abstract:
            self.obligation_constraints(decl)

    def method_constraints(
        self, decl: ClassFile, method: MethodDef, own: Clauses
    ) -> None:
        name = decl.name
        member = self.unit(self.member_item(name, method))
        self.implies(
            member, own + self.descriptor_types(method.descriptor, is_method=True)
        )
        if method.code is None:
            return
        if method.is_constructor:
            code = ConstructorCodeItem(name, method.descriptor)
        else:
            code = CodeItem(name, method.name, method.descriptor)
        requirements = [member]
        self.code_requirements(decl, method, requirements)
        self.implies(self.unit(code), requirements)

    def code_requirements(
        self, decl: ClassFile, method: MethodDef, out: List[FrozenSet[int]]
    ) -> None:
        """Append the clauses a method body requires, in instruction order.

        An instruction's clauses depend on the instruction alone, apart
        from an explicit super call's (they name the calling class), so
        the rest are computed once per distinct instruction.
        """
        assert method.code is not None
        memo = self._instructions
        for instruction in method.code:
            clauses = memo.get(instruction)
            if clauses is None:
                clauses = self.instruction_requirements(decl, instruction)
                if not (
                    isinstance(instruction, InvokeSpecial)
                    and instruction.is_super_call
                ):
                    memo[instruction] = clauses
            out.extend(clauses)

    def instruction_requirements(
        self, decl: ClassFile, instruction: Instruction
    ) -> Clauses:
        out: List[FrozenSet[int]] = []
        # Direct type references.
        for type_name in sorted(instruction.type_refs()):
            out.extend(self.type_clauses(type_name))

        method_ref = instruction.method_ref()
        if method_ref is not None:
            if isinstance(instruction, InvokeSpecial):
                self.invoke_special_requirements(
                    decl, instruction, method_ref, out
                )
            else:
                out.extend(self.m_any(
                    method_ref.owner, method_ref.name, method_ref.descriptor
                ))

        field_ref = instruction.field_ref()
        if field_ref is not None:
            out.extend(self.f_any(field_ref.owner, field_ref.name))

        if isinstance(instruction, CheckCast):
            if instruction.known_from is not None:
                paths = self.path_clauses(
                    instruction.known_from, instruction.class_name
                )
                if paths is None:
                    raise ConstraintError(
                        f"cast {instruction.known_from} -> "
                        f"{instruction.class_name} can never succeed"
                    )
                out.extend(paths)

        if isinstance(instruction, LoadClassConstant):
            # The generics/reflection approximation: reflection on C
            # depends on C extending all its superclasses.
            self.reflection_requirements(instruction.class_name, out)
        return tuple(out)

    def invoke_special_requirements(
        self,
        decl: ClassFile,
        instruction: InvokeSpecial,
        ref: MethodRef,
        out: List[FrozenSet[int]],
    ) -> None:
        """invokespecial: constructors and super calls."""
        if instruction.is_super_call and ref.owner != JAVA_OBJECT:
            # An explicit super dispatch needs the extends relation:
            # without it the class extends Object and the target vanishes.
            out.append(self.unit(SuperClassItem(decl.name)))
        if ref.name == INIT:
            out.extend(self.constructor(ref.owner, ref.descriptor))
        else:
            # Private or super method call: resolve like a virtual call.
            out.extend(self.m_any(ref.owner, ref.name, ref.descriptor))

    def reflection_requirements(
        self, class_name: str, out: List[FrozenSet[int]]
    ) -> None:
        current = class_name
        while True:
            decl = self.app.class_file(current)
            if decl is None or decl.is_interface:
                return
            if decl.superclass == JAVA_OBJECT:
                return
            out.append(self.unit(SuperClassItem(current)))
            current = decl.superclass

    def obligation_constraints(self, decl: ClassFile) -> None:
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
            paths = self.paths(name, iface_name)
            for signature in iface.methods:
                if signature.is_constructor:
                    continue
                sig = self.number(
                    SignatureItem(
                        iface_name, signature.name, signature.descriptor
                    )
                )
                implementation = self.concrete_m_any(
                    name, signature.name, signature.descriptor
                )
                for path in paths:
                    self.implies(frozenset((sig,) + path), implementation)

        # Abstract-method obligations up the superclass chain.
        chain: List[int] = []
        current = decl.superclass
        chain_source = name
        while current not in BUILTIN_CLASSES:
            ancestor = self.app.class_file(current)
            if ancestor is None:
                break
            chain.append(self.number(SuperClassItem(chain_source)))
            for method in ancestor.methods:
                if not method.is_abstract:
                    continue
                sig = self.number(
                    SignatureItem(current, method.name, method.descriptor)
                )
                self.implies(
                    frozenset([sig] + chain),
                    self.concrete_m_any(name, method.name, method.descriptor),
                )
            chain_source = current
            current = ancestor.superclass


# ---------------------------------------------------------------------------
# The class-granularity graph (J-Reduce's model)
# ---------------------------------------------------------------------------


def class_dependency_graph(app: Application) -> DiGraph:
    """One node per class; ``C -> D`` when C mentions D anywhere.

    This is the model of the FSE 2019 J-Reduce: "if a class A mentions a
    class B, then we have a dependency from A to B".
    """
    graph = DiGraph(nodes=app.class_names())

    def add(src: str, dst: str) -> None:
        if dst in BUILTIN_CLASSES or dst == src:
            return
        if app.class_file(dst) is not None:
            graph.add_edge(src, dst)

    for decl in app.classes:
        add(decl.name, decl.superclass)
        for iface in decl.interfaces:
            add(decl.name, iface)
        for fdecl in decl.fields:
            for ref in parse_field_descriptor(
                fdecl.descriptor
            ).referenced_classes():
                add(decl.name, ref)
        for method in decl.methods:
            for ref in parse_method_descriptor(
                method.descriptor
            ).referenced_classes():
                add(decl.name, ref)
            if method.code is None:
                continue
            for instruction in method.code:
                for ref in instruction.type_refs():
                    add(decl.name, ref)
    return graph
