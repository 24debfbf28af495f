"""A mini-javac: scope- and type-checks decompiled source.

The oracle's observable is "does the decompiled output compile, and with
which error messages" — so this module is a real (small) Java front end
over the source model: class-table construction, hierarchy-aware method
and field resolution, local-variable scoping, arity checking, and
assignability at declarations, field writes, arguments, and returns.

Messages are deterministic and carry the file context but no line
numbers (``C03.java: error: cannot find symbol: method im0_1$iface in
I01``), so they are stable under reduction of *other* classes — which is
what lets the oracle's "preserve the full error message" predicate be
monotone.

Each message names the class being checked, and that check reads other
classes only through their signatures, so :func:`check_sources` reuses
a class's messages from an earlier call on the same memo while those
signatures are unchanged; a fresh memo checks every class.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.decompiler.source import (
    AssignFieldStmt,
    CallExpr,
    CastExpr,
    ClassLit,
    DeclStmt,
    ExprStmt,
    FieldExpr,
    IntLit,
    NewExpr,
    NullLit,
    ReturnStmt,
    SourceClass,
    SourceExpr,
    SourceMethod,
    Statement,
    StaticCallExpr,
    SuperCallStmt,
    ThisCallStmt,
    VarRef,
    simple_name,
)

__all__ = ["check_sources", "JavacError"]

JAVA_OBJECT = "java/lang/Object"
JAVA_STRING = "java/lang/String"

#: Methods every reference type inherits from Object.
_OBJECT_METHODS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "hashCode": ((), "int"),
    "toString": ((), JAVA_STRING),
}

_ERROR = "<error>"
_NULL = "<null>"
_PRIMITIVES = frozenset({"int", "void", "Class", _ERROR, _NULL})


class JavacError(ValueError):
    """Raised only for malformed source models (not for type errors)."""


#: A per-oracle memo of class checks: ``id(class) -> (class, lookups,
#: messages)``, where ``lookups`` pairs every class-table name the check
#: looked up with that name's :func:`_signature` at the time.
CheckMemo = Dict[
    int, Tuple[SourceClass, Tuple[Tuple[str, Any], ...], FrozenSet[str]]
]


def check_sources(
    sources: Sequence[SourceClass], memo: CheckMemo
) -> FrozenSet[str]:
    """Check all classes; returns the set of error messages (empty = ok).

    ``memo`` reuses a class's messages across calls.  A class's check
    reads the class itself and, through the class table only, the
    signatures of the classes it names (:func:`_signature`), and every
    message names the checked class.  So an entry records the names
    the check looked up and their signatures, and is reused only for
    the same class object while every one of those names still has the
    same signature (or is still absent).  The entry keeps its class
    alive, so a reused ``id`` is never served.  Threads may share a
    memo without a lock: a duplicate check stores an equally valid
    entry.
    """
    return _Checker(sources).run(memo)


def _signature(decl: Optional[SourceClass]) -> Any:
    """What a check reads of a class it looks up by name: everything
    but method bodies and parameter names (None: no such class)."""
    if decl is None:
        return None
    return (
        decl.superclass,
        decl.interfaces,
        decl.is_interface,
        decl.is_abstract,
        decl.fields,
        tuple(
            (m.name, tuple(t for t, _ in m.params), m.return_type)
            for m in decl.methods
        ),
    )


class _Lookups:
    """A class table that records every name looked up."""

    __slots__ = ("table", "names")

    def __init__(self, table: Dict[str, SourceClass]) -> None:
        self.table = table
        self.names: Set[str] = set()

    def get(self, name: str) -> Optional[SourceClass]:
        self.names.add(name)
        return self.table.get(name)

    def __contains__(self, name: str) -> bool:
        self.names.add(name)
        return name in self.table


class _Checker:
    def __init__(self, sources: Sequence[SourceClass]):
        self.table: Dict[str, SourceClass] = {s.name: s for s in sources}
        self.errors: Set[str] = set()

    def run(self, memo: CheckMemo) -> FrozenSet[str]:
        table = self.table
        signatures: Dict[str, Any] = {}

        def signature(name: str) -> Any:
            if name not in signatures:
                signatures[name] = _signature(table.get(name))
            return signatures[name]

        errors: Set[str] = set()
        for decl in table.values():
            entry = memo.get(id(decl))
            if (
                entry is None
                or entry[0] is not decl
                or any(signature(name) != seen for name, seen in entry[1])
            ):
                # The check reads the table through a recorder and
                # reports into a set of its own.
                lookups = _Lookups(table)
                self.table, self.errors = lookups, set()  # type: ignore[assignment]
                self.check_class(decl)
                entry = (
                    decl,
                    tuple((name, signature(name)) for name in lookups.names),
                    frozenset(self.errors),
                )
                memo[id(decl)] = entry
            errors.update(entry[2])
        return frozenset(errors)

    # ------------------------------------------------------------------

    def error(self, decl: SourceClass, message: str) -> None:
        self.errors.add(f"{simple_name(decl.name)}.java: error: {message}")

    def type_exists(self, name: str) -> bool:
        # Builtins first: no class may shadow one, so they need no
        # (recorded) class-table lookup.
        return (
            name in _PRIMITIVES
            or name in (JAVA_OBJECT, JAVA_STRING)
            or name in self.table
        )

    def check_type(self, decl: SourceClass, name: str) -> None:
        if not self.type_exists(name):
            self.error(decl, f"cannot find symbol: class {simple_name(name)}")

    # ------------------------------------------------------------------
    # Hierarchy over source
    # ------------------------------------------------------------------

    def superclass_chain(self, name: str) -> List[str]:
        chain = []
        seen = set()
        current: Optional[str] = name
        while current and current not in seen:
            seen.add(current)
            chain.append(current)
            if current == JAVA_OBJECT:
                break
            source = self.table.get(current)
            current = source.superclass if source else JAVA_OBJECT
        if JAVA_OBJECT not in chain:
            chain.append(JAVA_OBJECT)
        return chain

    def all_supertypes(self, name: str) -> Set[str]:
        out: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in out:
                continue
            out.add(current)
            source = self.table.get(current)
            if source is None:
                out.add(JAVA_OBJECT)
                continue
            stack.append(source.superclass)
            stack.extend(source.interfaces)
        out.add(JAVA_OBJECT)
        return out

    def assignable(self, source_type: str, target: str) -> bool:
        if _ERROR in (source_type, target):
            return True
        if source_type == target:
            return True
        if source_type == _NULL:
            return target not in ("int", "void")
        if target == "int" or source_type == "int":
            return False
        if target == JAVA_OBJECT:
            return True
        return target in self.all_supertypes(source_type)

    def resolve_method(
        self, type_name: str, method: str
    ) -> Optional[Tuple[Tuple[str, ...], str]]:
        """(param types, return type) or None; searches the hierarchy."""
        if type_name in (_ERROR, _NULL):
            return ((), _ERROR)
        seen: Set[str] = set()
        stack = [type_name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            source = self.table.get(current)
            if source is None:
                continue
            for candidate in source.methods:
                if candidate.name == method:
                    return (
                        tuple(t for (t, _n) in candidate.params),
                        candidate.return_type,
                    )
            stack.append(source.superclass)
            stack.extend(source.interfaces)
        if method in _OBJECT_METHODS:
            return _OBJECT_METHODS[method]
        return None

    def resolve_field(self, type_name: str, field: str) -> Optional[str]:
        for current in self.superclass_chain(type_name):
            source = self.table.get(current)
            if source is None:
                continue
            for fdecl in source.fields:
                if fdecl.name == field:
                    return fdecl.type_name
        return None

    def constructor_arities(self, type_name: str) -> Set[int]:
        source = self.table.get(type_name)
        if source is None:
            return {0}  # builtins: default constructor
        arities = {
            len(m.params) for m in source.methods if m.is_constructor
        }
        return arities or {0}  # Java's implicit default constructor

    # ------------------------------------------------------------------
    # Class-level checks
    # ------------------------------------------------------------------

    def check_class(self, decl: SourceClass) -> None:
        self.check_type(decl, decl.superclass)
        superclass = self.table.get(decl.superclass)
        if superclass is not None and superclass.is_interface:
            self.error(
                decl,
                f"cannot inherit from interface "
                f"{simple_name(decl.superclass)}",
            )
        seen_ifaces: Set[str] = set()
        for iface in decl.interfaces:
            self.check_type(decl, iface)
            iface_decl = self.table.get(iface)
            if iface_decl is not None and not iface_decl.is_interface:
                self.error(
                    decl, f"interface expected: {simple_name(iface)}"
                )
            if iface in seen_ifaces:
                self.error(decl, f"repeated interface {simple_name(iface)}")
            seen_ifaces.add(iface)
        for fdecl in decl.fields:
            self.check_type(decl, fdecl.type_name)
        for method in decl.methods:
            self.check_method(decl, method)

    # ------------------------------------------------------------------
    # Method bodies
    # ------------------------------------------------------------------

    def check_method(self, decl: SourceClass, method: SourceMethod) -> None:
        self.check_type(decl, method.return_type)
        scope: Dict[str, str] = {}
        for (type_name, name) in method.params:
            self.check_type(decl, type_name)
            scope[name] = type_name
        if not method.is_static:
            scope["this"] = decl.name
        if method.is_abstract:
            return
        for statement in method.statements:
            self.check_statement(decl, method, scope, statement)

    def check_statement(
        self,
        decl: SourceClass,
        method: SourceMethod,
        scope: Dict[str, str],
        statement: Statement,
    ) -> None:
        if isinstance(statement, DeclStmt):
            self.check_type(decl, statement.type_name)
            value_type = self.type_of(decl, scope, statement.expr)
            if not self.assignable(value_type, statement.type_name):
                self.incompatible(decl, value_type, statement.type_name)
            scope[statement.var] = statement.type_name
        elif isinstance(statement, ExprStmt):
            self.type_of(decl, scope, statement.expr)
        elif isinstance(statement, AssignFieldStmt):
            receiver_type = self.type_of(decl, scope, statement.receiver)
            field_type = self.resolve_field(receiver_type, statement.field)
            if receiver_type != _ERROR and field_type is None:
                self.error(
                    decl,
                    f"cannot find symbol: variable {statement.field}",
                )
                field_type = _ERROR
            value_type = self.type_of(decl, scope, statement.expr)
            if field_type is not None and not self.assignable(
                value_type, field_type
            ):
                self.incompatible(decl, value_type, field_type)
        elif isinstance(statement, ReturnStmt):
            if statement.expr is None:
                if method.return_type != "void" and not method.is_constructor:
                    self.error(decl, "missing return value")
                return
            value_type = self.type_of(decl, scope, statement.expr)
            if method.return_type == "void":
                self.error(decl, "incompatible types: unexpected return value")
            elif not self.assignable(value_type, method.return_type):
                self.incompatible(decl, value_type, method.return_type)
        elif isinstance(statement, SuperCallStmt):
            arities = self.constructor_arities(decl.superclass)
            if len(statement.args) not in arities:
                self.error(
                    decl,
                    f"constructor {simple_name(decl.superclass)} cannot be "
                    "applied to given arguments",
                )
            for arg in statement.args:
                self.type_of(decl, scope, arg)
        elif isinstance(statement, ThisCallStmt):
            arities = self.constructor_arities(decl.name)
            if len(statement.args) not in arities:
                self.error(
                    decl,
                    f"constructor {simple_name(decl.name)} cannot be "
                    "applied to given arguments",
                )
            for arg in statement.args:
                self.type_of(decl, scope, arg)
        else:
            raise JavacError(f"unknown statement {statement!r}")

    def incompatible(
        self, decl: SourceClass, source_type: str, target: str
    ) -> None:
        pretty_source = (
            "null" if source_type == _NULL else simple_name(source_type)
        )
        self.error(
            decl,
            f"incompatible types: {pretty_source} cannot be converted "
            f"to {simple_name(target)}",
        )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def type_of(
        self,
        decl: SourceClass,
        scope: Dict[str, str],
        expr: SourceExpr,
    ) -> str:
        if isinstance(expr, IntLit):
            return "int"
        if isinstance(expr, NullLit):
            return _NULL
        if isinstance(expr, VarRef):
            if expr.name in scope:
                return scope[expr.name]
            self.error(
                decl, f"cannot find symbol: variable {expr.name}"
            )
            return _ERROR
        if isinstance(expr, NewExpr):
            self.check_type(decl, expr.type_name)
            target = self.table.get(expr.type_name)
            if target is not None:
                if target.is_interface:
                    self.error(
                        decl,
                        f"{simple_name(expr.type_name)} is abstract; "
                        "cannot be instantiated",
                    )
                elif target.is_abstract:
                    self.error(
                        decl,
                        f"{simple_name(expr.type_name)} is abstract; "
                        "cannot be instantiated",
                    )
            arities = self.constructor_arities(expr.type_name)
            if len(expr.args) not in arities:
                self.error(
                    decl,
                    f"constructor {simple_name(expr.type_name)} cannot be "
                    "applied to given arguments",
                )
            for arg in expr.args:
                self.type_of(decl, scope, arg)
            return expr.type_name
        if isinstance(expr, CallExpr):
            receiver_type = self.type_of(decl, scope, expr.receiver)
            return self.check_call(
                decl, scope, receiver_type, expr.method, expr.args
            )
        if isinstance(expr, StaticCallExpr):
            self.check_type(decl, expr.owner)
            if not self.type_exists(expr.owner):
                for arg in expr.args:
                    self.type_of(decl, scope, arg)
                return _ERROR
            return self.check_call(
                decl, scope, expr.owner, expr.method, expr.args
            )
        if isinstance(expr, FieldExpr):
            receiver_type = self.type_of(decl, scope, expr.receiver)
            if receiver_type == _ERROR:
                return _ERROR
            field_type = self.resolve_field(receiver_type, expr.field)
            if field_type is None:
                self.error(
                    decl, f"cannot find symbol: variable {expr.field}"
                )
                return _ERROR
            return field_type
        if isinstance(expr, CastExpr):
            self.check_type(decl, expr.type_name)
            self.type_of(decl, scope, expr.expr)
            return expr.type_name if self.type_exists(expr.type_name) else _ERROR
        if isinstance(expr, ClassLit):
            self.check_type(decl, expr.type_name)
            return "Class"
        raise JavacError(f"unknown expression {expr!r}")

    def check_call(
        self,
        decl: SourceClass,
        scope: Dict[str, str],
        receiver_type: str,
        method: str,
        args,
    ) -> str:
        arg_types = [self.type_of(decl, scope, arg) for arg in args]
        if receiver_type in ("int", "void", "Class"):
            if receiver_type == "Class":
                self.error(
                    decl,
                    f"cannot find symbol: method {method} in Class",
                )
            else:
                self.error(decl, f"{receiver_type} cannot be dereferenced")
            return _ERROR
        resolved = self.resolve_method(receiver_type, method)
        if resolved is None:
            self.error(
                decl,
                f"cannot find symbol: method {method} in "
                f"{simple_name(receiver_type)}",
            )
            return _ERROR
        param_types, return_type = resolved
        if return_type == _ERROR:
            return _ERROR
        if len(param_types) != len(arg_types):
            self.error(
                decl,
                f"method {method} in {simple_name(receiver_type)} cannot "
                "be applied to given arguments",
            )
            return return_type
        for value, target in zip(arg_types, param_types):
            if not self.assignable(value, target):
                self.incompatible(decl, value, target)
        return return_type
