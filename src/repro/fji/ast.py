"""The abstract syntax of FJI (Figure 4 of the paper).

::

    P ::= (R..., e)                              programs
    R ::= L | Q                                  type declarations
    T, U ::= C | I                               type names
    L ::= class C extends D implements I { T f; K M }
    Q ::= interface I { S }
    K ::= C(T f) { super(f); this.f = f; }       constructors
    M ::= T m(T x) { return e; }                 methods
    S ::= T m(T x);                              signatures
    e ::= x | e.f | e.m(e) | new C(e) | (T) e    expressions

Type names are plain strings.  Three names are built in and never
reducible: ``Object`` (the root class), ``String`` (an empty leaf class —
handy for writing method bodies that generate no constraints), and
``EmptyInterface`` (the interface every class implicitly implements when
its declared interface is removed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

__all__ = [
    "OBJECT",
    "STRING",
    "EMPTY_INTERFACE",
    "BUILTIN_TYPES",
    "Expr",
    "VarExpr",
    "FieldAccess",
    "MethodCall",
    "New",
    "Cast",
    "Param",
    "FieldDecl",
    "Constructor",
    "Method",
    "Signature",
    "ClassDecl",
    "InterfaceDecl",
    "TypeDecl",
    "Program",
]

OBJECT = "Object"
STRING = "String"
EMPTY_INTERFACE = "EmptyInterface"
BUILTIN_TYPES = frozenset({OBJECT, STRING, EMPTY_INTERFACE})


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarExpr:
    """A variable reference ``x`` (including ``this``)."""

    name: str


@dataclass(frozen=True)
class FieldAccess:
    """``e.f``"""

    receiver: "Expr"
    field: str


@dataclass(frozen=True)
class MethodCall:
    """``e.m(e1, ..., en)``"""

    receiver: "Expr"
    method: str
    args: Tuple["Expr", ...] = ()


@dataclass(frozen=True)
class New:
    """``new C(e1, ..., en)``"""

    class_name: str
    args: Tuple["Expr", ...] = ()


@dataclass(frozen=True)
class Cast:
    """``(T) e``"""

    type_name: str
    expr: "Expr"


Expr = Union[VarExpr, FieldAccess, MethodCall, New, Cast]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """A typed parameter ``T x``."""

    type_name: str
    name: str


@dataclass(frozen=True)
class FieldDecl:
    """A field declaration ``T f;``."""

    type_name: str
    name: str


@dataclass(frozen=True)
class Constructor:
    """``C(U g, T f) { super(g); this.f = f; }``

    ``params`` covers the superclass fields followed by this class's own
    fields, in order; ``super_args`` names the parameters forwarded to
    ``super``.  Figure 4 fixes this shape, so we only store the pieces.
    """

    class_name: str
    params: Tuple[Param, ...] = ()
    super_args: Tuple[str, ...] = ()

    @property
    def own_field_params(self) -> Tuple[Param, ...]:
        return self.params[len(self.super_args):]


@dataclass(frozen=True)
class Method:
    """``T m(T x) { return e; }``"""

    return_type: str
    name: str
    params: Tuple[Param, ...]
    body: Expr


@dataclass(frozen=True)
class Signature:
    """``T m(T x);``"""

    return_type: str
    name: str
    params: Tuple[Param, ...]


@dataclass(frozen=True)
class ClassDecl:
    """``class C extends D implements I { T f; K M }``"""

    name: str
    superclass: str
    interface: str
    fields: Tuple[FieldDecl, ...]
    constructor: Constructor
    methods: Tuple[Method, ...]

    def method(self, name: str) -> Optional[Method]:
        for method in self.methods:
            if method.name == name:
                return method
        return None


@dataclass(frozen=True)
class InterfaceDecl:
    """``interface I { S }``"""

    name: str
    signatures: Tuple[Signature, ...]

    def signature(self, name: str) -> Optional[Signature]:
        for signature in self.signatures:
            if signature.name == name:
                return signature
        return None


TypeDecl = Union[ClassDecl, InterfaceDecl]


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    """A program: type declarations plus the main expression."""

    declarations: Tuple[TypeDecl, ...]
    main: Expr = New(OBJECT)

    def __post_init__(self) -> None:
        names = [decl.name for decl in self.declarations]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"duplicate type declarations: {sorted(duplicates)}")
        clash = set(names) & BUILTIN_TYPES
        if clash:
            raise ValueError(f"declarations shadow builtins: {sorted(clash)}")

    # -- lookup (the paper's P(C) and P(I)) --------------------------------

    def class_decl(self, name: str) -> Optional[ClassDecl]:
        decl = self._table().get(name)
        return decl if isinstance(decl, ClassDecl) else None

    def interface_decl(self, name: str) -> Optional[InterfaceDecl]:
        if name == EMPTY_INTERFACE:
            return InterfaceDecl(EMPTY_INTERFACE, ())
        decl = self._table().get(name)
        return decl if isinstance(decl, InterfaceDecl) else None

    def is_class_name(self, name: str) -> bool:
        return name in (OBJECT, STRING) or self.class_decl(name) is not None

    def is_interface_name(self, name: str) -> bool:
        return (
            name == EMPTY_INTERFACE or self.interface_decl(name) is not None
        )

    def class_decls(self) -> Tuple[ClassDecl, ...]:
        return tuple(
            d for d in self.declarations if isinstance(d, ClassDecl)
        )

    def interface_decls(self) -> Tuple[InterfaceDecl, ...]:
        return tuple(
            d for d in self.declarations if isinstance(d, InterfaceDecl)
        )

    def _table(self) -> Dict[str, TypeDecl]:
        table = getattr(self, "_table_cache", None)
        if table is None:
            table = {decl.name: decl for decl in self.declarations}
            object.__setattr__(self, "_table_cache", table)
        return table
