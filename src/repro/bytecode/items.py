"""The reducible item kinds of the bytecode model.

The paper: "We have a total of 11 kinds of items that can be removed,
including constructors, fields, and super-class relations."  Ours:

 1.  :class:`ClassItem` — a class,
 2.  :class:`InterfaceItem` — an interface,
 3.  :class:`SuperClassItem` — the ``extends D`` relation of a class
     (removal rewrites it to ``extends java/lang/Object``),
 4.  :class:`ImplementsItem` — one entry of an implements list (also an
     interface's ``extends`` entry, which the JVM stores the same way),
 5.  :class:`MethodItem` — a concrete method,
 6.  :class:`CodeItem` — a concrete method's body,
 7.  :class:`ConstructorItem` — a constructor,
 8.  :class:`ConstructorCodeItem` — a constructor's body,
 9.  :class:`FieldItem` — a field,
 10. :class:`SignatureItem` — an abstract/interface method declaration,
 11. :class:`AttributeItem` — a class-level attribute.

``str()`` renders the paper's bracket notation.  Items are frozen
dataclasses, usable directly as CNF variables and graph nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

__all__ = [
    "ClassItem",
    "InterfaceItem",
    "SuperClassItem",
    "ImplementsItem",
    "MethodItem",
    "CodeItem",
    "ConstructorItem",
    "ConstructorCodeItem",
    "FieldItem",
    "SignatureItem",
    "AttributeItem",
    "Item",
    "items_of",
    "items_of_class",
    "items_by_class",
    "class_root",
    "ITEM_KINDS",
]


@dataclass(frozen=True, order=True)
class ClassItem:
    class_name: str

    def __str__(self) -> str:
        return f"[{self.class_name}]"


@dataclass(frozen=True, order=True)
class InterfaceItem:
    interface_name: str

    def __str__(self) -> str:
        return f"[{self.interface_name}]"


@dataclass(frozen=True, order=True)
class SuperClassItem:
    class_name: str

    def __str__(self) -> str:
        return f"[{self.class_name}<:super]"


@dataclass(frozen=True, order=True)
class ImplementsItem:
    class_name: str
    interface_name: str

    def __str__(self) -> str:
        return f"[{self.class_name}<{self.interface_name}]"


@dataclass(frozen=True, order=True)
class MethodItem:
    class_name: str
    method_name: str
    descriptor: str

    def __str__(self) -> str:
        return f"[{self.class_name}.{self.method_name}{self.descriptor}]"


@dataclass(frozen=True, order=True)
class CodeItem:
    class_name: str
    method_name: str
    descriptor: str

    def __str__(self) -> str:
        return (
            f"[{self.class_name}.{self.method_name}{self.descriptor}!code]"
        )


@dataclass(frozen=True, order=True)
class ConstructorItem:
    class_name: str
    descriptor: str

    def __str__(self) -> str:
        return f"[{self.class_name}.<init>{self.descriptor}]"


@dataclass(frozen=True, order=True)
class ConstructorCodeItem:
    class_name: str
    descriptor: str

    def __str__(self) -> str:
        return f"[{self.class_name}.<init>{self.descriptor}!code]"


@dataclass(frozen=True, order=True)
class FieldItem:
    class_name: str
    field_name: str

    def __str__(self) -> str:
        return f"[{self.class_name}.{self.field_name}]"


@dataclass(frozen=True, order=True)
class SignatureItem:
    """An abstract method on a class or a method on an interface."""

    class_name: str
    method_name: str
    descriptor: str

    def __str__(self) -> str:
        return f"[{self.class_name}:{self.method_name}{self.descriptor}]"


@dataclass(frozen=True, order=True)
class AttributeItem:
    class_name: str
    attribute_name: str

    def __str__(self) -> str:
        return f"[{self.class_name}!{self.attribute_name}]"


Item = Union[
    ClassItem,
    InterfaceItem,
    SuperClassItem,
    ImplementsItem,
    MethodItem,
    CodeItem,
    ConstructorItem,
    ConstructorCodeItem,
    FieldItem,
    SignatureItem,
    AttributeItem,
]

ITEM_KINDS = (
    ClassItem,
    InterfaceItem,
    SuperClassItem,
    ImplementsItem,
    MethodItem,
    CodeItem,
    ConstructorItem,
    ConstructorCodeItem,
    FieldItem,
    SignatureItem,
    AttributeItem,
)


def class_root(decl) -> Union[ClassItem, InterfaceItem]:
    """The item that keeps or drops a whole class declaration."""
    if decl.is_interface:
        return InterfaceItem(decl.name)
    return ClassItem(decl.name)


def items_of_class(decl) -> List[Item]:
    """The reducible items owned by one class declaration, in order."""
    from repro.bytecode.classfile import JAVA_OBJECT

    out: List[Item] = []
    if decl.is_interface:
        out.append(InterfaceItem(decl.name))
    else:
        out.append(ClassItem(decl.name))
        if decl.superclass != JAVA_OBJECT:
            out.append(SuperClassItem(decl.name))
    for iface in decl.interfaces:
        out.append(ImplementsItem(decl.name, iface))
    for attribute in decl.attributes:
        out.append(AttributeItem(decl.name, attribute.name))
    for fdecl in decl.fields:
        out.append(FieldItem(decl.name, fdecl.name))
    for method in decl.methods:
        if method.is_constructor:
            out.append(ConstructorItem(decl.name, method.descriptor))
            if method.code is not None:
                out.append(
                    ConstructorCodeItem(decl.name, method.descriptor)
                )
        elif method.is_abstract or decl.is_interface:
            out.append(
                SignatureItem(decl.name, method.name, method.descriptor)
            )
        else:
            out.append(
                MethodItem(decl.name, method.name, method.descriptor)
            )
            if method.code is not None:
                out.append(
                    CodeItem(decl.name, method.name, method.descriptor)
                )
    return out


def items_of(app) -> List[Item]:
    """All reducible items of an application, in declaration order.

    Declaration order doubles as the default variable order ``<``.
    """
    out: List[Item] = []
    for decl in app.classes:
        out.extend(items_of_class(decl))
    return out


def items_by_class(app):
    """``{class name: frozenset of its items}`` for every declared class.

    Every item kind names the class that owns it, so an application's
    item set partitions cleanly by class — the key fact behind the
    per-class materialization and serialization memos: intersecting a
    probe's kept-item set with one class's partition yields a key that
    changes only when *that class's* survivors change.
    """
    return {
        decl.name: frozenset(items_of_class(decl)) for decl in app.classes
    }
