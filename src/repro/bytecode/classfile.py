"""Class files and applications.

A :class:`ClassFile` models one ``.class``: name, access flags,
superclass, implemented interfaces, fields, methods (with optional
:class:`Code`), and class-level attributes.  Interfaces are class files
with ``is_interface`` set, exactly as on the JVM.

An :class:`Application` is a closed set of class files plus an entry
point — the unit the decompilers consume and the reducer shrinks.
``Object`` and a tiny built-in library (``String``) are implicit and
never part of the reducible surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.bytecode.descriptors import (
    parse_field_descriptor,
    parse_method_descriptor,
)
from repro.bytecode.instructions import Instruction

__all__ = [
    "JAVA_OBJECT",
    "JAVA_STRING",
    "BUILTIN_CLASSES",
    "INIT",
    "Code",
    "MethodDef",
    "Field",
    "Attribute",
    "ClassFile",
    "Application",
]

JAVA_OBJECT = "java/lang/Object"
JAVA_STRING = "java/lang/String"
BUILTIN_CLASSES = frozenset({JAVA_OBJECT, JAVA_STRING})

INIT = "<init>"


@dataclass(frozen=True)
class Code:
    """A method body: stack/locals budget plus the instruction list."""

    max_stack: int
    max_locals: int
    instructions: Tuple[Instruction, ...]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass(frozen=True)
class MethodDef:
    """A method (or constructor when ``name == '<init>'``)."""

    name: str
    descriptor: str
    is_static: bool = False
    is_abstract: bool = False
    code: Optional[Code] = None

    def __post_init__(self) -> None:
        parse_method_descriptor(self.descriptor)  # validate eagerly
        if self.is_abstract and self.code is not None:
            raise ValueError(f"abstract method {self.name} has code")

    @property
    def is_constructor(self) -> bool:
        return self.name == INIT

    @property
    def key(self) -> Tuple[str, str]:
        """(name, descriptor) — the JVM method identity within a class."""
        return (self.name, self.descriptor)


@dataclass(frozen=True)
class Field:
    """A field declaration."""

    name: str
    descriptor: str
    is_static: bool = False

    def __post_init__(self) -> None:
        parse_field_descriptor(self.descriptor)


@dataclass(frozen=True)
class Attribute:
    """A class-level attribute (SourceFile, Deprecated, ...).

    Attributes are the 11th reducible item kind: removable metadata that
    contributes bytes but no semantics.
    """

    name: str
    payload: str = ""


@dataclass(frozen=True)
class ClassFile:
    """One class or interface."""

    name: str
    superclass: str = JAVA_OBJECT
    interfaces: Tuple[str, ...] = ()
    is_interface: bool = False
    is_abstract: bool = False
    fields: Tuple[Field, ...] = ()
    methods: Tuple[MethodDef, ...] = ()
    attributes: Tuple[Attribute, ...] = ()

    def __post_init__(self) -> None:
        if self.is_interface and self.superclass != JAVA_OBJECT:
            raise ValueError(
                f"interface {self.name} must extend {JAVA_OBJECT}"
            )
        keys = [m.key for m in self.methods]
        if len(keys) != len(set(keys)):
            raise ValueError(f"class {self.name}: duplicate method keys")
        field_names = [f.name for f in self.fields]
        if len(field_names) != len(set(field_names)):
            raise ValueError(f"class {self.name}: duplicate field names")

    def method(self, name: str, descriptor: str) -> Optional[MethodDef]:
        for method in self.methods:
            if method.name == name and method.descriptor == descriptor:
                return method
        return None

    def field(self, name: str) -> Optional[Field]:
        for fdecl in self.fields:
            if fdecl.name == name:
                return fdecl
        return None

    def constructors(self) -> Tuple[MethodDef, ...]:
        return tuple(m for m in self.methods if m.is_constructor)

    def declared_methods(self) -> Tuple[MethodDef, ...]:
        return tuple(m for m in self.methods if not m.is_constructor)


@dataclass(frozen=True)
class Application:
    """A closed program: class files plus the entry point."""

    classes: Tuple[ClassFile, ...]
    entry_class: str = ""
    entry_method: str = "main"
    entry_descriptor: str = "()V"

    def __post_init__(self) -> None:
        names = [c.name for c in self.classes]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"duplicate classes: {sorted(duplicates)}")
        clash = set(names) & BUILTIN_CLASSES
        if clash:
            raise ValueError(f"classes shadow builtins: {sorted(clash)}")

    def class_file(self, name: str) -> Optional[ClassFile]:
        return self._table().get(name)

    def has_class(self, name: str) -> bool:
        return name in self._table() or name in BUILTIN_CLASSES

    def class_names(self) -> List[str]:
        return [c.name for c in self.classes]

    def replace_classes(
        self, classes: Tuple[ClassFile, ...]
    ) -> "Application":
        return replace(self, classes=classes)

    def __len__(self) -> int:
        return len(self.classes)

    def _table(self) -> Dict[str, ClassFile]:
        table = getattr(self, "_table_cache", None)
        if table is None:
            table = {c.name: c for c in self.classes}
            object.__setattr__(self, "_table_cache", table)
        return table
