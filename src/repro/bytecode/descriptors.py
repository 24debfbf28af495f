"""JVM-style type descriptors.

Field descriptors: ``I`` (int), ``J`` (long), ``Z`` (boolean), ``V``
(void, method returns only), ``LFoo;`` (object), ``[LFoo;`` (array).
Method descriptors: ``(LA;I)LB;``.

The reducer only cares about which *class names* a descriptor mentions
(:func:`referenced_classes`), but parsing/formatting real descriptor
syntax keeps the substrate honest and exercises the same code paths a
real class-file library would.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Tuple, Union

__all__ = [
    "PrimitiveType",
    "ObjectType",
    "ArrayType",
    "JvmType",
    "MethodDescriptor",
    "parse_field_descriptor",
    "parse_method_descriptor",
    "DescriptorError",
]


class DescriptorError(ValueError):
    """Malformed descriptor text."""


class PrimitiveType(enum.Enum):
    """JVM primitive (and void) descriptors."""

    INT = "I"
    LONG = "J"
    FLOAT = "F"
    DOUBLE = "D"
    BOOLEAN = "Z"
    BYTE = "B"
    CHAR = "C"
    SHORT = "S"
    VOID = "V"

    def descriptor(self) -> str:
        return self.value

    def referenced_classes(self) -> FrozenSet[str]:
        return frozenset()

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class ObjectType:
    """``LFoo;`` — a reference to class or interface ``Foo``."""

    class_name: str

    def descriptor(self) -> str:
        return f"L{self.class_name};"

    def referenced_classes(self) -> FrozenSet[str]:
        return frozenset({self.class_name})

    def __str__(self) -> str:
        return self.class_name


@dataclass(frozen=True)
class ArrayType:
    """``[T`` — an array of T."""

    element: "JvmType"

    def descriptor(self) -> str:
        return "[" + self.element.descriptor()

    def referenced_classes(self) -> FrozenSet[str]:
        return self.element.referenced_classes()

    def __str__(self) -> str:
        return f"{self.element}[]"


JvmType = Union[PrimitiveType, ObjectType, ArrayType]


@dataclass(frozen=True)
class MethodDescriptor:
    """``(params)return`` method shape."""

    parameters: Tuple[JvmType, ...]
    return_type: JvmType

    def descriptor(self) -> str:
        params = "".join(p.descriptor() for p in self.parameters)
        return f"({params}){self.return_type.descriptor()}"

    def referenced_classes(self) -> FrozenSet[str]:
        refs = set(self.return_type.referenced_classes())
        for param in self.parameters:
            refs |= param.referenced_classes()
        return frozenset(refs)

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.parameters)
        return f"({params}) -> {self.return_type}"


_PRIMITIVES = {p.value: p for p in PrimitiveType}

#: Entries per parse cache.  Descriptors recur across every probe of a
#: reduction (decompile, javac, materialization), and parsed values are
#: immutable, so they are shared; a malformed descriptor raises on every
#: call (exceptions are not cached).
PARSE_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_field_descriptor(text: str) -> JvmType:
    """Parse a single field descriptor (the whole string)."""
    parsed, rest = _parse_one(text)
    if rest:
        raise DescriptorError(f"trailing characters in descriptor: {text!r}")
    if parsed == PrimitiveType.VOID:
        raise DescriptorError("void is not a field type")
    return parsed


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_method_descriptor(text: str) -> MethodDescriptor:
    """Parse a ``(params)return`` method descriptor."""
    if not text.startswith("("):
        raise DescriptorError(f"method descriptor must start with '(': {text!r}")
    rest = text[1:]
    params: List[JvmType] = []
    while not rest.startswith(")"):
        if not rest:
            raise DescriptorError(f"unterminated parameter list: {text!r}")
        parsed, rest = _parse_one(rest)
        if parsed == PrimitiveType.VOID:
            raise DescriptorError("void is not a parameter type")
        params.append(parsed)
    return_type, trailing = _parse_one(rest[1:])
    if trailing:
        raise DescriptorError(f"trailing characters in descriptor: {text!r}")
    return MethodDescriptor(tuple(params), return_type)


def _parse_one(text: str) -> Tuple[JvmType, str]:
    if not text:
        raise DescriptorError("empty descriptor")
    head = text[0]
    if head in _PRIMITIVES:
        return _PRIMITIVES[head], text[1:]
    if head == "L":
        end = text.find(";")
        if end == -1:
            raise DescriptorError(f"unterminated object type: {text!r}")
        name = text[1:end]
        if not name:
            raise DescriptorError("empty class name in descriptor")
        return ObjectType(name), text[end + 1:]
    if head == "[":
        element, rest = _parse_one(text[1:])
        if element == PrimitiveType.VOID:
            raise DescriptorError("void cannot be an array element")
        return ArrayType(element), rest
    raise DescriptorError(f"unknown descriptor character {head!r}")
