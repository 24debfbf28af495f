"""Applying a truth assignment to an application.

The bytecode analogue of Figure 5's ``reduce(P, phi)``:

- classes/interfaces without their item are dropped wholesale,
- a removed extends relation rewrites the superclass to
  ``java/lang/Object``,
- removed implements entries, attributes, and fields are dropped,
- a method whose item survives but whose code item does not gets the
  *trivial body*: load its own arguments and tail-call itself (the
  infinite-recursion trick of Figure 5, which is type-correct at any
  return type and references nothing outside the method),
- constructors get the same treatment (``this(...)`` recursion),
- abstract/interface methods without code are kept or dropped on their
  signature item alone.
"""

from __future__ import annotations

import functools
from typing import AbstractSet, FrozenSet, List, Optional, Tuple

from repro.bytecode.classfile import (
    Application,
    ClassFile,
    Code,
    Field,
    INIT,
    JAVA_OBJECT,
    MethodDef,
)
from repro.bytecode.descriptors import (
    ObjectType,
    ArrayType,
    PrimitiveType,
    parse_method_descriptor,
)
from repro.bytecode.instructions import (
    Instruction,
    InvokeSpecial,
    InvokeStatic,
    InvokeVirtual,
    Load,
    Return,
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
    items_by_class,
)
from repro.observability import get_metrics

__all__ = [
    "reduce_application",
    "MaterializationMemo",
    "trivial_code",
    "trivial_method",
]


def reduce_application(
    app: Application, true_items: AbstractSet[Item]
) -> Application:
    """``reduce(app, phi)`` where ``phi``'s true set is ``true_items``."""
    kept: List[ClassFile] = []
    for decl in app.classes:
        if class_root(decl) in true_items:
            kept.append(_reduce_class(decl, true_items))
    return app.replace_classes(tuple(kept))


class MaterializationMemo:
    """Per-class memo for repeated reductions of one base application.

    Consecutive probes of a reduction run keep near-identical item sets
    — a binary-search step toggles one progression entry — yet
    :func:`reduce_application` rebuilds every kept class from scratch on
    each call.  Every item names the class that owns it, so the kept
    set partitions by class, and a class's reduced form depends only on
    the intersection of the kept set with *its own* items.  The memo
    keys each class on that intersection and reuses the reduced
    :class:`ClassFile` object whenever it recurs, which also lets the
    oracle's per-class decompile and compile-check memos key by that
    object's identity (:class:`~repro.decompiler.decompile
    .DecompileMemo`).

    Thread-safety: worker threads evaluating speculative probes share
    one memo.  Entries are pure functions of their key, so concurrent
    duplicate computation is benign (last write wins, same value); no
    lock sits on the hot path.

    Telemetry: ``reducer.memo_hits`` / ``reducer.memo_misses``.
    """

    def __init__(self, app: Application) -> None:
        self.app = app
        self._reduced: dict = {}

    @functools.cached_property
    def _class_items(self):
        # On first use: an oracle that is never probed (a corpus
        # instance's) never partitions its items.  Threads that race
        # here compute equal values.
        return items_by_class(self.app)

    def reduce(self, true_items: AbstractSet[Item]) -> Application:
        """``reduce(app, phi)`` — same result as :func:`reduce_application`."""
        metrics = get_metrics()
        hits = misses = 0
        kept: List[ClassFile] = []
        for decl in self.app.classes:
            relevant = self._class_items[decl.name] & true_items
            if class_root(decl) not in relevant:
                continue
            key = (decl.name, relevant)
            reduced = self._reduced.get(key)
            if reduced is None:
                misses += 1
                reduced = _reduce_class(decl, relevant)
                self._reduced[key] = reduced
            else:
                hits += 1
            kept.append(reduced)
        if hits:
            metrics.counter("reducer.memo_hits").inc(hits)
        if misses:
            metrics.counter("reducer.memo_misses").inc(misses)
        return self.app.replace_classes(tuple(kept))

    def class_items(self, class_names: AbstractSet[str]) -> FrozenSet[Item]:
        """Every item of the named classes: the kept set that keeps
        exactly those classes, whole (J-Reduce's granularity)."""
        return frozenset().union(
            *(
                self._class_items[decl.name]
                for decl in self.app.classes
                if decl.name in class_names
            )
        )


def _reduce_class(
    decl: ClassFile, true_items: AbstractSet[Item]
) -> ClassFile:
    name = decl.name
    superclass = decl.superclass
    if (
        not decl.is_interface
        and superclass != JAVA_OBJECT
        and SuperClassItem(name) not in true_items
    ):
        superclass = JAVA_OBJECT

    interfaces = tuple(
        iface
        for iface in decl.interfaces
        if ImplementsItem(name, iface) in true_items
    )
    attributes = tuple(
        attr
        for attr in decl.attributes
        if AttributeItem(name, attr.name) in true_items
    )
    fields = tuple(
        fdecl
        for fdecl in decl.fields
        if FieldItem(name, fdecl.name) in true_items
    )

    methods: List[MethodDef] = []
    for method in decl.methods:
        reduced = _reduce_method(decl, method, true_items)
        if reduced is not None:
            methods.append(reduced)

    return ClassFile(
        name=name,
        superclass=superclass,
        interfaces=interfaces,
        is_interface=decl.is_interface,
        is_abstract=decl.is_abstract,
        fields=fields,
        methods=tuple(methods),
        attributes=attributes,
    )


def _reduce_method(
    decl: ClassFile, method: MethodDef, true_items: AbstractSet[Item]
) -> Optional[MethodDef]:
    name = decl.name
    if method.is_constructor:
        if ConstructorItem(name, method.descriptor) not in true_items:
            return None
        if (
            method.code is not None
            and ConstructorCodeItem(name, method.descriptor) in true_items
        ):
            return method
        return trivial_method(name, method)

    if method.is_abstract or decl.is_interface:
        keep = SignatureItem(name, method.name, method.descriptor)
        return method if keep in true_items else None

    if MethodItem(name, method.name, method.descriptor) not in true_items:
        return None
    if (
        method.code is not None
        and CodeItem(name, method.name, method.descriptor) in true_items
    ):
        return method
    return trivial_method(name, method)


def trivial_method(class_name: str, method: MethodDef) -> MethodDef:
    """``method`` as the reduction keeps it without its code item: the
    same signature (a constructor is never static) around
    :func:`trivial_code`."""
    return MethodDef(
        name=method.name,
        descriptor=method.descriptor,
        is_static=method.is_static and not method.is_constructor,
        code=trivial_code(class_name, method),
    )


def trivial_code(class_name: str, method: MethodDef) -> Code:
    """The self-recursive replacement body.

    Loads the receiver (unless static) and every argument, re-invokes the
    method itself, and returns its result — the bytecode rendering of
    Figure 5's ``return this.m(x);``.
    """
    descriptor = parse_method_descriptor(method.descriptor)
    instructions: List[Instruction] = []
    slot = 0
    if not method.is_static:
        instructions.append(Load(0))
        slot = 1
    for _param in descriptor.parameters:
        instructions.append(Load(slot))
        slot += 1

    if method.is_constructor:
        instructions.append(
            InvokeSpecial(class_name, INIT, method.descriptor)
        )
    elif method.is_static:
        instructions.append(
            InvokeStatic(class_name, method.name, method.descriptor)
        )
    else:
        instructions.append(
            InvokeVirtual(class_name, method.name, method.descriptor)
        )

    instructions.append(Return(_return_kind(descriptor.return_type)))
    return Code(
        max_stack=max(slot, 1),
        max_locals=max(slot, 1),
        instructions=tuple(instructions),
    )


def _return_kind(return_type) -> str:
    if return_type == PrimitiveType.VOID:
        return "void"
    if isinstance(return_type, (ObjectType, ArrayType)):
        return "reference"
    return "int"
