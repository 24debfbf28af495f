"""A deterministic binary format for applications.

The evaluation's headline metric is "final relative size (bytes)".  To
keep that metric honest our applications serialize to a compact binary
format in the style of real class files — magic, version, a shared
constant pool, then per-class structures — and the measured size is the
length of these bytes.  :func:`deserialize_application` inverts
:func:`serialize_application` exactly (round-trip property tested).
"""

from __future__ import annotations

import functools
import struct
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Sequence,
    Set,
    Tuple,
)

from repro.bytecode.classfile import (
    Application,
    Attribute,
    ClassFile,
    Code,
    Field,
    JAVA_OBJECT,
    MethodDef,
)
from repro.bytecode.constant_pool import ConstantPool
from repro.bytecode.instructions import (
    CheckCast,
    ConstInt,
    ConstNull,
    Dup,
    Goto,
    IfEq,
    InstanceOf,
    Instruction,
    InvokeInterface,
    InvokeSpecial,
    InvokeStatic,
    InvokeVirtual,
    GetField,
    GetStatic,
    Load,
    LoadClassConstant,
    New,
    Pop,
    PutField,
    PutStatic,
    Return,
    Store,
)

__all__ = [
    "serialize_application",
    "deserialize_application",
    "ApplicationSerializer",
    "FormatError",
]

MAGIC = b"RJBC"
VERSION = 1

_FLAG_INTERFACE = 0x01
_FLAG_ABSTRACT = 0x02
_FLAG_STATIC = 0x01
_FLAG_METHOD_ABSTRACT = 0x02

_RETURN_KINDS = ("void", "reference", "int")


class FormatError(ValueError):
    """Malformed serialized data."""


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_I32 = struct.Struct(">i")
_U16X2 = struct.Struct(">HH")
_U16X3 = struct.Struct(">HHH")
#: Two pool references and a flags byte: a class's, field's or
#: method's name, its superclass or descriptor, and its flags.
_NAMED = struct.Struct(">HHB")


def serialize_application(app: Application) -> bytes:
    """Serialize the application to deterministic bytes.

    Strings enter the constant pool in the order the classes use them;
    the pool is written ahead of the classes that reference it.
    """
    pool = ConstantPool()
    body = bytearray()
    _write_members(body, app.classes, _write_class, pool)
    body += _U16X3.pack(
        pool.add(app.entry_class),
        pool.add(app.entry_method),
        pool.add(app.entry_descriptor),
    )

    out = bytearray(MAGIC)
    out += _U16.pack(VERSION)
    out += _U16.pack(len(pool))
    for entry in pool:
        data = entry.encode("utf-8")
        out += _U16.pack(len(data))
        out += data
    out += body
    return bytes(out)


def _write_class(out: bytearray, decl: ClassFile, pool: ConstantPool) -> None:
    flags = (_FLAG_INTERFACE if decl.is_interface else 0) | (
        _FLAG_ABSTRACT if decl.is_abstract else 0
    )
    out += _NAMED.pack(pool.add(decl.name), pool.add(decl.superclass), flags)
    _write_members(out, decl.interfaces, _write_interface, pool)
    _write_members(out, decl.fields, _write_field, pool)
    _write_members(out, decl.methods, _write_method, pool)
    _write_members(out, decl.attributes, _write_attribute, pool)


def _write_members(
    out: bytearray, members: Sequence, write, pool: ConstantPool
) -> None:
    out += _U16.pack(len(members))
    for member in members:
        write(out, member, pool)


def _write_interface(out: bytearray, iface: str, pool: ConstantPool) -> None:
    out += _U16.pack(pool.add(iface))


def _write_field(out: bytearray, fdecl: Field, pool: ConstantPool) -> None:
    out += _NAMED.pack(
        pool.add(fdecl.name),
        pool.add(fdecl.descriptor),
        _FLAG_STATIC if fdecl.is_static else 0,
    )


def _write_method(
    out: bytearray, method: MethodDef, pool: ConstantPool
) -> None:
    flags = (_FLAG_STATIC if method.is_static else 0) | (
        _FLAG_METHOD_ABSTRACT if method.is_abstract else 0
    )
    out += _NAMED.pack(
        pool.add(method.name), pool.add(method.descriptor), flags
    )
    if method.code is None:
        out += _U8.pack(0)
    else:
        out += _U8.pack(1)
        _write_code(out, method.code, pool)


def _write_attribute(
    out: bytearray, attribute: Attribute, pool: ConstantPool
) -> None:
    out += _U16X2.pack(pool.add(attribute.name), pool.add(attribute.payload))


def _write_code(out: bytearray, code: Code, pool: ConstantPool) -> None:
    out += _U16X3.pack(code.max_stack, code.max_locals, len(code))
    for instruction in code:
        _write_instruction(out, instruction, pool)


def _write_instruction(
    out: bytearray, instruction: Instruction, pool: ConstantPool
) -> None:
    write_operands = _OPERAND_WRITERS.get(type(instruction))
    if write_operands is None:
        raise FormatError(f"cannot serialize {instruction!r}")
    out += _U8.pack(instruction.opcode)
    write_operands(out, instruction, pool)


def _write_slot(out: bytearray, instruction, pool: ConstantPool) -> None:
    out += _U16.pack(instruction.slot)


def _write_int(out: bytearray, instruction, pool: ConstantPool) -> None:
    out += _I32.pack(instruction.value)


def _write_nothing(out: bytearray, instruction, pool: ConstantPool) -> None:
    pass


def _write_class_ref(out: bytearray, instruction, pool: ConstantPool) -> None:
    out += _U16.pack(pool.add(instruction.class_name))


def _write_cast(out: bytearray, instruction, pool: ConstantPool) -> None:
    out += _U16.pack(pool.add(instruction.class_name))
    if instruction.known_from is None:
        out += _U16.pack(0)
    else:
        out += _U16.pack(pool.add(instruction.known_from))


def _write_member_ref(
    out: bytearray, instruction, pool: ConstantPool
) -> None:
    out += _U16X3.pack(
        pool.add(instruction.owner),
        pool.add(instruction.name),
        pool.add(instruction.descriptor),
    )


def _write_special(out: bytearray, instruction, pool: ConstantPool) -> None:
    _write_member_ref(out, instruction, pool)
    out += _U8.pack(1 if instruction.is_super_call else 0)


def _write_return(out: bytearray, instruction, pool: ConstantPool) -> None:
    out += _U8.pack(_RETURN_KINDS.index(instruction.kind))


def _write_target(out: bytearray, instruction, pool: ConstantPool) -> None:
    out += _U16.pack(instruction.target)


#: Each instruction type's operands, after its one-byte opcode.
_OPERAND_WRITERS = {
    Load: _write_slot,
    Store: _write_slot,
    ConstInt: _write_int,
    ConstNull: _write_nothing,
    Dup: _write_nothing,
    Pop: _write_nothing,
    New: _write_class_ref,
    InstanceOf: _write_class_ref,
    LoadClassConstant: _write_class_ref,
    CheckCast: _write_cast,
    InvokeVirtual: _write_member_ref,
    InvokeStatic: _write_member_ref,
    InvokeInterface: _write_member_ref,
    InvokeSpecial: _write_special,
    GetField: _write_member_ref,
    PutField: _write_member_ref,
    GetStatic: _write_member_ref,
    PutStatic: _write_member_ref,
    Return: _write_return,
    Goto: _write_target,
    IfEq: _write_target,
}


# ---------------------------------------------------------------------------
# Sizes of reductions (probe fast path)
# ---------------------------------------------------------------------------

#: Magic, version, pool count, class count and the entry triple: the
#: bytes of a serialization besides its pool entries and its classes.
_APP_FIXED_BYTES = len(MAGIC) + 2 + 2 + 2 + 6

#: A part of a serialization: its byte length and the pool strings it
#: references.
_Part = Tuple[int, FrozenSet[str]]


class _StringRecorder:
    """A constant pool stand-in for measuring: it records the strings
    written through it and answers index 0 for each.  Every pool
    reference in the format is a fixed-width ``>H``, so what a writer
    emits has the same length whatever the indexes are."""

    __slots__ = ("strings",)

    def __init__(self) -> None:
        self.strings: Set[str] = set()

    def add(self, text: str) -> int:
        self.strings.add(text)
        return 0


def _part(write, value) -> _Part:
    """What ``write`` emits for ``value``: its length and its strings."""
    out = bytearray()
    recorder = _StringRecorder()
    write(out, value, recorder)
    return len(out), frozenset(recorder.strings)


#: A class without members: name, superclass, flags and four counts.
_CLASS_HEADER_BYTES = _part(_write_class, ClassFile(name="-"))[0]


class ApplicationSerializer:
    """Sizes of one base application's reductions, summed from parts.

    A serialization is a fixed frame, a pool of distinct strings, and
    its classes; a class is a fixed header plus one run of bytes per
    member, and every pool reference is a fixed-width ``>H``.  So the
    length of ``serialize_application(reduce_application(app, kept))``
    is the frame, plus ``2 + len(utf8)`` per distinct string, plus the
    byte lengths of the kept parts.  The parts are measured once per
    serializer with the writer :func:`serialize_application` uses, on
    first use:

    - per class, the header with the class's name and its superclass,
      or ``java/lang/Object`` when the class's ``SuperClassItem`` is
      not kept,
    - one part per interface, attribute and field,
    - each method twice: with its own code and as
      :func:`~repro.bytecode.reducer.trivial_method` (what the
      reduction keeps without its code item).

    :meth:`size_of_items` (GBR and the lossy strategies) and
    :meth:`size_of_classes` (the jreduce baseline, whole classes) then
    cost time linear in the kept items or classes: no class is reduced
    or written per call.  Both are property-tested against
    ``len(serialize_application(...))`` of the reduced application.

    Thread-safety: the parts are built once; threads that race on the
    first call build equal values.  No lock sits on the hot path.
    """

    def __init__(self, app: Application) -> None:
        self.app = app
        self._entry = (
            app.entry_class,
            app.entry_method,
            app.entry_descriptor,
        )
        self._pool_bytes: Dict[str, int] = {}

    # -- item granularity ---------------------------------------------

    def size_of_items(self, true_items: AbstractSet) -> int:
        """The length of ``serialize_application(reduce_application(app,
        true_items))``."""
        parts = self._item_parts
        kept: List[_Part] = []
        for item in true_items:
            found = parts.get(item)
            if found is None:
                continue  # a switch, or not an item of this application
            root, switch, on, off = found
            if root not in true_items:
                continue
            kept.append(on if switch is None or switch in true_items else off)
        return self._measure(kept)

    @functools.cached_property
    def _item_parts(self) -> Dict[Any, Tuple[Any, Any, _Part, _Part]]:
        """``{item: (class root, switch, part, part without switch)}``.

        An item's part counts when its class's root item is kept; it is
        the first part when ``switch`` is None or kept, else the second.
        Switches (``SuperClassItem``, code items) have no part of their
        own, so a code item without its method adds nothing.
        """
        from repro.bytecode.items import (
            AttributeItem,
            CodeItem,
            ConstructorCodeItem,
            ConstructorItem,
            FieldItem,
            ImplementsItem,
            MethodItem,
            SignatureItem,
            SuperClassItem,
            class_root,
        )
        from repro.bytecode.reducer import trivial_method

        parts: Dict[Any, Tuple[Any, Any, _Part, _Part]] = {}

        def add(item, root, part: _Part) -> None:
            # Repeated interfaces or attribute names share one item.
            if item in parts:
                length, strings = parts[item][2]
                part = (length + part[0], strings | part[1])
            parts[item] = (root, None, part, part)

        for decl in self.app.classes:
            name = decl.name
            root = class_root(decl)
            header = (_CLASS_HEADER_BYTES, frozenset((name, decl.superclass)))
            if decl.superclass == JAVA_OBJECT:
                parts[root] = (root, None, header, header)
            else:
                parts[root] = (
                    root,
                    SuperClassItem(name),
                    header,
                    (_CLASS_HEADER_BYTES, frozenset((name, JAVA_OBJECT))),
                )
            for iface in decl.interfaces:
                add(
                    ImplementsItem(name, iface),
                    root,
                    _part(_write_interface, iface),
                )
            for attribute in decl.attributes:
                add(
                    AttributeItem(name, attribute.name),
                    root,
                    _part(_write_attribute, attribute),
                )
            for fdecl in decl.fields:
                add(
                    FieldItem(name, fdecl.name),
                    root,
                    _part(_write_field, fdecl),
                )
            for method in decl.methods:
                if method.is_constructor:
                    item = ConstructorItem(name, method.descriptor)
                    code = ConstructorCodeItem(name, method.descriptor)
                elif method.is_abstract or decl.is_interface:
                    add(
                        SignatureItem(name, method.name, method.descriptor),
                        root,
                        _part(_write_method, method),
                    )
                    continue
                else:
                    item = MethodItem(name, method.name, method.descriptor)
                    code = CodeItem(name, method.name, method.descriptor)
                trivial = _part(
                    _write_method, trivial_method(name, method)
                )
                if method.code is None:
                    parts[item] = (root, None, trivial, trivial)
                else:
                    own = _part(_write_method, method)
                    parts[item] = (root, code, own, trivial)
        return parts

    # -- class granularity (jreduce) ----------------------------------

    def size_of_classes(self, kept_names: Iterable[str]) -> int:
        """The length of ``serialize_application(app.replace_classes(
        kept))``, where ``kept`` are the classes named in ``kept_names``."""
        parts = self._class_parts
        return self._measure(
            [parts[name] for name in set(kept_names) if name in parts]
        )

    @functools.cached_property
    def _class_parts(self) -> Dict[str, _Part]:
        return {
            decl.name: _part(_write_class, decl)
            for decl in self.app.classes
        }

    # -- measuring -----------------------------------------------------

    def _measure(self, parts: Iterable[_Part]) -> int:
        size = _APP_FIXED_BYTES
        strings = set(self._entry)
        for length, texts in parts:
            size += length
            strings.update(texts)
        pool_bytes = self._pool_bytes
        for text in strings:
            entry = pool_bytes.get(text)
            if entry is None:
                entry = pool_bytes[text] = 2 + len(text.encode("utf-8"))
            size += entry
        return size


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise FormatError("truncated data")
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return values if len(values) > 1 else values[0]

    def take_bytes(self, size: int) -> bytes:
        if self.pos + size > len(self.data):
            raise FormatError("truncated data")
        chunk = self.data[self.pos : self.pos + size]
        self.pos += size
        return chunk


def deserialize_application(data: bytes) -> Application:
    """Inverse of :func:`serialize_application`."""
    reader = _Reader(data)
    if reader.take_bytes(4) != MAGIC:
        raise FormatError("bad magic")
    version = reader.take(">H")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")

    pool = ConstantPool()
    for _ in range(reader.take(">H")):
        length = reader.take(">H")
        pool.add(reader.take_bytes(length).decode("utf-8"))

    classes = tuple(
        _read_class(reader, pool) for _ in range(reader.take(">H"))
    )
    entry_class_idx, entry_method_idx, entry_desc_idx = reader.take(">HHH")
    if reader.pos != len(data):
        raise FormatError("trailing bytes")
    return Application(
        classes=classes,
        entry_class=pool.get(entry_class_idx),
        entry_method=pool.get(entry_method_idx),
        entry_descriptor=pool.get(entry_desc_idx),
    )


def _read_class(reader: _Reader, pool: ConstantPool) -> ClassFile:
    name_idx, super_idx, flags = reader.take(">HHB")
    interfaces = tuple(
        pool.get(reader.take(">H")) for _ in range(reader.take(">H"))
    )
    fields = []
    for _ in range(reader.take(">H")):
        fname_idx, fdesc_idx, fflags = reader.take(">HHB")
        fields.append(
            Field(
                name=pool.get(fname_idx),
                descriptor=pool.get(fdesc_idx),
                is_static=bool(fflags & _FLAG_STATIC),
            )
        )
    methods = []
    for _ in range(reader.take(">H")):
        mname_idx, mdesc_idx, mflags = reader.take(">HHB")
        has_code = reader.take(">B")
        code = _read_code(reader, pool) if has_code else None
        methods.append(
            MethodDef(
                name=pool.get(mname_idx),
                descriptor=pool.get(mdesc_idx),
                is_static=bool(mflags & _FLAG_STATIC),
                is_abstract=bool(mflags & _FLAG_METHOD_ABSTRACT),
                code=code,
            )
        )
    attributes = []
    for _ in range(reader.take(">H")):
        aname_idx, apayload_idx = reader.take(">HH")
        attributes.append(
            Attribute(
                name=pool.get(aname_idx), payload=pool.get(apayload_idx)
            )
        )
    return ClassFile(
        name=pool.get(name_idx),
        superclass=pool.get(super_idx),
        interfaces=interfaces,
        is_interface=bool(flags & _FLAG_INTERFACE),
        is_abstract=bool(flags & _FLAG_ABSTRACT),
        fields=tuple(fields),
        methods=tuple(methods),
        attributes=tuple(attributes),
    )


def _read_code(reader: _Reader, pool: ConstantPool) -> Code:
    max_stack, max_locals, count = reader.take(">HHH")
    instructions = tuple(
        _read_instruction(reader, pool) for _ in range(count)
    )
    return Code(
        max_stack=max_stack, max_locals=max_locals, instructions=instructions
    )


def _read_instruction(reader: _Reader, pool: ConstantPool) -> Instruction:
    opcode = reader.take(">B")
    if opcode == Load.opcode:
        return Load(reader.take(">H"))
    if opcode == Store.opcode:
        return Store(reader.take(">H"))
    if opcode == ConstInt.opcode:
        return ConstInt(reader.take(">i"))
    if opcode == ConstNull.opcode:
        return ConstNull()
    if opcode == Dup.opcode:
        return Dup()
    if opcode == Pop.opcode:
        return Pop()
    if opcode == New.opcode:
        return New(pool.get(reader.take(">H")))
    if opcode == InstanceOf.opcode:
        return InstanceOf(pool.get(reader.take(">H")))
    if opcode == LoadClassConstant.opcode:
        return LoadClassConstant(pool.get(reader.take(">H")))
    if opcode == CheckCast.opcode:
        class_idx, from_idx = reader.take(">HH")
        known_from = pool.get(from_idx) if from_idx else None
        return CheckCast(pool.get(class_idx), known_from)
    if opcode in (
        InvokeVirtual.opcode,
        InvokeStatic.opcode,
        InvokeInterface.opcode,
    ):
        owner_idx, name_idx, desc_idx = reader.take(">HHH")
        cls = {
            InvokeVirtual.opcode: InvokeVirtual,
            InvokeStatic.opcode: InvokeStatic,
            InvokeInterface.opcode: InvokeInterface,
        }[opcode]
        return cls(
            pool.get(owner_idx), pool.get(name_idx), pool.get(desc_idx)
        )
    if opcode == InvokeSpecial.opcode:
        owner_idx, name_idx, desc_idx = reader.take(">HHH")
        is_super = bool(reader.take(">B"))
        return InvokeSpecial(
            pool.get(owner_idx),
            pool.get(name_idx),
            pool.get(desc_idx),
            is_super_call=is_super,
        )
    if opcode in (
        GetField.opcode,
        PutField.opcode,
        GetStatic.opcode,
        PutStatic.opcode,
    ):
        owner_idx, name_idx, desc_idx = reader.take(">HHH")
        cls = {
            GetField.opcode: GetField,
            PutField.opcode: PutField,
            GetStatic.opcode: GetStatic,
            PutStatic.opcode: PutStatic,
        }[opcode]
        return cls(
            pool.get(owner_idx), pool.get(name_idx), pool.get(desc_idx)
        )
    if opcode == Return.opcode:
        return Return(_RETURN_KINDS[reader.take(">B")])
    if opcode == Goto.opcode:
        return Goto(reader.take(">H"))
    if opcode == IfEq.opcode:
        return IfEq(reader.take(">H"))
    raise FormatError(f"unknown opcode 0x{opcode:02X}")
