"""Instruction-to-source decompilation (a symbolic stack machine).

Each decompiler walks every method's instruction stream with a symbolic
operand stack, reconstructing declarations, calls, field accesses, and
casts as Java source statements.  On a valid application with no bug
sites the output compiles cleanly under :mod:`repro.decompiler.javac`
(integration-tested); at bug sites (:mod:`repro.decompiler.bugs`) the
translation is deliberately wrong in that decompiler's characteristic
way.

The three shipped decompilers mirror the paper's three real ones:

========  ==============  =========================================
name      temp style      defects
========  ==============  =========================================
alpha     ``var0, var1``  iface-dispatch, ctor-cache
beta      ``tmp0, tmp1``  field-alias, param-drop
gamma     ``local0, ...`` reflection, dup-interface
========  ==============  =========================================

:meth:`Decompiler.decompile` works through a :class:`DecompileMemo`,
which reuses bug-site scans and decompiled classes across the probes of
one reduction; a fresh memo decompiles everything once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bytecode.classfile import (
    Application,
    ClassFile,
    INIT,
    JAVA_OBJECT,
    MethodDef,
)
from repro.bytecode.descriptors import (
    ArrayType,
    ObjectType,
    PrimitiveType,
    parse_field_descriptor,
    parse_method_descriptor,
)
from repro.bytecode.instructions import (
    CheckCast,
    ConstInt,
    ConstNull,
    Dup,
    GetField,
    GetStatic,
    Goto,
    IfEq,
    InstanceOf,
    Instruction,
    InvokeInterface,
    InvokeSpecial,
    InvokeStatic,
    InvokeVirtual,
    Load,
    LoadClassConstant,
    New,
    Pop,
    PutField,
    PutStatic,
    Return,
    Store,
)
from repro.decompiler.bugs import BugSite, sites_for
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
    SourceField,
    SourceMethod,
    Statement,
    StaticCallExpr,
    SuperCallStmt,
    ThisCallStmt,
    VarRef,
)
from repro.observability import get_metrics

__all__ = ["Decompiler", "DecompileMemo", "DECOMPILERS", "get_decompiler"]


class DecompileMemo:
    """Per-oracle memo of one decompiler's per-class work.

    Consecutive probes of a reduction run keep almost the same classes,
    and :class:`~repro.bytecode.reducer.MaterializationMemo` hands back
    the *same* reduced :class:`ClassFile` object whenever a class's kept
    items recur.  Both tables key by that object's identity:

    - ``sites`` — ``id(decl) -> (decl, scans)``: every bug kind's scan
      of the class (see :func:`~repro.decompiler.bugs.sites_for`);
    - ``classes`` — ``(id(decl), class sites) -> (decl, SourceClass)``:
      the decompiled class.  :meth:`Decompiler._decompile_class` reads
      only ``decl``, its sites and the decompiler's fixed style, so the
      entry is a pure function of its key.

    Every entry keeps its ``ClassFile`` alive and a hit requires
    ``entry[0] is decl``, so a reused ``id`` is never served.  One memo
    serves one decompiler.  Threads evaluating speculative probes share
    it without a lock, as they share the materialization memo: a
    duplicate computation stores the same value.

    Telemetry: ``decompile.memo_hits`` / ``decompile.memo_misses`` count
    the classes of every decompile, with whatever memo it ran on: a
    class served from the memo is a hit, any other a miss.  A full
    application's check (``DecompilerOracle.errors_of``) runs on a
    fresh memo, so all its classes are misses.
    """

    __slots__ = ("sites", "classes")

    def __init__(self) -> None:
        self.sites: Dict[int, Tuple[ClassFile, Tuple[list, ...]]] = {}
        self.classes: Dict[
            Tuple[int, Tuple[BugSite, ...]], Tuple[ClassFile, SourceClass]
        ] = {}


@dataclass(frozen=True)
class Decompiler:
    """One decompiler: a style plus its characteristic defects.

    ``bug_scale`` multiplies every defect's hash selectivity: 1.0 is the
    shipped rarity, 0 makes every pattern occurrence a site (tests).
    """

    name: str
    temp_prefix: str
    bug_ids: Tuple[str, ...]
    bug_scale: float = 1.0

    def decompile(
        self, app: Application, memo: DecompileMemo
    ) -> List[SourceClass]:
        """Decompile every class of the application.

        ``memo`` reuses bug-site scans and decompiled classes across
        calls on reductions of one application (see
        :class:`DecompileMemo`); the output does not depend on what it
        already holds.
        """
        by_class: Dict[str, List[BugSite]] = {}
        for site in sites_for(app, self.bug_ids, self.bug_scale, memo.sites):
            by_class.setdefault(site.class_name, []).append(site)
        out: List[SourceClass] = []
        misses = 0
        for decl in app.classes:
            sites = tuple(by_class.get(decl.name, ()))
            key = (id(decl), sites)
            entry = memo.classes.get(key)
            if entry is None or entry[0] is not decl:
                misses += 1
                entry = (decl, self._decompile_class(decl, sites))
                memo.classes[key] = entry
            out.append(entry[1])
        metrics = get_metrics()
        if len(out) > misses:
            metrics.counter("decompile.memo_hits").inc(len(out) - misses)
        if misses:
            metrics.counter("decompile.memo_misses").inc(misses)
        return out

    # ------------------------------------------------------------------

    def _decompile_class(
        self, decl: ClassFile, sites: Sequence[BugSite]
    ) -> SourceClass:
        by_method: Dict[Optional[Tuple[str, str]], List[BugSite]] = {}
        for site in sites:
            by_method.setdefault(site.method_key, []).append(site)
        interfaces = decl.interfaces
        for site in by_method.get(None, ()):
            if site.bug_id == "dup-interface":
                interfaces = (site.detail,) + interfaces

        fields = tuple(
            SourceField(_source_type_text(f.descriptor), f.name)
            for f in decl.fields
        )
        methods: List[SourceMethod] = []
        for method in decl.methods:
            corruptions = by_method.get(method.key, [])
            methods.append(
                self._decompile_method(decl, method, corruptions)
            )
        return SourceClass(
            name=decl.name,
            superclass=decl.superclass,
            interfaces=interfaces,
            is_interface=decl.is_interface,
            is_abstract=decl.is_abstract,
            fields=fields,
            methods=tuple(methods),
        )

    def _decompile_method(
        self,
        decl: ClassFile,
        method: MethodDef,
        corruptions: Sequence[BugSite],
    ) -> SourceMethod:
        descriptor = parse_method_descriptor(method.descriptor)
        params = tuple(
            (_jvm_to_source(t), f"p{i}")
            for i, t in enumerate(descriptor.parameters)
        )
        return_type = _jvm_to_source(descriptor.return_type)
        if method.code is None:
            return SourceMethod(
                name=method.name,
                return_type=return_type,
                params=params,
                statements=(),
                is_static=method.is_static,
                is_abstract=True,
            )
        builder = _BodyBuilder(
            decl, method, self.temp_prefix, corruptions
        )
        statements = builder.run()
        return SourceMethod(
            name=method.name,
            return_type=return_type,
            params=params,
            statements=tuple(statements),
            is_static=method.is_static,
        )


class _NewMarker:
    """Placeholder for an uninitialized ``new X`` on the symbolic stack."""

    __slots__ = ("class_name", "corrupt")

    def __init__(self, class_name: str, corrupt: bool):
        self.class_name = class_name
        self.corrupt = corrupt


class _BodyBuilder:
    """Symbolic execution of one method body."""

    def __init__(
        self,
        decl: ClassFile,
        method: MethodDef,
        temp_prefix: str,
        corruptions: Sequence[BugSite],
    ):
        self.decl = decl
        self.method = method
        self.temp_prefix = temp_prefix
        self.corruptions = list(corruptions)
        self.stack: List[object] = []
        self.statements: List[Statement] = []
        self.counter = 0
        # id(CastExpr) -> statically known operand type of the checkcast
        # that produced it (for the iface-dispatch defect's pair key).
        self._cast_origins: Dict[int, Optional[str]] = {}
        descriptor = parse_method_descriptor(method.descriptor)
        self.slots: Dict[int, str] = {}
        slot = 0
        if not method.is_static:
            self.slots[0] = "this"
            slot = 1
        for i, _param in enumerate(descriptor.parameters):
            self.slots[slot] = f"p{i}"
            slot += 1

    # -- helpers -----------------------------------------------------------

    def _corrupt(self, bug_id: str, detail: Optional[str] = None) -> bool:
        for site in self.corruptions:
            if site.bug_id != bug_id:
                continue
            if detail is None or site.detail == detail:
                return True
        return False

    def fresh(self) -> str:
        name = f"{self.temp_prefix}{self.counter}"
        self.counter += 1
        return name

    def push(self, value: object) -> None:
        self.stack.append(value)

    def pop_expr(self, fallback_type: Optional[str] = None) -> SourceExpr:
        if self.stack:
            top = self.stack.pop()
            if isinstance(top, _NewMarker):
                # An uninitialized object used directly (degenerate input):
                # render as a fresh allocation.
                return NewExpr(top.class_name)
            return top  # type: ignore[return-value]
        if fallback_type in ("int", None):
            return IntLit(0)
        return NullLit()

    def pop_args(self, descriptor_text: str) -> List[SourceExpr]:
        descriptor = parse_method_descriptor(descriptor_text)
        args: List[SourceExpr] = []
        for param in reversed(descriptor.parameters):
            kind = "int" if isinstance(param, PrimitiveType) else "ref"
            args.append(self.pop_expr(kind))
        args.reverse()
        return args

    def emit(self, statement: Statement) -> None:
        self.statements.append(statement)

    def emit_result(self, return_type, expr: SourceExpr) -> None:
        """Bind a call result to a temp (or emit a bare statement)."""
        if return_type == PrimitiveType.VOID:
            self.emit(ExprStmt(expr))
            return
        temp = self.fresh()
        self.emit(DeclStmt(_jvm_to_source(return_type), temp, expr))
        self.push(VarRef(temp))

    # -- main loop -----------------------------------------------------------

    def run(self) -> List[Statement]:
        assert self.method.code is not None
        instructions = self.method.code.instructions
        previous: Optional[Instruction] = None
        for instruction in instructions:
            self.step(instruction, previous)
            previous = instruction
        return self.statements

    def step(
        self, instruction: Instruction, previous: Optional[Instruction]
    ) -> None:
        if isinstance(instruction, ConstInt):
            self.push(IntLit(instruction.value))
        elif isinstance(instruction, ConstNull):
            self.push(NullLit())
        elif isinstance(instruction, Load):
            name = self.slots.get(instruction.slot, f"u{instruction.slot}")
            self.push(VarRef(name))
        elif isinstance(instruction, Store):
            value = self.pop_expr()
            self.emit(DeclStmt("int", f"u{instruction.slot}", value))
            self.slots[instruction.slot] = f"u{instruction.slot}"
        elif isinstance(instruction, Dup):
            if self.stack:
                self.push(self.stack[-1])
        elif isinstance(instruction, Pop):
            if self.stack:
                self.stack.pop()
        elif isinstance(instruction, New):
            corrupt = self._corrupt("ctor-cache", instruction.class_name)
            self.push(_NewMarker(instruction.class_name, corrupt))
        elif isinstance(instruction, InvokeSpecial):
            self.invoke_special(instruction)
        elif isinstance(
            instruction, (InvokeVirtual, InvokeInterface)
        ):
            self.invoke_instance(instruction, previous)
        elif isinstance(instruction, InvokeStatic):
            self.invoke_static(instruction)
        elif isinstance(instruction, GetField):
            receiver = self.pop_expr("ref")
            temp = self.fresh()
            self.emit(
                DeclStmt(
                    _source_type_text(instruction.descriptor),
                    temp,
                    FieldExpr(receiver, instruction.name),
                )
            )
            self.push(VarRef(temp))
        elif isinstance(instruction, PutField):
            value = self.pop_expr()
            receiver = self.pop_expr("ref")
            if self._corrupt(
                "field-alias", f"{instruction.owner}.{instruction.name}"
            ):
                receiver = VarRef(f"alias${instruction.name}")
            self.emit(AssignFieldStmt(receiver, instruction.name, value))
        elif isinstance(instruction, (GetStatic, PutStatic)):
            self.static_field(instruction)
        elif isinstance(instruction, CheckCast):
            operand = self.pop_expr("ref")
            cast = CastExpr(instruction.class_name, operand)
            self._cast_origins[id(cast)] = instruction.known_from
            self.push(cast)
        elif isinstance(instruction, InstanceOf):
            operand = self.pop_expr("ref")
            temp = self.fresh()
            self.emit(
                DeclStmt(
                    "int",
                    temp,
                    CallExpr(
                        CastExpr(instruction.class_name, operand),
                        "hashCode",
                    ),
                )
            )
            self.push(VarRef(temp))
        elif isinstance(instruction, LoadClassConstant):
            self.class_constant(instruction)
        elif isinstance(instruction, Return):
            self.return_(instruction)
        elif isinstance(instruction, (Goto, IfEq)):
            if isinstance(instruction, IfEq) and self.stack:
                self.stack.pop()
        else:
            raise ValueError(f"cannot decompile {instruction!r}")

    # -- invocation forms -------------------------------------------------------

    def invoke_special(self, instruction: InvokeSpecial) -> None:
        args = self.pop_args(instruction.descriptor)
        if instruction.name == INIT:
            top = self.stack[-1] if self.stack else None
            if isinstance(top, _NewMarker) and top.class_name == instruction.owner:
                marker = self.stack.pop()
                temp = self.fresh()
                if top.corrupt:
                    initializer: SourceExpr = StaticCallExpr(
                        instruction.owner, "instance$cache", tuple(args)
                    )
                else:
                    initializer = NewExpr(instruction.owner, tuple(args))
                self.emit(
                    DeclStmt(instruction.owner, temp, initializer)
                )
                while self.stack and self.stack[-1] is marker:
                    self.stack.pop()
                    self.push(VarRef(temp))
                # The constructed value is usually consumed via the Dup'd
                # reference; keep one reference when none survived.
                if not (self.stack and self.stack[-1] == VarRef(temp)):
                    self.push(VarRef(temp))
                return
            if instruction.is_super_call:
                self.emit(SuperCallStmt(tuple(args)))
                return
            if instruction.owner == self.decl.name:
                self.emit(ThisCallStmt(tuple(args)))
                return
            self.emit(SuperCallStmt(tuple(args)))
            return
        # Private/super method call: treat as an instance call.
        receiver = self.pop_expr("ref")
        descriptor = parse_method_descriptor(instruction.descriptor)
        self.emit_result(
            descriptor.return_type,
            CallExpr(receiver, instruction.name, tuple(args)),
        )

    def invoke_instance(
        self, instruction, previous: Optional[Instruction]
    ) -> None:
        args = self.pop_args(instruction.descriptor)
        receiver = self.pop_expr("ref")
        if not isinstance(
            receiver, (VarRef, CastExpr, NewExpr, FieldExpr, CallExpr)
        ):
            receiver = CastExpr(instruction.owner, NullLit())
        name = instruction.name
        if isinstance(instruction, InvokeInterface) and isinstance(
            receiver, CastExpr
        ):
            origin = self._cast_origins.get(id(receiver))
            if (
                receiver.type_name == instruction.owner
                and origin is not None
                and self._corrupt(
                    "iface-dispatch", f"{instruction.owner}|{origin}"
                )
            ):
                name = f"{instruction.name}$iface"
        if self._corrupt(
            "param-drop", f"{instruction.owner}.{instruction.name}"
        ) and len(args) >= 2:
            args = args[:-1]
        descriptor = parse_method_descriptor(instruction.descriptor)
        self.emit_result(
            descriptor.return_type,
            CallExpr(receiver, name, tuple(args)),
        )

    def invoke_static(self, instruction: InvokeStatic) -> None:
        args = self.pop_args(instruction.descriptor)
        if self._corrupt(
            "param-drop", f"{instruction.owner}.{instruction.name}"
        ) and len(args) >= 2:
            args = args[:-1]
        descriptor = parse_method_descriptor(instruction.descriptor)
        self.emit_result(
            descriptor.return_type,
            StaticCallExpr(instruction.owner, instruction.name, tuple(args)),
        )

    def static_field(self, instruction) -> None:
        if isinstance(instruction, GetStatic):
            temp = self.fresh()
            self.emit(
                DeclStmt(
                    _source_type_text(instruction.descriptor),
                    temp,
                    FieldExpr(VarRef(_simple(instruction.owner)), instruction.name),
                )
            )
            self.push(VarRef(temp))
        else:
            value = self.pop_expr()
            self.emit(
                AssignFieldStmt(
                    VarRef(_simple(instruction.owner)),
                    instruction.name,
                    value,
                )
            )

    def class_constant(self, instruction: LoadClassConstant) -> None:
        temp = self.fresh()
        if self._corrupt("reflection", instruction.class_name):
            initializer: SourceExpr = CallExpr(
                ClassLit(instruction.class_name), "componentType$"
            )
        else:
            initializer = ClassLit(instruction.class_name)
        self.emit(DeclStmt("Class", temp, initializer))
        self.push(VarRef(temp))

    def return_(self, instruction: Return) -> None:
        if instruction.kind == "void":
            self.emit(ReturnStmt())
        elif instruction.kind == "int":
            self.emit(ReturnStmt(self.pop_expr("int")))
        else:
            self.emit(ReturnStmt(self.pop_expr("ref")))


# ---------------------------------------------------------------------------
# Type helpers
# ---------------------------------------------------------------------------


def _jvm_to_source(jvm_type) -> str:
    if isinstance(jvm_type, PrimitiveType):
        return "void" if jvm_type == PrimitiveType.VOID else "int"
    if isinstance(jvm_type, ObjectType):
        return jvm_type.class_name
    if isinstance(jvm_type, ArrayType):
        return _jvm_to_source(jvm_type.element)
    raise TypeError(f"unknown JVM type {jvm_type!r}")


def _source_type_text(descriptor: str) -> str:
    return _jvm_to_source(parse_field_descriptor(descriptor))


def _simple(name: str) -> str:
    return name.rsplit("/", 1)[-1]


DECOMPILERS: Dict[str, Decompiler] = {
    "alpha": Decompiler("alpha", "var", ("iface-dispatch", "ctor-cache")),
    "beta": Decompiler("beta", "tmp", ("field-alias", "param-drop")),
    "gamma": Decompiler("gamma", "local", ("reflection", "dup-interface")),
}


def get_decompiler(name: str) -> Decompiler:
    """Look up a decompiler by name."""
    try:
        return DECOMPILERS[name]
    except KeyError:
        known = ", ".join(sorted(DECOMPILERS))
        raise ValueError(f"unknown decompiler {name!r}; known: {known}") from None
