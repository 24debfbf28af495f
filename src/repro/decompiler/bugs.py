"""Decompiler defects.

Each bug kind decides, for a given (possibly reduced) application, the
set of *sites* at which the decompiler mistranslates.  Crucially every
site's presence is **monotone** in the application's items — a site
present in a sub-input is present in every valid super-input — which is
what makes the oracle's "all original error messages still appear"
predicate monotone on valid sub-inputs (Definition 4.1's assumption).

Real decompiler defects trigger on rare, specific shapes, not on every
occurrence of a pattern.  We model rarity with a deterministic hash
filter over the site's *identity* (:func:`selective`): the identity
never depends on which other items are present, so monotonicity is
preserved, while the expected number of sites per application stays
small (the paper reports a geometric mean of 9.2 compiler errors per
instance).  ``scale`` adjusts all selectivities at once — tests use
``scale=0`` to make every pattern occurrence a site.

The corruption itself happens in :mod:`repro.decompiler.decompile`; this
module only detects sites.  Bug kinds (the *class-local* ones find a
class's sites from that class alone; the others read the whole
application):

- ``iface-dispatch`` (class-local) — an interface call right after a
  checked cast is emitted with a mangled method name (the paper's
  motivating cast-then-call pattern),
- ``ctor-cache`` (whole application: it counts constructions across
  every method body) — when the *same class* is constructed in two or
  more method bodies, the decompiler's constructor cache emits a bogus
  factory call at (some of) those sites,
- ``field-alias`` (whole application: it reads the written field's
  owner, usually another class) — writing a field of a class that
  (currently) has at least two fields confuses the alias analysis: the
  assignment target becomes an undeclared variable,
- ``param-drop`` (class-local) — calls to methods with two or more
  parameters lose their last argument,
- ``reflection`` (class-local) — ``X.class`` is decompiled with a bogus
  accessor call,
- ``dup-interface`` (class-local) — classes implementing two or more
  interfaces get the alphabetically first one repeated in the
  implements clause.

:func:`sites_for` can memoize the class-local kinds' sites per class
object (see its docstring); the whole-application kinds are recomputed
on every call.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bytecode.classfile import Application, ClassFile
from repro.bytecode.descriptors import parse_method_descriptor
from repro.bytecode.instructions import (
    CheckCast,
    InvokeInterface,
    InvokeStatic,
    InvokeVirtual,
    LoadClassConstant,
    New,
    PutField,
)

__all__ = ["BugSite", "BugKind", "BUG_KINDS", "sites_for", "selective"]


def selective(selectivity: int, scale: float, *parts: str) -> bool:
    """Deterministic, identity-based site filter (see module docstring).

    A site passes iff ``crc32(identity) % round(selectivity * scale) == 0``;
    ``scale <= 0`` (or an effective modulus of 1) disables filtering.
    """
    effective = int(round(selectivity * scale))
    if effective <= 1:
        return True
    key = "\x00".join(parts).encode("utf-8")
    return zlib.crc32(key) % effective == 0


@dataclass(frozen=True)
class BugSite:
    """One location a bug kind corrupts.

    ``method_key`` is (name, descriptor) within ``class_name``; None for
    class-level corruption.  ``detail`` carries the bug-specific payload
    (e.g. which class's construction is mangled).
    """

    bug_id: str
    class_name: str
    method_key: Optional[Tuple[str, str]]
    detail: str = ""


class BugKind:
    """Base: a named, monotone site detector over a whole application."""

    bug_id: str = ""
    description: str = ""
    #: True when a class's sites depend on that class alone.
    class_local: bool = False

    def sites(self, app: Application, scale: float = 1.0) -> List[BugSite]:
        raise NotImplementedError

    def _add(self, out: List[BugSite], site: BugSite) -> None:
        if site not in out:
            out.append(site)


class ClassLocalBugKind(BugKind):
    """A kind whose sites in a class are a function of that class alone.

    Every site names the class it sits in, so the application's sites
    are the concatenation of each class's, in class order.
    """

    class_local = True

    def sites(self, app: Application, scale: float = 1.0) -> List[BugSite]:
        out: List[BugSite] = []
        for decl in app.classes:
            out.extend(self.class_sites(decl, scale))
        return out

    def class_sites(self, decl: ClassFile, scale: float = 1.0) -> List[BugSite]:
        raise NotImplementedError


class InterfaceDispatchBug(ClassLocalBugKind):
    bug_id = "iface-dispatch"
    description = (
        "interface calls immediately after a checked cast get a "
        "mangled method name"
    )

    #: How far an InvokeInterface may trail its CheckCast (argument
    #: pushes sit in between).
    WINDOW = 4

    def class_sites(self, decl: ClassFile, scale: float = 1.0) -> List[BugSite]:
        out: List[BugSite] = []
        for method in _code_methods(decl):
            instructions = method.code.instructions
            for i, first in enumerate(instructions):
                if not isinstance(first, CheckCast):
                    continue
                if first.known_from is None:
                    continue
                for j in range(i + 1, min(i + 1 + self.WINDOW, len(instructions))):
                    second = instructions[j]
                    if (
                        isinstance(second, InvokeInterface)
                        and second.owner == first.class_name
                    ):
                        # Keyed by (interface, implementer): the defect is
                        # about one dispatch pair, and its occurrences
                        # cluster in the implementer's module.
                        if selective(
                            14,
                            scale,
                            self.bug_id,
                            first.class_name,
                            first.known_from,
                        ):
                            self._add(
                                out,
                                BugSite(
                                    self.bug_id,
                                    decl.name,
                                    method.key,
                                    detail=(
                                        f"{first.class_name}|"
                                        f"{first.known_from}"
                                    ),
                                ),
                            )
                        break
        return out


class ConstructorCacheBug(BugKind):
    bug_id = "ctor-cache"
    description = (
        "a class constructed in >= 2 method bodies goes through a bogus "
        "factory call at (hash-selected) construction sites"
    )

    def sites(self, app: Application, scale: float = 1.0) -> List[BugSite]:
        constructed: Dict[str, List[Tuple[str, Tuple[str, str]]]] = {}
        for decl, method in _methods_with_code(app):
            seen_here = set()
            for instruction in method.code:
                if isinstance(instruction, New):
                    if instruction.class_name not in seen_here:
                        seen_here.add(instruction.class_name)
                        constructed.setdefault(
                            instruction.class_name, []
                        ).append((decl.name, method.key))
        out: List[BugSite] = []
        for target, locations in sorted(constructed.items()):
            if len(locations) < 2:
                continue
            if not selective(20, scale, self.bug_id, target):
                continue
            for class_name, method_key in locations:
                # Per-site filter keeps the per-target footprint small;
                # the >= 2 trigger above stays unfiltered (monotone).
                if not selective(
                    3, scale, self.bug_id, target, class_name, method_key[0]
                ):
                    continue
                self._add(
                    out,
                    BugSite(
                        self.bug_id, class_name, method_key, detail=target
                    ),
                )
        return out


class FieldAliasBug(BugKind):
    bug_id = "field-alias"
    description = (
        "writing a field of a class with >= 2 fields aliases the target "
        "to an undeclared variable"
    )

    def sites(self, app: Application, scale: float = 1.0) -> List[BugSite]:
        out: List[BugSite] = []
        for decl, method in _methods_with_code(app):
            for instruction in method.code:
                if not isinstance(instruction, PutField):
                    continue
                owner = app.class_file(instruction.owner)
                if owner is None or len(owner.fields) < 2:
                    continue
                # Keyed by the written field: its writes cluster in the
                # owning class's module.
                if selective(
                    14, scale, self.bug_id, instruction.owner, instruction.name
                ):
                    self._add(
                        out,
                        BugSite(
                            self.bug_id,
                            decl.name,
                            method.key,
                            detail=f"{instruction.owner}.{instruction.name}",
                        ),
                    )
        return out


class ParamDropBug(ClassLocalBugKind):
    bug_id = "param-drop"
    description = "calls to methods with >= 2 parameters lose an argument"

    def class_sites(self, decl: ClassFile, scale: float = 1.0) -> List[BugSite]:
        out: List[BugSite] = []
        for method in _code_methods(decl):
            for instruction in method.code:
                if not isinstance(
                    instruction,
                    (InvokeVirtual, InvokeStatic, InvokeInterface),
                ):
                    continue
                arity = len(
                    parse_method_descriptor(instruction.descriptor).parameters
                )
                if arity < 2:
                    continue
                if (
                    instruction.owner == decl.name
                    and instruction.name == method.name
                    and instruction.descriptor == method.descriptor
                ):
                    # Self-recursive tail calls (the reducer's trivial
                    # bodies) decompile correctly; skipping them keeps
                    # site sets monotone under reduction.
                    continue
                # Keyed by the callee: call sites cluster near the owner.
                if selective(
                    40,
                    scale,
                    self.bug_id,
                    instruction.owner,
                    instruction.name,
                ):
                    self._add(
                        out,
                        BugSite(
                            self.bug_id,
                            decl.name,
                            method.key,
                            detail=f"{instruction.owner}.{instruction.name}",
                        ),
                    )
        return out


class ReflectionBug(ClassLocalBugKind):
    bug_id = "reflection"
    description = "class literals are decompiled with a bogus accessor call"

    def class_sites(self, decl: ClassFile, scale: float = 1.0) -> List[BugSite]:
        out: List[BugSite] = []
        for method in _code_methods(decl):
            for instruction in method.code:
                if not isinstance(instruction, LoadClassConstant):
                    continue
                # Keyed by the reflected-on class.
                if selective(
                    8, scale, self.bug_id, instruction.class_name
                ):
                    self._add(
                        out,
                        BugSite(
                            self.bug_id,
                            decl.name,
                            method.key,
                            detail=instruction.class_name,
                        ),
                    )
        return out


class DuplicateInterfaceBug(ClassLocalBugKind):
    bug_id = "dup-interface"
    description = (
        "classes implementing >= 2 interfaces get the first one repeated"
    )

    def class_sites(self, decl: ClassFile, scale: float = 1.0) -> List[BugSite]:
        if decl.is_interface or len(decl.interfaces) < 2:
            return []
        if not selective(12, scale, self.bug_id, decl.name):
            return []
        return [
            BugSite(
                self.bug_id, decl.name, None, detail=min(decl.interfaces)
            )
        ]


BUG_KINDS: Dict[str, BugKind] = {
    kind.bug_id: kind
    for kind in (
        InterfaceDispatchBug(),
        ConstructorCacheBug(),
        FieldAliasBug(),
        ParamDropBug(),
        ReflectionBug(),
        DuplicateInterfaceBug(),
    )
}


def sites_for(
    app: Application,
    bug_ids: Tuple[str, ...],
    scale: float = 1.0,
    memo: Optional[Dict[int, Tuple[ClassFile, List[BugSite]]]] = None,
) -> List[BugSite]:
    """All sites of the given bug kinds in the application.

    Class by class, the class-local kinds' sites, then the
    whole-application kinds'.  ``memo``, when given, caches each
    class's class-local sites under the class object's ``id``; the
    entry keeps the class itself, and a hit requires ``entry[0] is
    decl``, so a reused ``id`` is never served.  One memo serves one
    ``(bug_ids, scale)`` pair.
    """
    kinds = [BUG_KINDS[bug_id] for bug_id in bug_ids]
    local = [kind for kind in kinds if kind.class_local]
    if memo is None:
        memo = {}
    out: List[BugSite] = []
    for decl in app.classes:
        entry = memo.get(id(decl))
        if entry is None or entry[0] is not decl:
            entry = (
                decl,
                [s for kind in local for s in kind.class_sites(decl, scale)],
            )
            memo[id(decl)] = entry
        out.extend(entry[1])
    for kind in kinds:
        if not kind.class_local:
            out.extend(kind.sites(app, scale))
    return out


def _methods_with_code(app: Application):
    for decl in app.classes:
        for method in _code_methods(decl):
            yield decl, method


def _code_methods(decl: ClassFile):
    for method in decl.methods:
        if method.code is not None:
            yield method
