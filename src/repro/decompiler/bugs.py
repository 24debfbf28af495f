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
module only detects sites.  Every bug kind works in two steps: a
*scan* of one class (a function of that class alone, which
:func:`sites_for` caches per class object) and a cross-class step that
turns every class's scan into the application's sites.  Bug kinds:

- ``iface-dispatch`` — an interface call right after a checked cast is
  emitted with a mangled method name (the paper's motivating
  cast-then-call pattern),
- ``ctor-cache`` — when the *same class* is constructed in two or more
  method bodies, the decompiler's constructor cache emits a bogus
  factory call at (some of) those sites; the scan lists a class's
  constructions, the cross-class step counts them,
- ``field-alias`` — writing a field of a class that (currently) has at
  least two fields confuses the alias analysis: the assignment target
  becomes an undeclared variable; the scan lists a class's field
  writes, the cross-class step checks each written field's owner,
- ``param-drop`` — calls to methods with two or more parameters lose
  their last argument,
- ``reflection`` — ``X.class`` is decompiled with a bogus accessor
  call,
- ``dup-interface`` — classes implementing two or more interfaces get
  the alphabetically first one repeated in the implements clause.

The last three and ``iface-dispatch`` are *class-local*: their scan is
the class's sites, and the cross-class step only concatenates.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
    """Base: a named, monotone site detector, in two steps.

    :meth:`scan` reads one class and returns what the kind needs of it;
    :meth:`sites` turns the scans of every class of an application (in
    class order) into its sites.  A class-local kind's scan is the
    class's sites, which the default :meth:`sites` concatenates.
    """

    bug_id: str = ""
    description: str = ""

    def scan(self, decl: ClassFile, scale: float) -> list:
        raise NotImplementedError

    def sites(
        self, app: Application, scans: Sequence[list]
    ) -> List[BugSite]:
        return [site for scan in scans for site in scan]

    def _add(self, out: List[BugSite], site: BugSite) -> None:
        if site not in out:
            out.append(site)


class InterfaceDispatchBug(BugKind):
    bug_id = "iface-dispatch"
    description = (
        "interface calls immediately after a checked cast get a "
        "mangled method name"
    )

    #: How far an InvokeInterface may trail its CheckCast (argument
    #: pushes sit in between).
    WINDOW = 4

    def scan(self, decl: ClassFile, scale: float) -> List[BugSite]:
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

    def scan(
        self, decl: ClassFile, scale: float
    ) -> List[Tuple[str, Optional[BugSite]]]:
        """One ``(target, site)`` per method body and constructed class
        that passes the per-target filter; ``site`` is None when the
        per-site filter drops that location."""
        out: List[Tuple[str, Optional[BugSite]]] = []
        for method in _code_methods(decl):
            seen_here = set()
            for instruction in method.code:
                if not isinstance(instruction, New):
                    continue
                target = instruction.class_name
                if target in seen_here:
                    continue
                seen_here.add(target)
                if not selective(20, scale, self.bug_id, target):
                    continue
                # Per-site filter keeps the per-target footprint small;
                # the >= 2 trigger counts every location (monotone).
                site = None
                if selective(
                    3, scale, self.bug_id, target, decl.name, method.name
                ):
                    site = BugSite(
                        self.bug_id, decl.name, method.key, detail=target
                    )
                out.append((target, site))
        return out

    def sites(
        self,
        app: Application,
        scans: Sequence[List[Tuple[str, Optional[BugSite]]]],
    ) -> List[BugSite]:
        constructed: Dict[str, List[Optional[BugSite]]] = {}
        for scan in scans:
            for target, site in scan:
                constructed.setdefault(target, []).append(site)
        return [
            site
            for _target, locations in sorted(constructed.items())
            if len(locations) >= 2
            for site in locations
            if site is not None
        ]


class FieldAliasBug(BugKind):
    bug_id = "field-alias"
    description = (
        "writing a field of a class with >= 2 fields aliases the target "
        "to an undeclared variable"
    )

    def scan(
        self, decl: ClassFile, scale: float
    ) -> List[Tuple[str, BugSite]]:
        """One ``(owner, site)`` per selected field write of the class."""
        out: List[Tuple[str, BugSite]] = []
        for method in _code_methods(decl):
            for instruction in method.code:
                if not isinstance(instruction, PutField):
                    continue
                # Keyed by the written field: its writes cluster in the
                # owning class's module.
                if not selective(
                    14, scale, self.bug_id, instruction.owner, instruction.name
                ):
                    continue
                entry = (
                    instruction.owner,
                    BugSite(
                        self.bug_id,
                        decl.name,
                        method.key,
                        detail=f"{instruction.owner}.{instruction.name}",
                    ),
                )
                if entry not in out:
                    out.append(entry)
        return out

    def sites(
        self,
        app: Application,
        scans: Sequence[List[Tuple[str, BugSite]]],
    ) -> List[BugSite]:
        out: List[BugSite] = []
        for scan in scans:
            for owner, site in scan:
                owner_decl = app.class_file(owner)
                if owner_decl is not None and len(owner_decl.fields) >= 2:
                    out.append(site)
        return out


class ParamDropBug(BugKind):
    bug_id = "param-drop"
    description = "calls to methods with >= 2 parameters lose an argument"

    def scan(self, decl: ClassFile, scale: float) -> List[BugSite]:
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


class ReflectionBug(BugKind):
    bug_id = "reflection"
    description = "class literals are decompiled with a bogus accessor call"

    def scan(self, decl: ClassFile, scale: float) -> List[BugSite]:
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


class DuplicateInterfaceBug(BugKind):
    bug_id = "dup-interface"
    description = (
        "classes implementing >= 2 interfaces get the first one repeated"
    )

    def scan(self, decl: ClassFile, scale: float) -> List[BugSite]:
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
    scale: float,
    memo: Dict[int, Tuple[ClassFile, Tuple[list, ...]]],
) -> List[BugSite]:
    """All sites of the given bug kinds in the application.

    Every kind scans every class, then derives its sites from the
    scans.  ``memo`` caches each class's scans under the class object's
    ``id``; the entry keeps the class itself, and a hit requires
    ``entry[0] is decl``, so a reused ``id`` is never served.  One memo
    serves one ``(bug_ids, scale)`` pair.
    """
    kinds = [BUG_KINDS[bug_id] for bug_id in bug_ids]
    scans: List[Tuple[list, ...]] = []
    for decl in app.classes:
        entry = memo.get(id(decl))
        if entry is None or entry[0] is not decl:
            entry = (decl, tuple(kind.scan(decl, scale) for kind in kinds))
            memo[id(decl)] = entry
        scans.append(entry[1])
    out: List[BugSite] = []
    for i, kind in enumerate(kinds):
        out.extend(kind.sites(app, [scan[i] for scan in scans]))
    return out


def _code_methods(decl: ClassFile):
    for method in decl.methods:
        if method.code is not None:
            yield method
