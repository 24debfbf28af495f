"""Compiled-problem records: a warm rerun skips the problem build.

GBR runs on a constraint CNF ``R`` and a variable order ``<``, and both
are pure functions of the application's bytecode.  When a predicate
store is attached, :func:`compiled_problem` keeps them in the store as
one *record* per application, so a rerun loads them instead of running
:func:`~repro.bytecode.constraints.generate_constraints` and
:func:`~repro.reduction.ordering.dependency_order` again.

The record is a JSON array of integers over the ``items_of(app)``
declaration order, ``[n, clauses, universe, order]``:

- ``n``, the item count;
- the constraint's clauses in order, each a list of signed 1-based item
  numbers (DIMACS numbering; entry-point unit clauses included);
- the CNF universe, as sorted 0-based item indexes;
- the dependency order, as a permutation of ``range(n)``.

It is stored under the application's sha256 (the key) in the namespace
``[tenant=T:]problem:<digest>``, where the digest covers the sources the
record depends on (:data:`PROBLEM_SOURCES`).  Editing any of them moves
every record to a new namespace, so the next run misses and rebuilds.
The decompiler is not part of the key: the constraint generator never
sees it, so the decompilers of one application share its record.  The
predicate's error set is not stored either; it belongs to the oracle,
which computes it once per instance anyway.

A record that does not decode to a well-formed problem over the
application's items is rejected (``problem.rejected``), rebuilt and
recorded again; it is never served.  ``problem.hits`` and
``problem.misses`` count the rest.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from typing import Any, List, Optional, Sequence, Tuple

from repro.bytecode.classfile import Application
from repro.bytecode.items import items_of
from repro.logic.cnf import CNF
from repro.observability import get_metrics
from repro.reduction.ordering import dependency_order
from repro.reduction.problem import ReductionProblem

__all__ = [
    "ORACLE_SOURCES",
    "PROBLEM_SOURCES",
    "code_digest",
    "compiled_problem",
    "decode_record",
    "encode_record",
    "problem_namespace",
    "tenant_prefix",
]

#: The ``repro`` sources (packages or files, relative to the package)
#: a compiled problem depends on: the items, the constraint generator
#: and the CNF, the graph algorithms and the order built on them, the
#: problem assembly, and this module's record format.
PROBLEM_SOURCES = (
    "bytecode",
    "logic",
    "graphs",
    "reduction/ordering.py",
    "decompiler/oracle.py",
    "harness/problems.py",
)

#: The sources a predicate verdict depends on: the simulated
#: decompilers and javac, and the bytecode they read.
ORACLE_SOURCES = ("decompiler", "bytecode")

_PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.lru_cache(maxsize=None)
def code_digest(sources: Tuple[str, ...]) -> str:
    """sha256 over the named ``repro`` sources, once per process.

    A package contributes every ``.py`` file below it.  Each file adds
    its path relative to the package and its contents, both
    length-prefixed, in sorted path order.
    """
    paths: List[str] = []
    for source in sources:
        path = os.path.join(_PACKAGE, source)
        if not os.path.isdir(path):
            paths.append(path)
            continue
        for directory, dirs, files in os.walk(path):
            dirs[:] = [name for name in dirs if name != "__pycache__"]
            paths.extend(
                os.path.join(directory, name)
                for name in files if name.endswith(".py")
            )
    digest = hashlib.sha256()
    for path in sorted(paths):
        with open(path, "rb") as handle:
            data = handle.read()
        name = os.path.relpath(path, _PACKAGE).replace(os.sep, "/").encode()
        for part in (name, data):
            digest.update(b"%d:" % len(part))
            digest.update(part)
    return digest.hexdigest()


def tenant_prefix(tenant: str) -> str:
    """The namespace prefix of a tenant's store entries ("" for none)."""
    return f"tenant={tenant}:" if tenant else ""


def problem_namespace(tenant: str = "") -> str:
    """The store namespace of compiled-problem records."""
    return f"{tenant_prefix(tenant)}problem:{code_digest(PROBLEM_SOURCES)}"


def encode_record(problem: ReductionProblem, order: Sequence[Any]) -> str:
    """The record of a problem and its variable order."""
    names = problem.variables
    clauses, universe = problem.constraint.numbered(names)
    index = {name: i for i, name in enumerate(names)}
    return json.dumps(
        [len(names), clauses, universe, [index[name] for name in order]],
        separators=(",", ":"),
    )


def _int_list(value: Any) -> List[int]:
    if type(value) is not list or any(type(v) is not int for v in value):
        raise ValueError("not a list of integers")
    return value


def decode_record(
    payload: str, items: Sequence[Any]
) -> Tuple[CNF, List[Any]]:
    """The constraint and the order a record holds, over ``items``.

    Raises ValueError for anything :func:`encode_record` cannot have
    written over ``items``: unreadable JSON, another item count, a
    literal out of range or outside the universe, a clause repeating a
    variable, an order that is not a permutation.
    """
    try:
        count, clauses, universe, order = json.loads(payload)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"unreadable problem record: {exc}") from None
    n = len(items)
    if count != n or type(count) is not int:
        raise ValueError(f"record has {count!r} items, the app {n}")
    if sorted(_int_list(order)) != list(range(n)):
        raise ValueError("record order is not a permutation of the items")
    members = set(_int_list(universe))
    if len(members) != len(universe) or not members <= set(range(n)):
        raise ValueError("record universe is not a set of item indexes")
    if type(clauses) is not list:
        raise ValueError("record clauses are not a list")
    for clause in clauses:
        variables = {abs(lit) - 1 for lit in _int_list(clause)}
        if len(variables) != len(clause) or not variables <= members:
            raise ValueError(f"record clause {clause!r} is malformed")
    cnf = CNF.from_numbered(items, clauses, universe)
    return cnf, [items[i] for i in order]


def compiled_problem(
    app: Application,
    app_digest: str,
    oracle,
    store,
    tenant: str = "",
) -> Tuple[ReductionProblem, List[Any]]:
    """The reduction problem of one instance and its dependency order.

    Loaded from ``store`` when it holds a well-formed record for the
    application (``app_digest`` is the sha256 hex of its serialized
    bytes); built and recorded otherwise.  ``oracle`` is the run's
    :class:`~repro.decompiler.oracle.DecompilerOracle`, whose item
    predicate the problem probes.
    """
    namespace = problem_namespace(tenant)
    metrics = get_metrics()
    payload = store.lookup_record(namespace, app_digest)
    constraint: Optional[CNF] = None
    if payload is None:
        metrics.counter("problem.misses").inc()
    else:
        try:
            constraint, order = decode_record(payload, items_of(app))
        except ValueError:
            metrics.counter("problem.rejected").inc()
        else:
            metrics.counter("problem.hits").inc()
    problem = oracle.build_problem(constraint)
    if constraint is None:
        order = dependency_order(problem.constraint, problem.variables)
        store.put_record(namespace, app_digest, encode_record(problem, order))
    return problem, order
