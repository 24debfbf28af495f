"""Timing wrappers around each layer's public entry point.

The traced run installs a wrapper on every function listed in
:data:`LAYERS`, runs one workload pass, and removes them again; no
source file of the program changes.  A wrapper records its call count
and its duration.  Self time is a wrapper's duration minus the part of
it that wrappers entered below it covered, kept per thread on a stack,
so the self times of all layers partition the covered wall time and
whatever the wrappers do not cover stays visible as a remainder.

Functions are imported by name all over the program
(``from repro.decompiler.javac import check_sources``), so a function
wrapper replaces every module attribute under ``repro`` that is bound
to the original object; methods are replaced on their class.  Removal
puts back exactly what was replaced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: (layer, module, class or None, attribute).  Layer names are the
#: metric prefixes; ``msa`` covers both the MSA engine and the solver
#: session it drives.
LAYERS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("workloads", "repro.workloads.corpus", None, "build_benchmark"),
    ("decompile", "repro.decompiler.decompile", "Decompiler", "decompile"),
    ("javac", "repro.decompiler.javac", None, "check_sources"),
    ("materialize", "repro.bytecode.reducer", "MaterializationMemo", "reduce"),
    ("serializer", "repro.bytecode.serializer", "ApplicationSerializer",
     "size_of_items"),
    ("serializer", "repro.bytecode.serializer", None, "serialize_application"),
    ("constraints", "repro.bytecode.constraints", None, "generate_constraints"),
    ("ordering", "repro.reduction.ordering", None, "dependency_order"),
    ("progression", "repro.reduction.progression", "ProgressionEngine",
     "build"),
    ("msa", "repro.logic.msa", "MsaSolver", "compute"),
    ("msa", "repro.logic.msa", "MsaSolver", "extend"),
    ("msa", "repro.logic.session", "SolverSession", "solve"),
    ("gbr", "repro.reduction.gbr", None, "generalized_binary_reduction"),
    ("predicate", "repro.reduction.predicate", "InstrumentedPredicate",
     "__call__"),
    ("predicate", "repro.reduction.predicate", "InstrumentedPredicate",
     "evaluate_batch"),
    ("store", "repro.parallel.store", "ShardedPredicateStore", "lookup"),
    ("store", "repro.parallel.store", "ShardedPredicateStore", "record"),
    ("harness", "repro.harness.experiments", None, "run_instance"),
)

#: Modules whose import must precede installation: wrappers only reach
#: names that exist when they are installed, and these modules bind
#: layer functions by name.
PRELOAD = (
    "repro.decompiler.oracle",
    "repro.harness.experiments",
    "repro.parallel.procpool",
    "repro.parallel.scheduler",
    "repro.parallel.speculate",
    "repro.workloads.corpus",
)

MARK = "__perfbench_layer__"


@dataclass
class EntryStats:
    """One wrapped entry point's totals."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class LayerTracer:
    """Installs, accounts for, and removes the layer wrappers.

    Use as a context manager around the traced region; :attr:`entries`
    keeps the totals after removal.  Only one tracer may be installed at
    a time.
    """

    def __init__(self) -> None:
        self.entries: Dict[Tuple[str, str], EntryStats] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- accounting ----------------------------------------------------

    def _wrap(self, layer: str, name: str, original):
        stats = self.entries.setdefault((layer, name), EntryStats())
        local = self._local
        lock = self._lock

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)  # child time covered below this frame
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                with lock:
                    stats.calls += 1
                    stats.total_s += duration
                    stats.self_s += duration - children

        setattr(wrapper, MARK, (layer, name))
        return wrapper

    # -- install / remove ----------------------------------------------

    def install(self) -> "LayerTracer":
        if self._undo:
            raise RuntimeError("layer wrappers are already installed")
        for module_name in PRELOAD:
            importlib.import_module(module_name)
        try:
            for layer, module_name, class_name, attr in LAYERS:
                module = importlib.import_module(module_name)
                if class_name is None:
                    self._install_function(layer, getattr(module, attr))
                else:
                    owner = getattr(module, class_name)
                    self._install_method(layer, owner, attr)
        except BaseException:
            self.remove()
            raise
        return self

    def _install_method(self, layer: str, owner: type, attr: str) -> None:
        original = owner.__dict__[attr]
        name = f"{owner.__name__}.{attr}"
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, name, original))

    def _install_function(self, layer: str, original) -> None:
        wrapper = self._wrap(layer, original.__name__, original)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        """Put back every replaced attribute (idempotent)."""
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.remove()

    # -- results -------------------------------------------------------

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer (entries of one layer summed)."""
        out: Dict[str, float] = {}
        for (layer, _), stats in self.entries.items():
            out[layer] = out.get(layer, 0.0) + stats.self_s
        return out

    def calls(self, layer: str, name: Optional[str] = None) -> int:
        return sum(
            stats.calls
            for (entry_layer, entry_name), stats in self.entries.items()
            if entry_layer == layer and (name is None or entry_name == name)
        )

    def total(self, layer: str, name: str) -> float:
        stats = self.entries.get((layer, name))
        return stats.total_s if stats is not None else 0.0



def leftover_wrappers() -> List[str]:
    """Every wrapper still reachable from a ``repro`` module or class.

    Empty after a tracer is removed; the tests assert that.
    """
    found: List[str] = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, MARK):
                found.append(f"{name}.{attr}")
            elif isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    if hasattr(inner, MARK):
                        found.append(f"{name}.{attr}.{member}")
    return found
