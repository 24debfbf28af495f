"""Per-run predicate budgets: max fresh calls / max simulated seconds.

The paper's predicate is a ~33-second decompile+compile cycle, so a
production reduction service cannot let one run invoke it without
bound.  A :class:`Budget` caps a run two ways:

- ``max_calls`` — fresh predicate *attempts* (retries count: every
  attempt costs a real tool run, whether or not it succeeds);
- ``max_seconds`` — simulated seconds, charged ``seconds_per_call``
  per attempt plus any retry-backoff delay.

Both clocks are virtual, so a budgeted run is a deterministic function
of the query sequence — the same property the harness's simulated
clock has (see :class:`repro.reduction.predicate.InstrumentedPredicate`).

Exhaustion latches: once a budget raises
:class:`~repro.reduction.problem.BudgetExhausted` it raises on every
later charge, so a caller that swallows the first signal (the
service's quota charge when a job settles, say) still stops at the
next fresh call.  Cached queries
never reach the budget — they are free, which is exactly why the
budget sits *under* the caching wrapper.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.reduction.problem import BudgetExhausted

__all__ = ["Budget", "BudgetExhausted"]


class Budget:
    """A thread-safe spend tracker for one reduction run.

    Args:
        max_calls: cap on fresh predicate attempts (None: unlimited).
        max_seconds: cap on simulated seconds (None: unlimited).
        seconds_per_call: simulated seconds charged per attempt (the
            harness passes its ``simulated_seconds_per_run``, i.e. the
            paper's ~33 s decompile+compile cost).
    """

    def __init__(
        self,
        max_calls: Optional[int] = None,
        max_seconds: Optional[float] = None,
        seconds_per_call: float = 0.0,
    ) -> None:
        if max_calls is not None and max_calls < 0:
            raise ValueError(f"max_calls must be >= 0, got {max_calls}")
        if max_seconds is not None and max_seconds < 0:
            raise ValueError(f"max_seconds must be >= 0, got {max_seconds}")
        if seconds_per_call < 0:
            raise ValueError(
                f"seconds_per_call must be >= 0, got {seconds_per_call}"
            )
        self.max_calls = max_calls
        self.max_seconds = max_seconds
        self.seconds_per_call = float(seconds_per_call)
        self.calls = 0
        self.seconds = 0.0
        self.exhausted = False
        self._lock = threading.Lock()

    @property
    def limited(self) -> bool:
        """Does this budget cap anything at all?"""
        return self.max_calls is not None or self.max_seconds is not None

    def spend_call(self) -> None:
        """Charge one fresh predicate attempt.

        Raises :class:`BudgetExhausted` — *without* charging — when the
        attempt would exceed either cap, and on every call after that.
        """
        with self._lock:
            if self.exhausted:
                raise BudgetExhausted(self._message("already exhausted"), self)
            if self.max_calls is not None and self.calls + 1 > self.max_calls:
                self.exhausted = True
                raise BudgetExhausted(self._message("call budget"), self)
            if (
                self.max_seconds is not None
                and self.seconds + self.seconds_per_call > self.max_seconds
            ):
                self.exhausted = True
                raise BudgetExhausted(self._message("time budget"), self)
            self.calls += 1
            self.seconds += self.seconds_per_call

    def charge_seconds(self, seconds: float) -> None:
        """Charge extra simulated time (e.g. retry backoff)."""
        with self._lock:
            if self.exhausted:
                raise BudgetExhausted(self._message("already exhausted"), self)
            self.seconds += seconds
            if self.max_seconds is not None and self.seconds > self.max_seconds:
                self.exhausted = True
                raise BudgetExhausted(self._message("time budget"), self)

    def _message(self, which: str) -> str:
        return (
            f"predicate budget exhausted ({which}): "
            f"{self.calls} calls (max {self.max_calls}), "
            f"{self.seconds:.1f}s simulated (max {self.max_seconds})"
        )

    def __repr__(self) -> str:
        return (
            f"Budget(calls={self.calls}/{self.max_calls}, "
            f"seconds={self.seconds:.1f}/{self.max_seconds}, "
            f"exhausted={self.exhausted})"
        )
