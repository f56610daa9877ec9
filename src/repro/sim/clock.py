"""Simulated clock.

A tiny wrapper around a float so that components share one monotonic notion
of "now" and cannot accidentally move it backwards.
"""

from __future__ import annotations

import math


class SimClock:
    """Monotonic simulated time in seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if not 0.0 <= start < math.inf:
            raise ValueError(f"start time must be finite and >= 0, got {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t``.

        Raises:
            ValueError: if ``t`` is earlier than the current time.
        """
        if t < self._now:
            raise ValueError(f"cannot move clock backwards: {t} < {self._now}")
        self._now = t

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f})"
