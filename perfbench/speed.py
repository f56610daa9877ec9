"""The host's current speed, from a fixed reference loop.

On a shared host the speed of the same replay drifts by up to 70 %, in
phases from a fraction of a second to a minute, and process time drifts
with wall time.  A short fixed loop of the kinds of work the simulator
does (dict lookups, attribute updates on slotted objects, heap pushes and
pops) slows with it.  A replay samples the loop between short spans of
its own work (see ``workloads.drain``), so the samples follow the host's
speed through the replay, and its host times are scaled by
``REFERENCE_S / mean sample`` to the times it would have taken at a fixed
reference speed.  The loop is benchmark code, so a change to the program
moves the scaled times as it moves the measured ones.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: The mean sample on the 2-CPU box the bounds were set on, in a calm
#: phase.  It only fixes the unit of the scaled times: comparisons
#: between commits do not depend on it.
REFERENCE_S = 0.0019

#: Iterations of one sample; about 2 ms at the reference speed.
LOOP_ITERATIONS = 2_000


class _Item:
    __slots__ = ("key", "size", "tier")

    def __init__(self, key: int, size: int) -> None:
        self.key = key
        self.size = size
        self.tier = 0


def _loop_s() -> float:
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    table: dict[int, _Item] = {}
    total = 0
    for i in range(LOOP_ITERATIONS):
        key = (i * 7919) % 4099
        item = table.get(key)
        if item is None:
            item = table[key] = _Item(key, i & 255)
        item.tier ^= 1
        total += item.size
        heapq.heappush(heap, (total & 1023, i))
        if len(heap) > 256:
            heapq.heappop(heap)
    return time.perf_counter() - start


class Speed:
    """Samples of the reference loop taken between spans of host work."""

    def __init__(self) -> None:
        self._samples: list[float] = []

    def sample(self) -> None:
        """Time the loop once, with the collector off so that garbage left
        by the program does not land in the sample."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._samples.append(_loop_s())
        finally:
            if enabled:
                gc.enable()

    @property
    def scale(self) -> float:
        """Multiply a host time measured between the samples by this to
        get the time at the reference speed."""
        return REFERENCE_S / statistics.fmean(self._samples)
