"""Deterministic event queue for the discrete-event simulator.

Events are ordered by ``(time, sequence_number)`` so that simultaneous
events fire in scheduling order, making every simulation run exactly
reproducible for a given seed.

:class:`EventQueue` is one binary heap.  Engine replays are its best
case: timestamps are almost all unique, a few hundred events are pending
at a time, and the engine never cancels an event (DESIGN.md §12).

Hot-path notes: heap entries are plain ``[time, seq, event]`` lists so
ordering uses C-level lexicographic comparison (seq is unique, so the
event object itself is never compared); :class:`Event` is a ``__slots__``
class recycled through a bounded free list (a million-event replay would
otherwise allocate one per scheduled callback); and the queue maintains
a live-event counter on push/pop/cancel so ``__len__``/``__bool__`` are
O(1) instead of scanning the heap.

Cancellation is lazy (O(1)): a cancelled event stays in the heap and is
skipped when it reaches the top.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

# One heap entry: [time, seq, event].  A mutable list (not a tuple) so
# collect_batch can null out the event slot when handing the event to the
# dispatch loop — that keeps the event's reference count predictable,
# which is what makes free-list recycling safe (see Simulator.run).
_Entry = list[Any]

#: Maximum recycled Event objects kept on the free list.
_FREE_LIST_CAP = 4096

_INF = math.inf


class Event:
    """A scheduled callback.

    ``cancelled`` events stay in the queue but are skipped when popped —
    O(1) cancellation, standard lazy-deletion pattern.  Cancelling
    notifies the owning queue so its live-event counter stays exact.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        cancelled: bool = False,
        _queue: "EventQueue | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled
        self._queue = _queue

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            # Still pending in a queue: one fewer live event.
            queue._on_cancel()
            self._queue = None

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq}, "
            f"cancelled={self.cancelled})"
        )


class EventQueue:
    """Binary heap of events keyed by (time, insertion sequence)."""

    __slots__ = ("_heap", "_next_seq", "_n_live", "_free")

    def __init__(self) -> None:
        self._heap: list[_Entry] = []
        self._next_seq = 0
        self._n_live = 0
        # Recycled Event objects (see Simulator.run's refcount guard).
        self._free: list[Event] = []

    def __len__(self) -> int:
        return self._n_live

    def __bool__(self) -> bool:
        return self._n_live > 0

    def push(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute time ``time``.

        Raises:
            ValueError: unless ``0 <= time < inf``.  A NaN time would
                never compare equal to itself, so its timestamp batch
                could never be drained.
        """
        if not 0.0 <= time < _INF:
            raise ValueError(f"event time must be finite and >= 0, got {time}")
        seq = self._next_seq
        self._next_seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.cancelled = False
            event._queue = self
        else:
            event = Event(time, seq, callback, False, self)
        heapq.heappush(self._heap, [time, seq, event])
        self._n_live += 1
        return event

    def collect_batch(
        self,
        out: list[Event],
        limit: float | None = None,
        max_n: int | None = None,
    ) -> float | None:
        """Pop every live event sharing the earliest pending timestamp.

        Appends the events (scheduling order: the heap yields equal times
        in seq order) to ``out`` and returns their shared time, or
        returns None — consuming nothing — when the queue is empty or the
        head is later than ``limit``.  ``max_n`` caps how many events are
        popped (the remainder of the timestamp group stays queued, order
        intact).
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if not heap:
            return None
        t0: float = heap[0][0]
        if limit is not None and t0 > limit:
            return None
        if max_n is not None and max_n <= 0:
            return None
        n_popped = 0
        while heap and heap[0][0] == t0:
            entry = heappop(heap)
            event: Event = entry[2]
            if event.cancelled:
                continue
            entry[2] = None  # the dispatch loop now owns the only queue ref
            event._queue = None
            out.append(event)
            n_popped += 1
            if max_n is not None and n_popped >= max_n:
                break
        self._n_live -= n_popped
        return t0

    def requeue_front(self, events: list[Event]) -> None:
        """Put just-popped events back into the queue.

        Used by ``Simulator.run`` to restore the un-dispatched remainder
        of a batch when a callback raises.  The events carry their
        original (time, seq) keys, so pushing them back restores exactly
        the pre-batch order.
        """
        heappush = heapq.heappush
        n = 0
        for event in events:
            if event.cancelled:
                continue
            event._queue = self
            heappush(self._heap, [event.time, event.seq, event])
            n += 1
        self._n_live += n

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or None if empty."""
        heap = self._heap
        while heap:
            event: Event = heapq.heappop(heap)[2]
            if not event.cancelled:
                self._n_live -= 1
                # Out of the heap: a late cancel() must not decrement again.
                event._queue = None
                return event
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest live event without removing it.

        Cancelled events at the heap top are discarded here; they were
        already subtracted from the live counter when cancelled, so this
        cleanup never touches ``__len__``.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        t: float = heap[0][0]
        return t

    def _on_cancel(self) -> None:
        self._n_live -= 1
