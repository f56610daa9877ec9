"""The discrete-event simulation loop.

``Simulator.run`` dispatches in *timestamp batches*: one
``collect_batch`` call settles the heap top and drains every event
sharing that timestamp, the clock advances once per unique time, and
the ``profiler``/``event_hook`` attribute checks are hoisted out of the
per-event inner loop into a pre-selected dispatch branch.  Events the
loop can prove are externally unreferenced are recycled onto the
queue's free list instead of being left to the allocator.

The queue is a single binary heap (:class:`~repro.sim.events.EventQueue`);
DESIGN.md §12 explains why no other core is kept.
"""

from __future__ import annotations

import gc
from sys import getrefcount
from typing import TYPE_CHECKING, Callable

from .clock import SimClock
from .events import _FREE_LIST_CAP, Event, EventQueue

if TYPE_CHECKING:
    from ..obs.profile import EventLoopProfiler

# While the dispatch loop runs an event, exactly three references to it
# exist when no component kept a handle: the batch buffer, the loop
# variable, and getrefcount's own argument (the queue entry's slot was
# nulled by collect_batch).  A count above the baseline means someone
# may still cancel() or inspect the event, so it must not be recycled.
_RECYCLE_BASELINE_REFS = 3


class Simulator:
    """Couples a :class:`SimClock` with an :class:`EventQueue`.

    Components schedule work with :meth:`at` (absolute time) or :meth:`after`
    (relative delay); :meth:`run` drains the queue in time order.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.clock = SimClock(start)
        self._queue = EventQueue()
        self._events_processed = 0
        # Observation point for sanitizers (repro.sanitize): called after
        # each executed event.  Re-read once per timestamp batch.
        self.event_hook: Callable[[Event], None] | None = None
        # Optional host-side profiler (repro.obs.profile): when set, it
        # dispatches each event (counting/timing around the same single
        # callback invocation).  Re-read once per timestamp batch.
        self.profiler: "EventLoopProfiler | None" = None

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self.clock._now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        return self._queue.push(time, callback)

    def after(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self._queue.push(self.clock._now + delay, callback)

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events in order, one collect per unique timestamp.

        Args:
            until: stop once the next event is later than this time (the
                clock is left at ``until``).  ``None`` drains the queue.
            max_events: safety valve; raise *before* running an event that
                would push the lifetime count past this limit.
        """
        queue = self._queue
        clock = self.clock
        free = queue._free
        collect_batch = queue.collect_batch
        advance_to = clock.advance_to
        buf: list[Event] = []
        processed = self._events_processed
        last_time = clock._now
        # Pause cyclic GC for the drain: event dispatch allocates closures
        # and records at a rate that keeps generation-0 collections firing
        # constantly, yet almost everything dies by refcount.  Cycles
        # created by callbacks are simply collected after the run (or at
        # the caller's next allocation burst).  GC timing never feeds back
        # into simulated time, so determinism is unaffected either way.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            while True:
                if max_events is not None and processed >= max_events:
                    head = queue.peek_time()
                    if head is not None and (until is None or head <= until):
                        raise RuntimeError(
                            f"simulation exceeded {max_events} events; "
                            "likely a scheduling loop"
                        )
                    break
                del buf[:]
                cap = None if max_events is None else max_events - processed
                t0 = collect_batch(buf, until, cap)
                if t0 is None:
                    break
                if t0 > last_time:
                    advance_to(t0)
                    last_time = t0
                # Select the dispatch branch once per batch: the common
                # unobserved case runs a bare inner loop with no
                # attribute checks per event.
                profiler = self.profiler
                hook = self.event_hook
                i = 0
                try:
                    if profiler is None and hook is None:
                        for event in buf:
                            # i counts consumed events: a raising callback
                            # consumed its event (it was popped), so i
                            # moves *before* the call and buf[i:] is
                            # exactly the not-yet-dispatched tail.
                            i += 1
                            # An earlier event in this batch may have
                            # cancelled a later one.
                            if event.cancelled:
                                continue
                            event.callback()
                            processed += 1
                            if (
                                getrefcount(event) == _RECYCLE_BASELINE_REFS
                                and len(free) < _FREE_LIST_CAP
                            ):
                                free.append(event)
                    else:
                        for event in buf:
                            i += 1
                            if event.cancelled:
                                continue
                            if profiler is not None:
                                profiler.run_event(event)
                            else:
                                event.callback()
                            processed += 1
                            if hook is not None:
                                hook(event)
                except BaseException:
                    # Restore the un-dispatched remainder so an aborted
                    # run leaves the queue as if events had been popped
                    # one at a time.
                    if i < len(buf):
                        queue.requeue_front(buf[i:])
                    raise
            if until is not None and until > clock._now:
                advance_to(until)
        finally:
            self._events_processed = processed
            if was_enabled:
                gc.enable()
