"""Preallocated continuation objects for the engine's turn lifecycle.

The original turn path scheduled a fresh closure per event — an
epoch-guard wrapper (``_after_epoch``'s ``fire``) around a capture
lambda for every decode chunk, prefill slice, save block and think-time
timer.  At replay scale that is two allocations and two call frames per
event, and the profiler collapsed 98 % of loop time into two anonymous
closure names (see DESIGN.md §13).

This module replaces the pattern with small ``__slots__`` callables:

* **Epoch-guarded continuations** (:class:`DecodeChunkDone`,
  :class:`PrefillSliceDone`, :class:`SaveBlockDone`, :class:`TtlSweep`)
  store the crash epoch they were scheduled under and no-op when the
  engine's epoch has moved — exactly the ``_after_epoch`` semantics,
  with the check inlined into ``__call__`` instead of a wrapper frame.
  The event still *fires* (a crash cannot unschedule it), so event
  counts stay bit-identical to the closure implementation.
* **Single-flight reuse**: the GPU serialises prefill slices, decode
  chunks and save blocks, so at most one instance of each continuation
  is pending at a time.  The engine preallocates one of each and
  mutates its fields at schedule time — zero per-event allocation.  A
  crash drops the preallocated set (:meth:`ServingEngine.crash` calls
  ``_init_continuations``): a stale instance may still sit in the event
  queue, and reusing it would alias the old scheduled event with the
  new work's fields, turning the epoch no-op into an early fire.
* **Per-session reuse**: :class:`NextTurnTimer` lives on the
  :class:`~repro.engine.session.SessionState` and is rescheduled for
  every think-time gap (one pending timer per session, and think timers
  deliberately survive crashes — clients keep typing into an outage).
* **Per-trace reuse**: :class:`StreamArrival` is a trace's single
  pending arrival, rescheduled at each next conversation; engines and
  clusters share it.
* **Named one-shots** (:class:`FetchDone`, :class:`TierLoss`,
  :class:`RouteAttempt`):
  allocated where several can be in flight at once, still slotted and
  class-named so the event-loop profiler attributes cost to the
  operation instead of to ``<locals>.<lambda>``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

if TYPE_CHECKING:
    from ..sim.loop import Simulator
    from ..store.attention_store import AttentionStore
    from ..store.item import Tier
    from ..workload.trace import Conversation
    from .batching import ActiveJob
    from .engine import ServingEngine, TurnCounter
    from .session import SessionState

#: Placeholder for not-yet-scheduled slots; never invoked (the engine
#: always assigns real fields before handing a continuation to the
#: simulator).
_UNSET = None


class StreamArrival:
    """The single pending session arrival of a trace (engine or cluster).

    Constructing it schedules the trace's first arrival.  When it fires,
    this same instance is rescheduled at the next conversation pulled
    from ``stream`` *before* ``start`` begins ``conv`` (an engine's
    ``start_session``, a cluster's route-then-start), so the chain never
    depends on serving progress and arrival state is O(1).  Each
    scheduled arrival counts in ``counter.live_sessions`` until its
    session finishes, so TTL sweep chains outlive gaps between sessions.
    """

    __slots__ = ("sim", "counter", "start", "stream", "conv")

    def __init__(
        self,
        sim: "Simulator",
        counter: "TurnCounter",
        start: "Callable[[Conversation], None]",
        trace: "Iterable[Conversation]",
    ) -> None:
        self.sim = sim
        self.counter = counter
        self.start = start
        self.stream: "Iterator[Conversation]" = iter(trace)
        first = next(self.stream, None)
        if first is None:
            raise ValueError("cannot run an empty trace")
        self._schedule(first)

    def _schedule(self, conv: "Conversation") -> None:
        self.counter.live_sessions += 1
        self.conv = conv
        self.sim.at(conv.arrival_time, self)

    def __call__(self) -> None:
        conv = self.conv
        nxt = next(self.stream, None)
        if nxt is not None:
            if nxt.arrival_time < conv.arrival_time:
                raise ValueError(
                    "trace is not arrival-ordered: "
                    f"{nxt.arrival_time} after {conv.arrival_time}"
                )
            self._schedule(nxt)
        self.start(conv)


class NextTurnTimer:
    """A session's think-time timer; fires the next turn's submission.

    One instance per session, created at the first completion and
    rescheduled for every later turn (at most one is pending per
    session).  ``engine`` is refreshed at schedule time because a
    cluster may complete consecutive turns of one session on different
    replicas; the routing hook is read at fire time, matching the
    hook's installed-for-the-whole-run contract.  Deliberately *not*
    epoch-guarded: think timers survive replica crashes.
    """

    __slots__ = ("engine", "session")

    def __init__(self, engine: "ServingEngine", session: "SessionState") -> None:
        self.engine = engine
        self.session = session

    def __call__(self) -> None:
        engine = self.engine
        hook = engine.next_turn_hook
        if hook is not None:
            hook(engine, self.session)
        else:
            engine.submit_next_turn(self.session)


class PrefillSliceDone:
    """End of one (possibly chunked) prefill slice; epoch-guarded."""

    __slots__ = ("engine", "epoch", "job", "remaining_slices", "slice_duration")

    def __init__(self, engine: "ServingEngine") -> None:
        self.engine = engine
        self.epoch = engine._epoch
        self.job: "ActiveJob | None" = _UNSET
        self.remaining_slices = 0
        self.slice_duration = 0.0

    def __call__(self) -> None:
        engine = self.engine
        if engine._epoch == self.epoch:
            job = self.job
            assert job is not None
            engine._on_prefill_slice_done(
                job, self.remaining_slices, self.slice_duration
            )


class ResumePrefill:
    """Continuation of a paused chunked prefill after a piggybacked
    decode chunk.  Invoked synchronously by the (already epoch-guarded)
    decode-done/save-done handlers, so it carries no epoch itself."""

    __slots__ = ("engine", "job", "remaining_slices", "slice_duration")

    def __init__(self, engine: "ServingEngine") -> None:
        self.engine = engine
        self.job: "ActiveJob | None" = _UNSET
        self.remaining_slices = 0
        self.slice_duration = 0.0

    def __call__(self) -> None:
        job = self.job
        assert job is not None
        self.engine._continue_prefill(
            job, self.remaining_slices, self.slice_duration
        )


class DecodeChunkDone:
    """End of one decode chunk; epoch-guarded."""

    __slots__ = ("engine", "epoch", "n_iters", "duration", "batch_len", "resume")

    def __init__(self, engine: "ServingEngine") -> None:
        self.engine = engine
        self.epoch = engine._epoch
        self.n_iters = 0
        self.duration = 0.0
        self.batch_len = 0
        self.resume: ResumePrefill | None = _UNSET

    def __call__(self) -> None:
        engine = self.engine
        if engine._epoch == self.epoch:
            engine._on_decode_chunk_done(
                self.n_iters, self.duration, self.batch_len, self.resume
            )


class SaveBlockDone:
    """End of the residual KV write-back blocking window; epoch-guarded."""

    __slots__ = ("engine", "epoch", "resume")

    def __init__(self, engine: "ServingEngine") -> None:
        self.engine = engine
        self.epoch = engine._epoch
        self.resume: ResumePrefill | None = _UNSET

    def __call__(self) -> None:
        engine = self.engine
        if engine._epoch == self.epoch:
            engine._on_save_block_done(self.resume)


class TtlSweep:
    """Self-rescheduling TTL expiry sweep; epoch-guarded so a sweep
    armed before a crash does not race the one restart() re-arms."""

    __slots__ = ("engine", "epoch")

    def __init__(self, engine: "ServingEngine") -> None:
        self.engine = engine
        self.epoch = engine._epoch

    def __call__(self) -> None:
        engine = self.engine
        if engine._epoch == self.epoch:
            engine._ttl_sweep()


class FetchDone:
    """Completion of one scheduler-aware prefetch transfer.

    Allocated per prefetch (several can be in flight concurrently), but
    slotted and class-named for the profiler.
    """

    __slots__ = ("store", "session_id")

    def __init__(self, store: "AttentionStore", session_id: int) -> None:
        self.store = store
        self.session_id = session_id

    def __call__(self) -> None:
        self.store.complete_fetch(self.session_id)


class TierLoss:
    """A fault-injected storage-tier loss at an absolute time."""

    __slots__ = ("store", "tier")

    def __init__(self, store: "AttentionStore", tier: "Tier") -> None:
        self.store = store
        self.tier = tier

    def __call__(self) -> None:
        self.store.lose_tier(self.tier)


class RouteAttempt:
    """A deferred cluster routing attempt, ``route(*args, attempt)``: a
    crash-orphaned turn after the detection delay, or a retry while no
    replica was routable.  One per attempt, slotted for the profiler."""

    __slots__ = ("route", "args", "attempt")

    def __init__(
        self, route: "Callable[..., None]", args: "tuple[Any, ...]", attempt: int
    ) -> None:
        self.route = route
        self.args = args
        self.attempt = attempt

    def __call__(self) -> None:
        self.route(*self.args, self.attempt)
