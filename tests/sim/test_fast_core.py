"""Contract tests for the batched dispatch loop in ``Simulator.run``.

The loop drains one timestamp group per ``collect_batch`` call.  These
tests pin what that batching must not change: the clock advances once
per unique timestamp, a raising callback leaves the rest of its batch
queued, ``max_events`` may split a batch, and an event cancelled by an
earlier event of its own batch does not fire.  Whole-replay identity is
pinned by the golden tapes in ``test_golden_tapes.py``.
"""

import pytest

from repro.sim import Simulator


class TestBatchedDispatchLoop:
    def test_advance_to_called_once_per_unique_timestamp(self):
        """The clock moves once per timestamp batch, not once per event."""
        sim = Simulator()

        class CountingClock:
            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            @property
            def _now(self):
                return self._inner._now

            @property
            def now(self):
                return self._inner.now

            def advance_to(self, time):
                self.calls += 1
                self._inner.advance_to(time)

        fired = []
        for t in (0.0, 0.0, 1.0, 1.0, 1.0, 2.0):
            sim.at(t, lambda t=t: fired.append(t))
        counting = CountingClock(sim.clock)
        sim.clock = counting
        sim.run()
        assert fired == [0.0, 0.0, 1.0, 1.0, 1.0, 2.0]
        # t=0.0 needs no advance (the clock starts there); 1.0 and 2.0
        # take one call each regardless of batch width.
        assert counting.calls == 2

    def test_exception_requeues_undispatched_tail_only(self):
        """A raising callback aborts the run: the raising event is
        consumed, later same-time events stay queued and the run can
        resume."""
        sim = Simulator()
        seen = []

        def boom():
            seen.append("boom")
            raise RuntimeError("kaboom")

        sim.at(1.0, lambda: seen.append("a"))
        sim.at(1.0, boom)
        sim.at(1.0, lambda: seen.append("b"))
        with pytest.raises(RuntimeError, match="kaboom"):
            sim.run()
        assert seen == ["a", "boom"]
        assert len(sim._queue) == 1
        assert sim.events_processed == 1
        sim.run()
        assert seen == ["a", "boom", "b"]
        assert sim.events_processed == 2

    def test_max_events_counts_like_legacy_mid_batch(self):
        """``max_events`` may split a timestamp batch; the guard fires at
        exactly the event count an event-at-a-time loop would reach."""
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.at(1.0, lambda i=i: fired.append(i))
        with pytest.raises(RuntimeError, match="exceeded 3 events"):
            sim.run(max_events=3)
        assert fired == [0, 1, 2]
        assert sim.events_processed == 3
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_cancel_within_batch_skips_event(self):
        """An event cancelled by an earlier same-timestamp event must not
        fire, although it was already collected into the batch."""
        # The canceller is scheduled first, so it dispatches first and
        # the victim, already inside the same collected batch, must be
        # skipped.
        sim = Simulator()
        fired = []
        victim_box = []
        sim.at(1.0, lambda: victim_box[0].cancel())
        victim_box.append(sim.at(1.0, lambda: fired.append("victim")))
        # And a cancellation from a strictly earlier timestamp.
        second = []
        sim2 = Simulator()
        sim2.at(1.0, lambda: second.append("first"))
        victim2 = sim2.at(1.0, lambda: second.append("victim"))
        sim2.at(0.5, victim2.cancel)
        sim.run()
        sim2.run()
        assert fired == []
        assert second == ["first"]

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=7.5)
        assert sim.now == 7.5
