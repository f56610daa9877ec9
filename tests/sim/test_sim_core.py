"""Tests for the discrete-event simulation substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Channel, ChannelPair, EventQueue, SimClock, Simulator


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_rejects_backwards(self):
        clock = SimClock(10.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(5.0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    @pytest.mark.parametrize("start", [float("nan"), float("inf")])
    def test_rejects_non_finite_start(self, start):
        with pytest.raises(ValueError, match="finite"):
            SimClock(start)

    def test_advance_to_same_time_ok(self):
        clock = SimClock(3.0)
        clock.advance_to(3.0)
        assert clock.now == 3.0


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("b"))
        q.push(1.0, lambda: fired.append("a"))
        while q:
            event = q.pop()
            event.callback()
        assert fired == ["a", "b"]

    def test_ties_broken_by_insertion(self):
        q = EventQueue()
        fired = []
        q.push(1.0, lambda: fired.append(1))
        q.push(1.0, lambda: fired.append(2))
        q.pop().callback()
        q.pop().callback()
        assert fired == [1, 2]

    def test_cancellation(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        event.cancel()
        assert q.pop() is None
        assert len(q) == 0

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        first.cancel()
        assert q.peek_time() == 2.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, lambda: None)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_pop_order_is_sorted(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, lambda: None)
        popped = []
        while q:
            popped.append(q.pop().time)
        assert popped == sorted(times)


class TestEventQueueLiveCounter:
    """``__len__``/``__bool__`` come from a live-event counter maintained
    on push/pop/cancel; these interleavings pin down the bookkeeping that
    lazy deletion makes easy to get wrong (cancelled events linger in the
    heap, and ``peek_time`` discards them as a side effect)."""

    def test_cancel_then_peek_then_len(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        first.cancel()
        assert len(q) == 1
        # peek_time pops the cancelled heap top; the counter already
        # accounted for it at cancel time and must not move again.
        assert q.peek_time() == 2.0
        assert len(q) == 1
        assert bool(q)

    def test_peek_then_cancel_then_len(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert q.peek_time() == 1.0
        first.cancel()
        assert len(q) == 1
        assert q.peek_time() == 2.0

    def test_double_cancel_decrements_once(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(q) == 1

    def test_cancel_after_pop_does_not_underflow(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert q.pop() is event
        # The event left the queue when popped; a late cancel is a no-op
        # on the counter.
        event.cancel()
        assert len(q) == 1
        assert q.pop() is not None
        assert len(q) == 0
        assert not q

    def test_cancel_all_then_peek_empties(self):
        q = EventQueue()
        events = [q.push(float(i), lambda: None) for i in range(5)]
        for event in events:
            event.cancel()
        assert len(q) == 0
        assert not q
        assert q.peek_time() is None
        assert q.pop() is None
        assert len(q) == 0

    def test_interleaved_cancel_peek_pop_matches_count(self):
        q = EventQueue()
        events = [q.push(float(i), lambda: None) for i in range(10)]
        for event in events[::2]:
            event.cancel()
        assert len(q) == 5
        assert q.peek_time() == 1.0
        assert len(q) == 5
        popped = []
        while q:
            popped.append(q.pop().time)
        assert popped == [1.0, 3.0, 5.0, 7.0, 9.0]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["push", "pop", "peek", "cancel"]),
                st.floats(min_value=0, max_value=100),
            ),
            max_size=80,
        )
    )
    def test_len_matches_reference_model(self, ops):
        """Counter-based len always equals the number of live events."""
        q = EventQueue()
        live: list = []  # reference: events pushed, not popped/cancelled
        pushed: list = []
        for op, t in ops:
            if op == "push":
                pushed.append(q.push(t, lambda: None))
                live.append(pushed[-1])
            elif op == "pop":
                was_empty = not live
                event = q.pop()
                assert (event is None) == was_empty
                if event is not None:
                    assert event is min(live, key=lambda e: (e.time, e.seq))
                    live.remove(event)
            elif op == "peek":
                time = q.peek_time()
                if live:
                    assert time == min(e.time for e in live)
                else:
                    assert time is None
            elif op == "cancel" and pushed:
                victim = pushed[int(t) % len(pushed)]
                victim.cancel()
                if victim in live:
                    live.remove(victim)
            assert len(q) == len(live)
            assert bool(q) == bool(live)


class TestSimulator:
    def test_runs_in_order(self):
        sim = Simulator()
        seen = []
        sim.at(3.0, lambda: seen.append(3))
        sim.at(1.0, lambda: seen.append(1))
        sim.run()
        assert seen == [1, 3]
        assert sim.now == 3.0

    def test_after_is_relative(self):
        sim = Simulator(start=10.0)
        times = []
        sim.after(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [15.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.after(2.0, lambda: seen.append(("inner", sim.now)))

        sim.at(1.0, outer)
        sim.run()
        assert seen == [("outer", 1.0), ("inner", 3.0)]

    def test_run_until_stops(self):
        sim = Simulator()
        seen = []
        sim.at(1.0, lambda: seen.append(1))
        sim.at(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.now == 5.0
        sim.run()
        assert seen == [1, 10]

    def test_rejects_past_scheduling(self):
        sim = Simulator(start=5.0)
        with pytest.raises(ValueError, match="past"):
            sim.at(1.0, lambda: None)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    @pytest.mark.parametrize("schedule", ["at", "after"])
    def test_rejects_non_finite_time(self, schedule, time):
        # A NaN event would never be drained (NaN != NaN splits its
        # timestamp batch), so run() would spin; inf would jump the
        # clock to infinity.  Both must fail at scheduling time.
        sim = Simulator()
        with pytest.raises(ValueError, match="finite"):
            getattr(sim, schedule)(time, lambda: None)
        assert len(sim._queue) == 0

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.after(0.0, loop)

        sim.at(0.0, loop)
        with pytest.raises(RuntimeError, match="events"):
            sim.run(max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestChannel:
    def test_duration(self):
        ch = Channel("x", bandwidth=100.0)
        assert ch.duration(50) == pytest.approx(0.5)

    def test_transfer_when_idle(self):
        ch = Channel("x", bandwidth=100.0)
        assert ch.transfer(0.0, 100) == pytest.approx(1.0)

    def test_transfers_queue_fifo(self):
        ch = Channel("x", bandwidth=100.0)
        ch.transfer(0.0, 100)
        assert ch.transfer(0.0, 100) == pytest.approx(2.0)

    def test_idle_gap_resets_queue(self):
        ch = Channel("x", bandwidth=100.0)
        ch.transfer(0.0, 100)
        assert ch.transfer(10.0, 100) == pytest.approx(11.0)

    def test_accounting(self):
        ch = Channel("x", bandwidth=100.0)
        ch.transfer(0.0, 100)
        ch.transfer(0.0, 300)
        assert ch.bytes_moved == 400
        assert ch.busy_time == pytest.approx(4.0)

    def test_utilisation(self):
        ch = Channel("x", bandwidth=100.0)
        ch.transfer(0.0, 100)
        assert ch.utilisation(2.0) == pytest.approx(0.5)
        assert ch.utilisation(0.0) == 0.0

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            Channel("x", bandwidth=0.0)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            Channel("x", bandwidth=1.0).duration(-1)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=10**6),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_completions_monotone_for_sorted_issues(self, requests):
        """FIFO property: issuing in time order completes in time order."""
        ch = Channel("x", bandwidth=1e3)
        completions = [
            ch.transfer(now, n) for now, n in sorted(requests, key=lambda r: r[0])
        ]
        assert completions == sorted(completions)

    @given(
        st.floats(min_value=0, max_value=10),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_transfer_never_faster_than_bandwidth(self, now, n_bytes):
        ch = Channel("x", bandwidth=1e3)
        done = ch.transfer(now, n_bytes)
        assert done >= now + n_bytes / 1e3 - 1e-9


class TestChannelPair:
    def test_slower_first_hop_dominates(self):
        slow = Channel("ssd", bandwidth=100.0)
        fast = Channel("pcie", bandwidth=1000.0)
        done = ChannelPair(slow, fast).transfer(0.0, 1000)
        # Streaming: the 10s first hop dominates; the second hop drains
        # concurrently as bytes arrive.
        assert done == pytest.approx(10.0)

    def test_slower_second_hop_dominates(self):
        fast = Channel("ssd", bandwidth=1000.0)
        slow = Channel("pcie", bandwidth=100.0)
        done = ChannelPair(fast, slow).transfer(0.0, 1000)
        assert done == pytest.approx(10.0)

    def test_second_hop_queueing_respected(self):
        first = Channel("ssd", bandwidth=1000.0)
        second = Channel("pcie", bandwidth=1000.0)
        second.transfer(0.0, 5000)  # second hop busy until t=5
        done = ChannelPair(first, second).transfer(0.0, 1000)
        assert done == pytest.approx(6.0)

    def test_both_channels_occupied(self):
        slow = Channel("ssd", bandwidth=100.0)
        fast = Channel("pcie", bandwidth=1000.0)
        ChannelPair(slow, fast).transfer(0.0, 1000)
        assert slow.bytes_moved == 1000
        assert fast.bytes_moved == 1000
