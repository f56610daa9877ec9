"""Eviction policies for AttentionStore tiers.

The paper compares its scheduler-aware policy (Section 3.3.2) against LRU
and FIFO (Figure 21).  A policy picks one victim at a time; the store calls
it repeatedly until enough space is free.

Victim selection is O(scan_limit), not O(n log n): tiers maintain LRU/FIFO
orderings incrementally and the scheduler queue answers position queries in
O(1), so the policies walk a bounded prefix of those orderings instead of
sorting the full resident set on every eviction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import islice
from typing import AbstractSet, Iterable, Iterator, Protocol, runtime_checkable

from .item import KVCacheItem
from .tier import StorageTier


@runtime_checkable
class QueueView(Protocol):
    """The scheduler-queue visibility AttentionStore policies rely on."""

    def position(self, session_id: int) -> int | None:
        """Distance of the session's earliest waiting job from the queue
        head, or None if the session has no waiting job."""

    def head_window(self, k: int) -> list[int]:
        """Distinct session ids of the first ``k`` waiting jobs, head first
        (a session has at most one waiting job)."""

    def tail_window(self, k: int) -> Iterator[int]:
        """Session ids of the last ``k`` waiting jobs, tail first."""

    def __len__(self) -> int: ...


class EmptyQueueView:
    """A queue view with no waiting jobs (for tests and history-only use)."""

    def position(self, session_id: int) -> int | None:
        return None

    def position_map(self) -> tuple[dict[int, int], int]:
        return {}, 0

    def head_window(self, k: int) -> list[int]:
        return []

    def tail_window(self, k: int) -> Iterator[int]:
        return iter(())

    def __len__(self) -> int:
        return 0


class ListQueueView:
    """Queue view over a static list of distinct upcoming session ids
    (head first); a repeated id raises ``ValueError``, as it does in
    :meth:`~repro.engine.queue.SchedulerQueue.push`."""

    def __init__(self, session_ids: Iterable[int]) -> None:
        self._ids = list(session_ids)
        self._pos = {sid: idx for idx, sid in enumerate(self._ids)}
        if len(self._pos) != len(self._ids):
            raise ValueError(f"duplicate session ids in queue view {self._ids}")

    def position(self, session_id: int) -> int | None:
        return self._pos.get(session_id)

    def position_map(self) -> tuple[dict[int, int], int]:
        return self._pos, 0

    def head_window(self, k: int) -> list[int]:
        return self._ids[:k]

    def tail_window(self, k: int) -> Iterator[int]:
        # Slice the last k directly instead of reversing the whole list
        # first (O(k), not O(n)).  -0 would slice the entire list, so an
        # empty window needs its own exit.
        if k <= 0:
            return iter(())
        return reversed(self._ids[-k:])

    def __len__(self) -> int:
        return len(self._ids)


def _evictable(item: KVCacheItem, pinned: AbstractSet[int]) -> bool:
    return item.session_id not in pinned and not item.fetch_in_flight


class EvictionPolicy(ABC):
    """Chooses the next eviction victim in a tier."""

    name: str = "abstract"

    @abstractmethod
    def choose_victim(
        self,
        tier: StorageTier,
        queue: QueueView,
        pinned: AbstractSet[int] = frozenset(),
    ) -> KVCacheItem | None:
        """Return the next item to evict from ``tier``, or None if every
        resident item is pinned or in flight."""


class LRUPolicy(EvictionPolicy):
    """Least-recently-used: evict the item idle the longest."""

    name = "lru"

    def choose_victim(
        self,
        tier: StorageTier,
        queue: QueueView,
        pinned: AbstractSet[int] = frozenset(),
    ) -> KVCacheItem | None:
        for item in tier.iter_lru():
            if _evictable(item, pinned):
                return item
        return None


class FIFOPolicy(EvictionPolicy):
    """First-in-first-out: evict the item that entered the tier earliest."""

    name = "fifo"

    def choose_victim(
        self,
        tier: StorageTier,
        queue: QueueView,
        pinned: AbstractSet[int] = frozenset(),
    ) -> KVCacheItem | None:
        for item in tier.iter_fifo():
            if _evictable(item, pinned):
                return item
        return None


class SchedulerAwarePolicy(EvictionPolicy):
    """The paper's scheduler-aware eviction (Section 3.3.2).

    Rules, in order:

    1. An item whose session appears in the look-ahead eviction window (the
       next ``window_limit`` waiting jobs) is *exempted* while any item
       outside the window exists; outside-window items are evicted
       LRU-first.
    2. If every candidate has a waiting job inside the window, the window is
       scanned from *tail to head* and the first item found resident in the
       tier is evicted — the job needed furthest in the future loses its
       cache last-minute protection first.

    Both scans are bounded by ``scan_limit`` so a single eviction stays
    O(scan_limit) even with thousands of residents and a deep backlog; the
    LRU-ordered walk makes the bounded scan coincide with the exact policy
    in all but adversarial cases.
    """

    name = "scheduler-aware"

    def __init__(self, window_limit: int | None = None, scan_limit: int = 128) -> None:
        if scan_limit <= 0:
            raise ValueError(f"scan_limit must be positive, got {scan_limit}")
        self.window_limit = window_limit
        self.scan_limit = scan_limit

    def choose_victim(
        self,
        tier: StorageTier,
        queue: QueueView,
        pinned: AbstractSet[int] = frozenset(),
    ) -> KVCacheItem | None:
        limit = self.window_limit if self.window_limit is not None else len(queue)
        # Hundreds of candidates get a position query per eviction; views
        # exposing ``position_map`` (the scheduler queue and the built-in
        # views) let the scan replace per-item ``queue.position`` method
        # calls with one dict lookup.  ``position(sid)`` is exactly
        # ``seqs.get(sid) - head`` for these views, so the decision stream
        # is unchanged; unknown views fall back to the protocol method.
        seqs: dict[int, int] | None
        position_map = getattr(queue, "position_map", None)
        if position_map is not None:
            seqs, head = position_map()
        else:
            seqs, head = None, 0
        scan_limit = self.scan_limit
        queue_position = queue.position
        # Pass 1: oldest items without a queued job inside the window.
        furthest: KVCacheItem | None = None
        furthest_pos = -1
        scanned = 0
        for item in tier.iter_lru():
            if scanned >= scan_limit:
                break
            scanned += 1
            if item.session_id in pinned or item.fetch_in_flight:
                continue
            if seqs is None:
                pos = queue_position(item.session_id)
            else:
                seq = seqs.get(item.session_id)
                pos = None if seq is None else seq - head
            if pos is None or pos >= limit:
                return item
            if pos > furthest_pos:
                furthest_pos = pos
                furthest = item
        # Pass 2: every scanned candidate has a job inside the window —
        # the paper scans the window tail-to-head, i.e. the resident item
        # whose job is furthest in the future goes first.  Finish the exact
        # scan over the whole tier when the bounded pass missed items,
        # resuming past the prefix pass 1 already examined instead of
        # re-scanning it from the tier head.
        if len(tier) > scan_limit:
            for item in islice(tier.iter_lru(), scan_limit, None):
                if item.session_id in pinned or item.fetch_in_flight:
                    continue
                if seqs is None:
                    pos = queue_position(item.session_id)
                else:
                    seq = seqs.get(item.session_id)
                    pos = None if seq is None else seq - head
                if pos is None or pos >= limit:
                    return item
                if pos > furthest_pos:
                    furthest_pos = pos
                    furthest = item
        return furthest
