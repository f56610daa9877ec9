"""Session routers for multi-instance cluster serving.

A router picks which replica serves a request.  It is consulted once per
turn: at session arrival (``home`` is None) and again after every think
time, so a policy can rebalance mid-conversation.  All routers break ties
by the lowest replica index, which keeps cluster runs deterministic.

The interesting policy is :class:`AffinityRouter` — CachedAttention's KV
caches make routing *stateful*: a session's history lives in exactly one
replica's AttentionStore, so sending the session anywhere else forfeits
the cache hit (or forces a migration over the inter-host network).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Sequence

from .config import RouterName

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.engine import ServingEngine


class NoRoutableReplica(LookupError):
    """Every replica is unroutable (crashed, draining or stopped)."""


def _all_routable(index: int) -> bool:
    return True


class Router(ABC):
    """Picks the replica index that serves a session's next turn."""

    name: RouterName

    def __init__(self, engines: "Sequence[ServingEngine]") -> None:
        if not engines:
            raise ValueError("a router needs at least one replica")
        self.engines = engines
        # Availability predicate: replicas it rejects (down, draining or
        # stopped) are never returned.  The cluster installs its
        # lifecycle check; standalone routers treat every replica as up.
        self.routable: Callable[[int], bool] = _all_routable

    @abstractmethod
    def route(self, session_id: int, home: int | None) -> int:
        """Return the replica index for this turn.

        ``home`` is the replica that served the session's previous turn
        (None for a new session).

        Raises:
            NoRoutableReplica: when no replica is currently routable.
        """

    def least_loaded(self) -> int:
        """Index of the routable replica with the fewest queued + admitted
        tokens, lowest index winning ties (deterministic)."""
        best = -1
        best_load = 0
        for index, engine in enumerate(self.engines):
            if not self.routable(index):
                continue
            load = engine.load_tokens
            if best < 0 or load < best_load:
                best, best_load = index, load
        if best < 0:
            raise NoRoutableReplica("no healthy replica to route to")
        return best


class RoundRobinRouter(Router):
    """Scatter requests over the replicas in strict rotation.

    Oblivious to both load and cache placement; over partitioned
    AttentionStores it sends most turns away from their KV and the hit
    rate collapses — the baseline the affinity router is measured against.
    """

    name = RouterName.ROUND_ROBIN

    def __init__(self, engines: "Sequence[ServingEngine]") -> None:
        super().__init__(engines)
        self._next = 0

    def route(self, session_id: int, home: int | None) -> int:
        for _ in range(len(self.engines)):
            index = self._next
            self._next = (self._next + 1) % len(self.engines)
            if self.routable(index):
                return index
        raise NoRoutableReplica("no healthy replica to route to")


class LeastLoadedRouter(Router):
    """Send every request to the currently least-loaded replica.

    Balances queue depth well but ignores cache placement, so multi-turn
    sessions still wander between replicas whenever loads shift.
    """

    name = RouterName.LEAST_LOADED

    def route(self, session_id: int, home: int | None) -> int:
        return self.least_loaded()


class AffinityRouter(Router):
    """Cache-aware routing: keep a session on the replica holding its KV.

    New sessions go to the least-loaded replica.  Returning sessions go
    home — unless the home replica's load exceeds the cluster minimum by
    more than ``spill_tokens``, in which case the session spills to the
    least-loaded replica and the cluster migrates its KV cache there.
    """

    name = RouterName.AFFINITY

    def __init__(
        self, engines: "Sequence[ServingEngine]", spill_tokens: int = 16384
    ) -> None:
        super().__init__(engines)
        if spill_tokens < 0:
            raise ValueError(f"spill_tokens must be >= 0, got {spill_tokens}")
        self.spill_tokens = spill_tokens

    def route(self, session_id: int, home: int | None) -> int:
        if home is None or not self.routable(home):
            # New session — or the home replica is down/draining, so
            # affinity is forfeit and the session lands wherever load is
            # lowest (its history recomputes or migrates there).
            return self.least_loaded()
        target = self.least_loaded()
        home_load = self.engines[home].load_tokens
        if home_load - self.engines[target].load_tokens > self.spill_tokens:
            return target
        return home


def make_router(
    name: RouterName,
    engines: "Sequence[ServingEngine]",
    *,
    spill_tokens: int = 16384,
) -> Router:
    """Instantiate a router by configuration name."""
    if name is RouterName.ROUND_ROBIN:
        return RoundRobinRouter(engines)
    if name is RouterName.LEAST_LOADED:
        return LeastLoadedRouter(engines)
    if name is RouterName.AFFINITY:
        return AffinityRouter(engines, spill_tokens=spill_tokens)
    raise ValueError(f"unknown router {name!r}")
