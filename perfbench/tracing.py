"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces the public entry points of each layer with
wrappers that time the call and hand back its result unchanged, so a
traced replay simulates exactly what an untraced one does.  A span is
``(id, name, start, end, parent id, key)``; the key is the session id
where the wrapped call takes one.  Spans stay in memory and are written
once, when the run ends.  A layer's self time is its spans' time minus
the time of the wrapped calls made inside them.

Wrappers must be installed before engines are built: ``ServingEngine``
binds ``PerfModel.decode_segment_time_from_sum`` at construction, and a
binding taken earlier would bypass the wrapper.
"""

from __future__ import annotations

import gzip
import json
import time
from pathlib import Path
from typing import Any, Callable

from repro.cluster import Router
from repro.engine import BatchState, MetricsCollector, SchedulerQueue
from repro.hardware.perf import PerfModel
from repro.sim import Channel, Simulator
from repro.store import AttentionStore

#: Store calls that serve or change the store, each with the position of
#: its session-id argument (``self`` is 0), or None when it takes none.
#: Accessors are left out: they are called from inside these and would
#: only add overhead.
STORE_METHODS = {
    "lookup": 1,
    "save": 1,
    "save_to_hbm_cache": 1,
    "drop": 1,
    "invalidate": 1,
    "truncate": 1,
    "apply_discard_list": 1,
    "extract": 1,
    "discard_stale": 1,
    "decommission": None,
    "record_migration_loss": None,
    "admit_migrated": 1,
    "register_shared": None,
    "lookup_shared": None,
    "acquire_shared": 2,
    "release_shared": 1,
    "prefetch": None,
    "complete_fetch": 1,
    "sweep_expired": None,
    "wipe_volatile": None,
    "restore_offline": None,
    "lose_tier": None,
}

PERF_METHODS = (
    "prefill_time",
    "prefill_time_per_token",
    "decode_step_time",
    "decode_segment_time",
    "decode_segment_time_from_sum",
    "kv_transfer_time",
    "kv_load_time_per_token",
    "read_buffer_bytes",
)


def _arg(position: int | None) -> Callable[[tuple], Any] | None:
    if position is None:
        return None
    return lambda args: args[position]


class Tracer:
    """Spans and per-name totals of the wrapped calls of one run."""

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.spans: list[tuple] = []
        #: Whether finished spans are kept for :meth:`write` (totals are
        #: always kept).
        self.keep_spans = True
        self.queue_depth_max = 0
        self.batch_sizes = 0
        self.decode_chunks = 0
        self.routes_with_home = 0
        self.routes_kept_home = 0
        self.fetches_issued = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._installed: list[tuple[type, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        key: Callable[[tuple], Any] | None = None,
        observe: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if tracer.keep_spans:
                    tracer.spans.append(
                        (span_id, name, start, end, parent, key(args) if key else None)
                    )
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _matching(self, layer: str) -> list[list]:
        return [
            t
            for name, t in self.totals.items()
            if name == layer or name.startswith(layer + ".")
        ]

    def self_s(self, layer: str) -> float:
        """Self seconds of the spans named ``layer`` or ``layer.*``."""
        return sum(t[2] for t in self._matching(layer))

    def calls(self, layer: str) -> int:
        """Calls of the spans named ``layer`` or ``layer.*``."""
        return sum(t[0] for t in self._matching(layer))

    # ------------------------------------------------------------------
    # Installation on the program's classes
    # ------------------------------------------------------------------
    def _patch(self, owner: type, attr: str, name: str, **kwargs: Any) -> None:
        original = owner.__dict__[attr]
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kwargs))

    def install(self) -> None:
        """Wrap every traced entry point (undo with :meth:`uninstall`)."""
        for attr, position in STORE_METHODS.items():
            self._patch(
                AttentionStore,
                attr,
                "store.shared.lookup" if attr == "lookup_shared" else f"store.{attr}",
                key=_arg(position),
                observe=self._count_fetches if attr == "prefetch" else None,
            )
        for attr in PERF_METHODS:
            self._patch(PerfModel, attr, f"hardware.perf.{attr}")
        self._patch(Channel, "transfer", "sim.channel.transfer")
        self._patch(Simulator, "run", "sim.run")
        self._patch(
            SchedulerQueue,
            "push",
            "engine.queue.push",
            key=lambda args: args[1].session_id,
            observe=self._observe_push,
        )
        self._patch(SchedulerQueue, "pop", "engine.queue.pop")
        self._patch(
            BatchState,
            "advance_and_share",
            "engine.batch.advance_and_share",
            observe=self._observe_decode_chunk,
        )
        self._patch(MetricsCollector, "record_turn", "metrics.record_turn")
        self._patch(MetricsCollector, "record_turns", "metrics.record_turns")
        self._patch(MetricsCollector, "summarise", "metrics.summarise")
        for router in Router.__subclasses__():
            if "route" in router.__dict__:
                self._patch(
                    router,
                    "route",
                    "cluster.route",
                    key=_arg(1),
                    observe=self._observe_route,
                )
        self._wrap_scheduling(Simulator, "at")
        self._wrap_scheduling(Simulator, "after")

    def _wrap_scheduling(self, owner: type, attr: str) -> None:
        """Give every callback handed to ``Simulator.at/after`` a span."""
        original = owner.__dict__[attr]
        self._installed.append((owner, attr, original))
        wrapped: dict[str, Callable] = {}
        wrap = self.wrap

        def schedule(sim: Simulator, when: float, callback: Callable[[], None]) -> Any:
            name = getattr(callback, "__name__", None) or type(callback).__name__
            runner = wrapped.get(name)
            if runner is None:
                runner = wrapped[name] = wrap(f"engine.callback.{name}", _invoke)
            return original(sim, when, lambda: runner(callback))

        setattr(owner, attr, schedule)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    # Counts taken at the wrapped boundaries
    # ------------------------------------------------------------------
    def _observe_push(self, args: tuple, _result: Any) -> None:
        depth = len(args[0])
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth

    def _observe_decode_chunk(self, args: tuple, finished: list) -> None:
        # Finished jobs have left the batch when the call returns.
        self.decode_chunks += 1
        self.batch_sizes += len(args[0]) + len(finished)

    def _observe_route(self, args: tuple, target: int) -> None:
        home = args[2]
        if home is not None:
            self.routes_with_home += 1
            if target == home:
                self.routes_kept_home += 1

    def _count_fetches(self, _args: tuple, issued: list) -> None:
        self.fetches_issued += len(issued)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write the kept spans as gzipped JSON lines, one span a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span_id, name, start, end, parent, key in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "session": key,
                        }
                    )
                )
                out.write("\n")


def _invoke(callback: Callable[[], None]) -> None:
    callback()
