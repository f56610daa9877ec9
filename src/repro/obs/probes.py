"""Probes: read simulator state into a :class:`MetricsRegistry`.

These run *after* a serving run (they read aggregate state; nothing here
touches the event loop), translating engine/store/channel internals into
the registry's stable export namespace:

* ``turns.*`` / ``hits.*`` — lookup outcome counters and hit/miss/
  fallback rates from the run summary;
* ``store.<tier>.*`` — per-tier occupancy (used/capacity bytes, item
  count, occupancy fraction);
* ``store.stats.*`` — every :class:`~repro.store.attention_store.
  StoreStats` counter (evictions, prefetches, faults, migrations);
* ``channel.<name>.*`` — bytes moved, busy seconds, and utilisation over
  the run's makespan;
* ``sim.*`` — events processed;
* ``span.<name>`` histograms — span durations ingested from a tracer.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from .registry import MetricsRegistry
from .spans import SpanTracer

if TYPE_CHECKING:
    from ..cluster.engine import ClusterEngine
    from ..engine.engine import ServingEngine
    from ..sim.channel import Channel
    from ..store.attention_store import AttentionStore


def collect_engine_metrics(
    engine: "ServingEngine",
    registry: MetricsRegistry | None = None,
    prefix: str = "",
) -> MetricsRegistry:
    """Populate a registry from one engine after its run drained.

    ``prefix`` namespaces the metrics (a cluster probe uses the replica
    name) and is applied to every name emitted here.
    """
    registry = registry if registry is not None else MetricsRegistry()
    summary = engine.metrics.summarise()

    registry.counter(f"{prefix}turns.served", summary.n_turns)
    registry.counter(f"{prefix}turns.lookups", summary.n_lookups)
    registry.counter(f"{prefix}hits.hbm", summary.hits_hbm)
    registry.counter(f"{prefix}hits.dram", summary.hits_dram)
    registry.counter(f"{prefix}hits.disk", summary.hits_disk)
    registry.counter(f"{prefix}misses", summary.misses)
    registry.counter(f"{prefix}fallbacks", summary.fallbacks)
    registry.gauge(f"{prefix}rates.hit", summary.hit_rate)
    registry.gauge(f"{prefix}rates.dram_hit", summary.dram_hit_rate)
    registry.gauge(f"{prefix}rates.disk_hit", summary.disk_hit_rate)
    registry.gauge(
        f"{prefix}rates.fallback",
        summary.fallbacks / summary.n_lookups if summary.n_lookups else 0.0,
    )
    registry.gauge(f"{prefix}latency.mean_ttft_s", summary.mean_ttft)
    registry.gauge(f"{prefix}latency.p95_ttft_s", summary.p95_ttft)
    registry.gauge(f"{prefix}latency.mean_queue_delay_s", summary.mean_queue_delay)
    registry.gauge(f"{prefix}gpu.busy_s", summary.total_gpu_busy_time)
    registry.gauge(f"{prefix}run.makespan_s", summary.makespan)
    registry.counter(f"{prefix}sim.events_processed", engine.sim.events_processed)

    if engine.store is not None:
        _collect_store(engine.store, registry, prefix)
    for channel in (engine.pcie_h2d, engine.pcie_d2h, engine.ssd):
        _collect_channel(channel, registry, prefix, summary.makespan)
    return registry


def collect_cluster_metrics(cluster: "ClusterEngine") -> MetricsRegistry:
    """Cluster-level registry: pooled rates plus per-replica namespaces."""
    registry = MetricsRegistry()
    result = cluster.result()
    summary = result.summary
    registry.gauge("cluster.rates.hit", summary.hit_rate)
    registry.gauge(
        "cluster.aggregate_prefill_throughput",
        result.aggregate_prefill_throughput,
    )
    registry.counter("cluster.migrations", result.migrations)
    registry.counter("cluster.migrated_bytes", result.migrated_bytes)
    registry.counter("cluster.scatter_drops", result.scatter_drops)
    registry.counter("cluster.sim.events_processed", result.events_processed)
    # Replica-lifecycle outcomes (all zero without a fault schedule).
    registry.counter("cluster.crashes", result.crashes)
    registry.counter("cluster.restarts", result.restarts)
    registry.counter("cluster.drains", result.drains)
    registry.counter("cluster.lost_turns", result.lost_turns)
    registry.counter("cluster.failovers", result.failovers)
    registry.counter("cluster.failover_retries", result.failover_retries)
    registry.counter("cluster.parked_turns", result.parked_turns)
    registry.counter(
        "cluster.failover_recompute_tokens", result.failover_recompute_tokens
    )
    registry.gauge("cluster.total_downtime_s", result.total_downtime_s)
    registry.gauge("cluster.mttr_s", result.mttr_s)
    _collect_channel(cluster.net, registry, "cluster.", summary.makespan)
    for engine in cluster.engines:
        collect_engine_metrics(engine, registry, prefix=f"{engine.name}.")
    return registry


def ingest_tracer_spans(
    tracer: SpanTracer, registry: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Fold span durations into per-name histograms and counters.

    Gives the registry the latency *distributions* behind the trace —
    ``span.prefill`` / ``span.decode`` / ``span.queue-wait`` quantiles —
    without the engine hot path writing a single registry entry.
    """
    registry = registry if registry is not None else MetricsRegistry()
    for span in tracer.spans:
        registry.counter(f"span.{span.name}.count")
        registry.observe(f"span.{span.name}", span.end - span.start)
    for aspan in tracer.async_spans:
        registry.counter(f"span.{aspan.name}.count")
        registry.observe(f"span.{aspan.name}", aspan.end - aspan.start)
    return registry


def _collect_store(
    store: "AttentionStore",
    registry: MetricsRegistry,
    prefix: str,
) -> None:
    for tier in (store.hbm_tier, store.dram_tier, store.disk_tier):
        name = f"{prefix}store.{tier.tier.value}"
        registry.gauge(f"{name}.used_bytes", tier.used_bytes)
        registry.gauge(f"{name}.capacity_bytes", tier.capacity_bytes)
        registry.gauge(f"{name}.items", len(tier))
        registry.gauge(
            f"{name}.occupancy",
            tier.used_bytes / tier.capacity_bytes if tier.capacity_bytes else 0.0,
        )
    for field in dataclasses.fields(store.stats):
        registry.counter(
            f"{prefix}store.stats.{field.name}",
            getattr(store.stats, field.name),
        )


def _collect_channel(
    channel: "Channel",
    registry: MetricsRegistry,
    prefix: str,
    makespan: float,
) -> None:
    name = f"{prefix}channel.{channel.name}"
    registry.counter(f"{name}.bytes_moved", channel.bytes_moved)
    registry.gauge(f"{name}.busy_s", channel.busy_time)
    registry.gauge(f"{name}.utilisation", channel.utilisation(makespan))
