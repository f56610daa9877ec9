"""Per-layer metrics of a traced run.

Host times come from the :class:`~tracing.Tracer` spans.  Counts and
simulated figures come from the program's public outputs: ``RunResult``
or ``ClusterResult``, the engines' turn records, ``StoreStats`` and the
``Channel`` counters.  Counts and times are totals over the run's traced
replays; fractions and percentiles pool those replays.
"""

from __future__ import annotations

import statistics

from repro.cluster import ClusterResult
from tracing import Tracer
from workloads import Replay


def replay_layers(replay: Replay, scale: float) -> dict:
    """What one replay contributes to the per-layer metrics; ``scale``
    brings its host time to the reference speed (see ``speed.py``), so
    that the tracing overhead compares replays run at different speeds."""
    result = replay.result
    summary = result.summary
    engines = replay.engines
    records = replay.records
    evals = [r for r in records if r.in_eval_window]
    makespan = summary.makespan
    stats = [e.store.stats for e in engines if e.store is not None]
    convs = replay.trace.conversations
    out = {
        "replay_s": replay.cycle_s * scale,
        "drain_s": replay.drain_s,
        "turns_offered": sum(c.n_turns for c in convs),
        "shared_turns": sum(c.n_turns for c in convs if c.shared_prefix_tokens),
        "turns_completed": len(records),
        "events": result.events_processed,
        "ssd_busy_s": sum(e.ssd.busy_time for e in engines),
        "pcie_h2d_busy_s": sum(e.pcie_h2d.busy_time for e in engines),
        "replica_s": makespan * len(engines),
        "queue_s": sum(r.queue_delay for r in records),
        "prefetch_window": statistics.mean(
            e.store.prefetch_window_limit() for e in engines if e.store is not None
        ),
        "ssd_bytes": sum(e.ssd.bytes_moved for e in engines),
        "pcie_bytes": sum(
            e.pcie_h2d.bytes_moved + e.pcie_d2h.bytes_moved for e in engines
        ),
        "queue_waits": [r.queue_delay for r in evals],
        "prefills": [r.ttft for r in evals],
        "decode_stall_s": summary.decode_stall_time,
        "save_block_s": summary.save_block_time,
        "gpu_busy_s": summary.total_gpu_busy_time,
        "reused_tokens": summary.reused_tokens_total,
        "prompt_tokens": summary.prompt_tokens_total,
        "hits": summary.hits_dram + summary.hits_disk + summary.hits_hbm + summary.hits_shared,
        "disk_hits": summary.hits_disk,
        "demotions": sum(s.evicted_to_disk for s in stats),
        "evicted_out": sum(s.evicted_out for s in stats),
        "prefetched_bytes": sum(s.prefetched_bytes for s in stats),
        "save_rejections": sum(s.save_rejections for s in stats),
        "shared_hits": sum(s.shared_hits for s in stats),
        "cow_forks": sum(s.cow_forks for s in stats),
        "shared_dedup_bytes": sum(
            e.store.shared_dedup_bytes for e in engines if e.store is not None
        ),
        "records_retained": sum(len(e.metrics.records) for e in engines),
        "migrations": 0,
        "migrated_bytes": 0,
        "net_busy_frac": 0.0,
        "imbalance": 0.0,
    }
    if isinstance(result, ClusterResult):
        served = [len(e.metrics.records) for e in engines]
        out["migrations"] = result.migrations
        out["migrated_bytes"] = result.migrated_bytes
        out["net_busy_frac"] = replay.server.net.busy_time / makespan
        out["imbalance"] = max(served) / statistics.mean(served)
    return out


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, as ``statistics.quantiles(n=100)`` gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _pooled(values: list[list[float]], q: int) -> float:
    return percentile([v for vs in values for v in vs], q)


def property_shares(layers: dict) -> dict[str, float]:
    """The workload properties a layer change may depend on, from one
    replay's :func:`replay_layers`.

    Mean scheduler-queue length per replica comes from Little's law:
    total queueing time over replica-seconds.
    """
    mean_queue = layers["queue_s"] / layers["replica_s"]
    hits = layers["hits"]
    return {
        "disk_hit_share": layers["disk_hits"] / hits if hits else 0.0,
        "shared_prefix_turn_share": layers["shared_turns"] / layers["turns_offered"],
        "mean_queue_len": mean_queue,
        "prefetch_window": layers["prefetch_window"],
        "queue_over_window": mean_queue / layers["prefetch_window"],
    }


def per_layer(
    tracer: Tracer, traced: list[dict], untraced: list[dict]
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics from a run's traced and untraced replays."""

    def total(key: str) -> float:
        return sum(r[key] for r in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def most(key: str) -> float:
        return max(r[key] for r in traced)

    prefetch_calls = tracer.calls("store.prefetch")
    drain_s = total("drain_s")
    untraced_s = statistics.median(r["replay_s"] for r in untraced)
    traced_s = statistics.median(r["replay_s"] for r in traced)
    return {
        "workload.generate_s": (tracer.self_s("workload.generate"), "s"),
        "workload.turns_offered": (total("turns_offered"), "count"),
        "workload.shared_turn_frac": (
            ratio(total("shared_turns"), total("turns_offered")),
            "1",
        ),
        "sim.drain_s": (drain_s, "s"),
        "sim.events": (total("events"), "count"),
        "sim.events_per_turn": (ratio(total("events"), total("turns_completed")), "1"),
        "sim.dispatch_self_s": (tracer.self_s("sim.run"), "s"),
        "sim.channel.transfer_self_s": (tracer.self_s("sim.channel"), "s"),
        "sim.ssd.busy_frac": (ratio(total("ssd_busy_s"), total("replica_s")), "1"),
        "sim.pcie_h2d.busy_frac": (
            ratio(total("pcie_h2d_busy_s"), total("replica_s")),
            "1",
        ),
        "sim.ssd.bytes": (total("ssd_bytes"), "B"),
        "sim.pcie.bytes": (total("pcie_bytes"), "B"),
        "engine.callback_self_s": (tracer.self_s("engine.callback"), "s"),
        "engine.queue_wait_p50_s": (_pooled([r["queue_waits"] for r in traced], 50), "s"),
        "engine.queue_wait_p99_s": (_pooled([r["queue_waits"] for r in traced], 99), "s"),
        "engine.queue_depth_max": (tracer.queue_depth_max, "count"),
        "engine.queue_self_s": (tracer.self_s("engine.queue"), "s"),
        "engine.prefill_p50_s": (_pooled([r["prefills"] for r in traced], 50), "s"),
        "engine.batch_mean": (ratio(tracer.batch_sizes, tracer.decode_chunks), "count"),
        "engine.decode_stall_s": (total("decode_stall_s"), "s"),
        "engine.save_block_s": (total("save_block_s"), "s"),
        "engine.gpu_busy_frac": (ratio(total("gpu_busy_s"), total("replica_s")), "1"),
        "engine.reused_tok_frac": (
            ratio(total("reused_tokens"), total("prompt_tokens")),
            "1",
        ),
        "store.prefetch.calls": (prefetch_calls, "count"),
        "store.prefetch.self_s": (tracer.self_s("store.prefetch"), "s"),
        "store.prefetch.self_frac": (
            ratio(tracer.self_s("store.prefetch"), drain_s),
            "1",
        ),
        "store.prefetch.issue_frac": (ratio(tracer.fetches_issued, prefetch_calls), "1"),
        "store.save.calls": (tracer.calls("store.save"), "count"),
        "store.save.self_s": (tracer.self_s("store.save"), "s"),
        "store.lookup.self_s": (tracer.self_s("store.lookup"), "s"),
        "store.self_s": (tracer.self_s("store"), "s"),
        "store.demotions": (total("demotions"), "count"),
        "store.evicted_out": (total("evicted_out"), "count"),
        "store.prefetched_bytes": (total("prefetched_bytes"), "B"),
        "store.disk_hit_frac": (ratio(total("disk_hits"), total("hits")), "1"),
        "store.save_rejections": (total("save_rejections"), "count"),
        "store.shared.hits": (total("shared_hits"), "count"),
        "store.shared.lookup_self_s": (tracer.self_s("store.shared.lookup"), "s"),
        "store.cow_forks": (total("cow_forks"), "count"),
        "store.shared_dedup_bytes": (most("shared_dedup_bytes"), "B"),
        "hardware.perf.calls": (tracer.calls("hardware.perf"), "count"),
        "hardware.perf.self_s": (tracer.self_s("hardware.perf"), "s"),
        "metrics.record.self_s": (
            tracer.self_s("metrics.record_turn") + tracer.self_s("metrics.record_turns"),
            "s",
        ),
        "metrics.summarise.self_s": (tracer.self_s("metrics.summarise"), "s"),
        "metrics.records_retained": (most("records_retained"), "count"),
        "cluster.route.calls": (tracer.calls("cluster.route"), "count"),
        "cluster.route.self_s": (tracer.self_s("cluster.route"), "s"),
        "cluster.affinity_frac": (
            ratio(tracer.routes_kept_home, tracer.routes_with_home),
            "1",
        ),
        "cluster.migrations": (total("migrations"), "count"),
        "cluster.migrated_bytes": (total("migrated_bytes"), "B"),
        "cluster.net.busy_frac": (
            statistics.mean(r["net_busy_frac"] for r in traced),
            "1",
        ),
        "cluster.imbalance": (statistics.mean(r["imbalance"] for r in traced), "1"),
        "obs.trace_overhead_frac": ((traced_s - untraced_s) / untraced_s, "1"),
    }
