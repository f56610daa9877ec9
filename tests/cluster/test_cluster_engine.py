"""Cluster serving behaviour: routing policies, KV placement, migration."""

import pytest

from repro.cluster import ClusterConfig, ClusterEngine, RouterName
from repro.config import EngineConfig, ServingMode, StoreConfig
from repro.models import GiB, get_model
from repro.store.item import Tier
from repro.workload import WorkloadSpec, generate_trace
from repro.workload.trace import Conversation, Trace, Turn


def cluster_trace(n_sessions=160, rate=4.0, seed=7):
    return generate_trace(
        WorkloadSpec(n_sessions=n_sessions, arrival_rate=rate, seed=seed)
    )


def run_cluster(router, n_instances=4, trace=None, **cluster_kwargs):
    engine = ClusterEngine(
        get_model("llama-13b"),
        cluster=ClusterConfig(
            n_instances=n_instances, router=router, **cluster_kwargs
        ),
        engine_config=EngineConfig(batch_size=8),
        store_config=StoreConfig(),
    )
    result = engine.run(trace if trace is not None else cluster_trace())
    return engine, result


class TestStorePartitioning:
    def test_capacity_is_sharded(self):
        engine, _ = run_cluster(RouterName.AFFINITY, trace=cluster_trace(20))
        base = StoreConfig()
        for replica in engine.engines:
            assert replica.store is not None
            assert replica.store.config.dram_bytes == base.dram_bytes // 4
            assert replica.store.config.ssd_bytes == base.ssd_bytes // 4

    def test_single_instance_keeps_full_capacity(self):
        engine = ClusterEngine(
            get_model("llama-13b"),
            cluster=ClusterConfig(n_instances=1),
            engine_config=EngineConfig(batch_size=8),
            store_config=StoreConfig(dram_bytes=32 * GiB),
        )
        assert engine.engines[0].store.config.dram_bytes == 32 * GiB

    def test_partitioning_can_be_disabled(self):
        engine = ClusterEngine(
            get_model("llama-13b"),
            cluster=ClusterConfig(n_instances=4, partition_store=False),
            engine_config=EngineConfig(batch_size=8),
            store_config=StoreConfig(dram_bytes=32 * GiB),
        )
        for replica in engine.engines:
            assert replica.store.config.dram_bytes == 32 * GiB


class TestRoutingPolicies:
    def test_affinity_preserves_hit_rate(self):
        _, affinity = run_cluster(RouterName.AFFINITY)
        _, rr = run_cluster(RouterName.ROUND_ROBIN)
        assert affinity.hit_rate > 0.9
        assert rr.hit_rate < affinity.hit_rate - 0.2

    def test_scatter_routers_drop_stale_copies(self):
        _, rr = run_cluster(RouterName.ROUND_ROBIN)
        assert rr.scatter_drops > 0
        assert rr.migrations == 0
        assert rr.net_bytes == 0

    def test_affinity_never_scatter_drops(self):
        _, result = run_cluster(RouterName.AFFINITY)
        assert result.scatter_drops == 0

    def test_affinity_spill_migrates_kv(self):
        # A zero spill threshold forces a migration whenever the home
        # replica is even slightly busier than the cluster minimum.
        _, result = run_cluster(
            RouterName.AFFINITY, affinity_spill_tokens=0
        )
        assert result.migrations > 0
        assert result.migrated_bytes > 0
        assert result.net_bytes >= result.migrated_bytes

    def test_all_turns_served_once(self):
        trace = cluster_trace()
        for router in RouterName:
            _, result = run_cluster(router, trace=trace)
            assert result.summary.n_turns == trace.n_turns_total


class TestKVPlacementInvariants:
    @pytest.mark.parametrize("router", list(RouterName))
    def test_at_most_one_copy_per_session(self, router):
        engine, _ = run_cluster(router)
        for replica in engine.engines:
            replica.store.check_invariants()
        homes = {}
        for index, replica in enumerate(engine.engines):
            for session_id in list(replica.store._items):
                assert session_id not in homes, (
                    f"session {session_id} cached on replicas "
                    f"{homes[session_id]} and {index}"
                )
                homes[session_id] = index

    def test_migrated_item_waits_for_transfer(self):
        engine, _ = run_cluster(RouterName.AFFINITY, trace=cluster_trace(20))
        source, target = engine.engines[0], engine.engines[1]
        item = source.store.save(999, 1000, now=0.0)
        assert item is not None
        extracted = source.store.extract(999)
        assert extracted is not None
        assert extracted.tier is Tier.DRAM
        admitted = target.store.admit_migrated(
            999, extracted.n_tokens, now=0.0, ready_at=42.0
        )
        assert admitted is not None
        assert admitted.dram_ready_at == 42.0
        assert target.store.lookup(999, now=1.0).ready_at == 42.0
        assert source.store.get(999) is None
        assert source.store.stats.migrations_out == 1
        assert target.store.stats.migrations_in == 1

    def test_extract_refuses_corrupt_items(self):
        engine, _ = run_cluster(RouterName.AFFINITY, trace=cluster_trace(20))
        store = engine.engines[0].store
        item = store.save(998, 500, now=0.0)
        item.corrupt = True
        assert store.extract(998) is None
        assert store.get(998) is None
        assert store.stats.migrations_out == 0


class TestRecomputeMode:
    def test_cluster_serves_without_store(self):
        engine = ClusterEngine(
            get_model("llama-13b"),
            cluster=ClusterConfig(n_instances=2, router=RouterName.LEAST_LOADED),
            engine_config=EngineConfig.recompute_baseline(batch_size=8),
        )
        result = engine.run(cluster_trace(40, rate=2.0))
        assert result.summary.n_turns > 0
        assert result.migrations == 0
        assert all(r.store_stats is None for r in result.replicas)
        assert result.replicas[0].mode is ServingMode.RECOMPUTE


class TestArrivals:
    def test_trace_keeps_one_pending_arrival(self):
        """Arrivals are chained: scheduling N sessions queues one arrival
        event, not N, and every session is still routed and served."""
        engine = ClusterEngine(
            get_model("llama-13b"),
            cluster=ClusterConfig(n_instances=2),
            engine_config=EngineConfig(batch_size=8),
            store_config=StoreConfig(),
        )
        trace = cluster_trace(n_sessions=40)
        engine.schedule_trace(trace)
        assert len(engine.sim._queue) == 1  # no TTL sweep or fault armed
        engine.sim.run()
        assert engine.result().summary.n_turns == trace.n_turns_total


class TestTtlExpiry:
    def test_idle_replica_keeps_expiring(self):
        """A replica's TTL sweep runs while the *run* has live sessions,
        not only while the replica itself serves one.

        Round-robin puts session 0 (one short turn) on replica 0 and
        session 1's arrival on replica 1; session 1's later turns then
        alternate between the two, 300 s apart.  Replica 0 is idle from
        t ~ 0 to the first of them at ~301 s, so its sweep chain must
        outlive that gap: session 0's KV expires there, and so do the two
        copies of session 1 that sit out a 300 s think time on it.  A
        chain that stops when the replica first goes idle expires none.
        """
        trace = Trace(
            [
                Conversation(0, 0.0, (Turn(50, 20),)),
                Conversation(
                    1,
                    1.0,
                    (Turn(50, 20),) + tuple(Turn(50, 20, 300.0) for _ in range(4)),
                ),
            ]
        )
        engine = ClusterEngine(
            get_model("llama-13b"),
            cluster=ClusterConfig(n_instances=2, router=RouterName.ROUND_ROBIN),
            engine_config=EngineConfig(batch_size=8),
            store_config=StoreConfig(ttl_seconds=200.0),
        )
        result = engine.run(trace)
        assert result.summary.makespan > 1200.0
        assert result.replicas[0].store_stats.expired == 3


class TestValidation:
    def test_empty_trace_rejected(self):
        engine = ClusterEngine(
            get_model("llama-13b"),
            cluster=ClusterConfig(n_instances=2),
            engine_config=EngineConfig(batch_size=8),
        )
        with pytest.raises(ValueError):
            engine.run(generate_trace(WorkloadSpec(n_sessions=1, seed=1)).__class__())
