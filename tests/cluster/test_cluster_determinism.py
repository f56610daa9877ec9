"""Cluster determinism and single-instance equivalence.

Two guarantees:

* the same trace and configuration produce bit-identical cluster results
  (the shared simulator breaks timestamp ties by insertion order, and every
  router tie-breaks by lowest replica index);
* a one-instance cluster is bit-identical to a standalone
  :class:`ServingEngine` under *every* router — the cluster layer adds no
  behaviour until there is more than one replica.  A Hypothesis property
  checks this over the golden-tape axes (TTL, tight DRAM, sharing, fault
  injection, streaming metrics, CA vs. RE).
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cluster import ClusterConfig, ClusterEngine, RouterName
from repro.config import EngineConfig, HardwareConfig, ServingMode, StoreConfig
from repro.engine import ServingEngine
from repro.faults import fault_profile
from repro.models import MiB, get_model
from repro.workload import WorkloadSpec, generate_trace


def make_trace(n_sessions=120, rate=4.0, seed=31):
    return generate_trace(
        WorkloadSpec(n_sessions=n_sessions, arrival_rate=rate, seed=seed)
    )


def cluster_snapshot(result):
    return (
        dataclasses.asdict(result.summary),
        [dataclasses.asdict(r.summary) for r in result.replicas],
        [
            dataclasses.asdict(r.store_stats)
            for r in result.replicas
            if r.store_stats is not None
        ],
        result.migrations,
        result.migrated_bytes,
        result.scatter_drops,
        result.net_bytes,
        result.events_processed,
    )


def run_cluster(trace, router, n_instances=4, fault_config=None):
    engine = ClusterEngine(
        get_model("llama-13b"),
        cluster=ClusterConfig(n_instances=n_instances, router=router),
        engine_config=EngineConfig(batch_size=8),
        store_config=StoreConfig(),
        fault_config=fault_config,
    )
    return engine.run(trace)


class TestClusterDeterminism:
    @pytest.mark.parametrize("router", list(RouterName))
    def test_same_config_same_results(self, router):
        trace = make_trace()
        a = cluster_snapshot(run_cluster(trace, router))
        b = cluster_snapshot(run_cluster(trace, router))
        assert a == b

    def test_deterministic_under_fault_injection(self):
        trace = make_trace(n_sessions=60)
        faults = fault_profile("chaos", seed=5)
        a = cluster_snapshot(
            run_cluster(trace, RouterName.AFFINITY, fault_config=faults)
        )
        b = cluster_snapshot(
            run_cluster(trace, RouterName.AFFINITY, fault_config=faults)
        )
        assert a == b

    def test_replica_fault_streams_are_independent(self):
        trace = make_trace(n_sessions=60)
        result = run_cluster(
            trace, RouterName.ROUND_ROBIN, fault_config=fault_profile("chaos", seed=5)
        )
        fault_counts = [
            r.store_stats.transfer_faults + r.store_stats.corrupt_misses
            for r in result.replicas
        ]
        # Same seed on every replica would produce identical streams; the
        # per-replica seed offset must decorrelate them.
        assert len(set(fault_counts)) > 1


class TestSingleInstanceEquivalence:
    @pytest.fixture(scope="class")
    def trace(self):
        return make_trace(n_sessions=80, rate=1.0)

    def single_result(self, trace, mode):
        model = get_model("llama-13b")
        if mode is ServingMode.RECOMPUTE:
            config = EngineConfig.recompute_baseline(batch_size=8)
            store = None
        else:
            config = EngineConfig(batch_size=8)
            store = StoreConfig()
        engine = ServingEngine(
            model,
            hardware=HardwareConfig().for_model(model),
            engine_config=config,
            store_config=store,
        )
        return engine.run(trace)

    @pytest.mark.parametrize("router", list(RouterName))
    def test_cached_mode_bit_identical(self, trace, router):
        reference = self.single_result(trace, ServingMode.CACHED)
        result = run_cluster(trace, router, n_instances=1)
        assert dataclasses.asdict(result.summary) == dataclasses.asdict(
            reference.summary
        )
        (replica,) = result.replicas
        assert dataclasses.asdict(replica.store_stats) == dataclasses.asdict(
            reference.store_stats
        )
        assert replica.pcie_bytes == reference.pcie_bytes
        assert replica.ssd_bytes == reference.ssd_bytes
        assert result.migrations == 0
        assert result.scatter_drops == 0
        assert result.net_bytes == 0

    def test_recompute_mode_bit_identical(self, trace):
        reference = self.single_result(trace, ServingMode.RECOMPUTE)
        model = get_model("llama-13b")
        engine = ClusterEngine(
            model,
            cluster=ClusterConfig(n_instances=1),
            hardware=HardwareConfig().for_model(model),
            engine_config=EngineConfig.recompute_baseline(batch_size=8),
        )
        result = engine.run(trace)
        assert dataclasses.asdict(result.summary) == dataclasses.asdict(
            reference.summary
        )


def _single_instance_pair(
    router, cached, ttl, rate, tight_dram, shared, chaos, streaming, seed
):
    """Run one workload on a standalone engine and on a 1-replica cluster."""
    model = get_model("llama-13b")
    spec = WorkloadSpec(
        n_sessions=16,
        arrival_rate=rate,
        seed=seed,
        mean_turns=2.0,
        think_time_mean=30.0,
        shared_prefix_fraction=0.5 if shared else 0.0,
        shared_prefix_len=512,
        n_shared_prefixes=2,
    )
    trace = generate_trace(spec)
    if cached:
        config = EngineConfig(batch_size=8)
        store = StoreConfig(
            dram_bytes=int(300 * MiB) if tight_dram else StoreConfig().dram_bytes,
            ttl_seconds=ttl,
        )
    else:
        config = EngineConfig.recompute_baseline(batch_size=8)
        store = None
    faults = fault_profile("chaos", seed=5) if chaos else None
    engine = ServingEngine(
        model,
        engine_config=config,
        store_config=store,
        fault_config=faults,
        streaming_metrics=streaming,
    )
    cluster = ClusterEngine(
        model,
        cluster=ClusterConfig(n_instances=1, router=router),
        engine_config=config,
        store_config=store,
        fault_config=faults,
        streaming_metrics=streaming,
    )
    return engine.run(trace), cluster.run(trace)


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    router=st.sampled_from(list(RouterName)),
    cached=st.booleans(),
    ttl=st.sampled_from([None, 150.0]),
    # 0.01 sessions/s leaves long gaps with no live session, which a TTL
    # sweep chain has to outlive.
    rate=st.sampled_from([0.01, 0.5]),
    tight_dram=st.booleans(),
    shared=st.booleans(),
    chaos=st.booleans(),
    streaming=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(
    router=RouterName.AFFINITY,
    cached=True,
    ttl=150.0,
    rate=0.01,
    tight_dram=False,
    shared=False,
    chaos=False,
    streaming=False,
    seed=37,
)
def test_single_instance_cluster_is_a_standalone_engine(
    router, cached, ttl, rate, tight_dram, shared, chaos, streaming, seed
):
    reference, result = _single_instance_pair(
        router, cached, ttl, rate, tight_dram, shared, chaos, streaming, seed
    )
    (replica,) = result.replicas
    assert dataclasses.asdict(result.summary) == dataclasses.asdict(
        reference.summary
    )
    if cached:
        assert dataclasses.asdict(replica.store_stats) == dataclasses.asdict(
            reference.store_stats
        )
    assert replica.pcie_bytes == reference.pcie_bytes
    assert replica.ssd_bytes == reference.ssd_bytes
    assert result.events_processed == reference.events_processed
