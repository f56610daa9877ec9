"""Golden tapes: checked-in digests of full replays at fixed seeds.

Each tape pins what a replay observably produces — the ``RunResult``
(or ``ClusterResult``), every per-turn record, the tracer's spans,
counter samples and async spans, the number of dispatched events and the
final simulated clock — as sha256 digests of their ``repr``.  Any change
to event order or float arithmetic anywhere in the simulator shows up as
a digest mismatch.

Every tape also runs with a ``SimSanitizer`` and an ``EventLoopProfiler``
installed: those route dispatch through the loop's observed branch, which
must not change a single digest.

A change that alters simulated behaviour on purpose regenerates the file
(and says why in its commit)::

    PYTHONPATH=src python tests/sim/test_golden_tapes.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, ClusterEngine, RouterName
from repro.config import EngineConfig, StoreConfig
from repro.engine import ServingEngine
from repro.faults import FaultConfig, ReplicaCrash, ReplicaFaultSchedule, fault_profile
from repro.models import GiB, MiB, get_model
from repro.obs import EventLoopProfiler, SpanTracer
from repro.workload import LognormalSpec, WorkloadSpec, generate_trace

TAPES_PATH = Path(__file__).with_name("golden_tapes.json")
MODEL = get_model("llama-13b")


def _digest(obj: object) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _replay(server: ServingEngine | ClusterEngine, spec: WorkloadSpec, observed: bool):
    """Run ``server`` traced (and profiled when ``observed``); return the
    result and its tape."""
    tracer = SpanTracer()
    if isinstance(server, ClusterEngine):
        tracer.attach_cluster(server)
        engines = server.engines
    else:
        tracer.attach_engine(server)
        engines = [server]
    if observed:
        EventLoopProfiler().install(server.sim)
    result = server.run(generate_trace(spec))
    return result, {
        "result": _digest(result),
        "records": _digest([engine.metrics.records for engine in engines]),
        "spans": _digest(tracer.spans),
        "counters": _digest(tracer.counters),
        "async_spans": _digest(tracer.async_spans),
        "events_processed": server.sim.events_processed,
        "now": server.sim.now,
    }


def _engine(observed: bool, **kwargs) -> ServingEngine:
    """One engine on a 300 MiB DRAM tier: spill, prefetch and eviction."""
    return ServingEngine(
        MODEL,
        engine_config=EngineConfig(batch_size=8),
        store_config=StoreConfig(dram_bytes=int(300 * MiB)),
        sanitize=observed,
        **kwargs,
    )


def tight_dram_replay(observed: bool) -> dict:
    _, tape = _replay(_engine(observed), WorkloadSpec(n_sessions=50, seed=17), observed)
    return tape


def chaos_replay(observed: bool) -> dict:
    """Transfer faults, corruption, loss, SSD degradation, a DRAM wipe."""
    engine = _engine(observed, fault_config=fault_profile("chaos", seed=5))
    spec = WorkloadSpec(n_sessions=60, arrival_rate=0.1, seed=23)
    result, tape = _replay(engine, spec, observed)
    assert result.store_stats.transfer_faults > 0
    assert result.store_stats.corrupt_misses + result.store_stats.lost_items > 0
    return tape


def shared_cluster_replay(observed: bool) -> dict:
    """Two affinity-routed replicas, shared prefixes and one crash."""
    crash = ReplicaCrash(at=30.0, replica=1, downtime=20.0)
    cluster = ClusterEngine(
        MODEL,
        cluster=ClusterConfig(n_instances=2, router=RouterName.AFFINITY),
        engine_config=EngineConfig(batch_size=8),
        store_config=StoreConfig(dram_bytes=4 * GiB),
        fault_config=FaultConfig(
            seed=3, replica_schedule=ReplicaFaultSchedule(crashes=(crash,))
        ),
        sanitize=observed,
    )
    spec = WorkloadSpec(
        n_sessions=60,
        arrival_rate=2.0,
        seed=29,
        shared_prefix_fraction=0.5,
        shared_prefix_len=512,
        n_shared_prefixes=4,
    )
    result, tape = _replay(cluster, spec, observed)
    assert result.crashes == 1
    assert result.summary.hits_shared > 0 and result.migrations > 0
    return tape


def shared_single_replay(observed: bool) -> dict:
    """One engine with shared prefixes, a TTL, tight DRAM and turns long
    enough to overflow the context window: copy-on-write forks and expiry."""
    engine = ServingEngine(
        MODEL,
        engine_config=EngineConfig(batch_size=8),
        store_config=StoreConfig(dram_bytes=4 * GiB, ttl_seconds=150.0),
        sanitize=observed,
    )
    spec = WorkloadSpec(
        n_sessions=40,
        arrival_rate=0.5,
        seed=37,
        mean_turns=8.0,
        a_tokens=LognormalSpec(mu=6.5, sigma=0.6, minimum=8, maximum=4096),
        think_time_mean=30.0,
        shared_prefix_fraction=0.8,
        shared_prefix_len=512,
        n_shared_prefixes=2,
    )
    result, tape = _replay(engine, spec, observed)
    assert result.store_stats is not None
    assert result.store_stats.cow_forks > 0
    assert result.summary.hits_shared > 0
    assert result.store_stats.expired > 0
    return tape


TAPES = {
    "tight-dram": tight_dram_replay,
    "chaos": chaos_replay,
    "shared-cluster": shared_cluster_replay,
    "shared-single": shared_single_replay,
}


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "observed"])
@pytest.mark.parametrize("name", sorted(TAPES))
def test_replay_matches_golden_tape(name, observed):
    assert TAPES[name](observed) == json.loads(TAPES_PATH.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    tapes = {name: run(False) for name, run in sorted(TAPES.items())}
    TAPES_PATH.write_text(json.dumps(tapes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {TAPES_PATH}")
