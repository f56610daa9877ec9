"""The benchmark's workloads: trace shape, deployment and one replay.

Every workload serves llama-13b in CachedAttention mode on the
ShareGPT-like generator.  Session arrivals are open-loop Poisson at a
fixed rate; within a session the loop is closed, because a session's next
turn arrives one think time after its previous turn completes.  The
program receives only the generated trace.

* ``paper-overload`` -- the paper's Fig. 13-14 setting: 1.0 sessions/s
  with 128 GiB DRAM and 10 TiB SSD, about 3x past the CA knee.  The deep
  backlog gives the scheduler-aware prefetch and eviction windows the
  most work; latency here measures the backlog, not service.
* ``steady-tight`` -- 0.18 sessions/s, below the knee, with DRAM cut to
  8 GiB so about a third of hits come from SSD.  The queue stays short;
  SSD-channel contention sets the latency tail, so a store policy change
  shows here.
* ``fleet-shared`` -- a 2-replica affinity cluster with a partitioned
  store at 0.4 sessions/s in total; half the sessions start with one of a
  few shared 512-token prefixes.  The only workload that runs the router,
  KV migration and the store's content-addressed shared blocks.

The two rates below the knee sit where a run's simulated latency repeats
across seeds: at 0.25 sessions/s on ``steady-tight`` (GPU 93 % busy) and
0.5 on ``fleet-shared``, the p99 first-token latency of one replay varied
by 53 % and 28 % (coefficient of variation over 10 seeds), against 4 %
and 7 % at the rates used.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro import EngineConfig, GiB, HardwareConfig, StoreConfig, TiB, get_model
from repro.cluster import ClusterConfig, ClusterEngine, ClusterResult, RouterName
from repro.engine import RunResult, ServingEngine, TurnRecord
from repro.runner import seed_for
from repro.sim import Simulator
from repro.workload import Trace, WorkloadSpec, generate_trace
from speed import Speed

MODEL_NAME = "llama-13b"

#: A turn meets the latency limit when its first token comes at most this
#: many simulated seconds after it arrived; failed turns always miss.
TTFT_LIMIT_S = 2.0

#: Sessions per replay; every replay of every workload has this size.
SESSIONS = 2000

#: Replays per run whose simulated metrics are reported, each on its own
#: trace seed derived from the run's seed.
REPLAYS = 12

#: Host seconds of one drain slice; the host's speed is sampled after each.
SLICE_S = 0.04


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the deployment that serves it."""

    name: str
    arrival_rate: float
    dram_gib: int
    instances: int = 1
    shared_prefix_fraction: float = 0.0
    shared_prefix_len: int = 0
    n_shared_prefixes: int = 1

    def spec(self, seed: int) -> WorkloadSpec:
        return WorkloadSpec(
            n_sessions=SESSIONS,
            arrival_rate=self.arrival_rate,
            seed=seed,
            shared_prefix_fraction=self.shared_prefix_fraction,
            shared_prefix_len=self.shared_prefix_len,
            n_shared_prefixes=self.n_shared_prefixes,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-overload", arrival_rate=1.0, dram_gib=128),
        Workload("steady-tight", arrival_rate=0.18, dram_gib=8),
        Workload(
            "fleet-shared",
            arrival_rate=0.4,
            dram_gib=128,
            instances=2,
            shared_prefix_fraction=0.5,
            shared_prefix_len=512,
            n_shared_prefixes=4,
        ),
    )
}


def replay_seed(seed: int, workload: str, index: int) -> int:
    """Trace seed of replay ``index`` of a run started with ``seed``."""
    return seed_for(seed, f"{workload}/{index}")


def warmup_turns(sessions: int) -> int:
    """The paper warms the store with its first 10K of ~52K turns (~19 %);
    scale the same share to the replay size (5.75 turns per session)."""
    return int(sessions * 5.75 * 10 / 52)


@dataclass
class Replay:
    """What one replay leaves behind for metrics and checks."""

    trace: Trace
    server: ClusterEngine | ServingEngine
    result: RunResult | ClusterResult
    generate_s: float
    build_s: float
    drain_s: float
    summary_s: float

    @property
    def engines(self) -> list[ServingEngine]:
        server = self.server
        return server.engines if isinstance(server, ClusterEngine) else [server]

    @property
    def records(self) -> list[TurnRecord]:
        return [r for engine in self.engines for r in engine.metrics.records]

    @property
    def cycle_s(self) -> float:
        """Host seconds from trace generation to the printed summary."""
        return self.generate_s + self.build_s + self.drain_s + self.summary_s


def drain(sim: Simulator, speed: Speed) -> float:
    """Run ``sim`` until no event is left, in slices of about ``SLICE_S``
    host seconds with a speed sample after each; return the host seconds
    spent in ``sim.run``.

    A slice ends at ``run``'s ``max_events`` valve, which raises before the
    first event past the limit and leaves it queued, so the events run in
    the same order as in one ``run()``.
    """
    clock = time.perf_counter
    events = 1000
    spent = 0.0
    while True:
        limit = sim.events_processed + events
        start = clock()
        try:
            sim.run(max_events=limit)
            drained = True
        except RuntimeError:
            if sim.events_processed < limit:
                raise  # a callback's error, not the valve
            drained = False
        took = clock() - start
        spent += took
        speed.sample()
        if drained:
            return spent
        events = max(100, int(events * min(4.0, SLICE_S / max(took, 1e-4))))


def run_replay(
    workload: Workload,
    seed: int,
    speed: Speed,
    generate: Callable[..., Trace] = generate_trace,
) -> Replay:
    """Generate one trace, build the deployment, drain it, summarise,
    sampling the host's speed into ``speed`` between the steps."""
    clock = time.perf_counter
    speed.sample()
    t0 = clock()
    trace = generate(workload.spec(seed))
    generate_s = clock() - t0
    speed.sample()
    t0 = clock()
    model = get_model(MODEL_NAME)
    hardware = HardwareConfig().for_model(model)
    engine_config = EngineConfig(batch_size=model.default_batch_size)
    store_config = StoreConfig(dram_bytes=workload.dram_gib * GiB, ssd_bytes=10 * TiB)
    warmup = warmup_turns(SESSIONS)
    server: ClusterEngine | ServingEngine
    if workload.instances > 1:
        server = ClusterEngine(
            model,
            ClusterConfig(n_instances=workload.instances, router=RouterName.AFFINITY),
            hardware=hardware,
            engine_config=engine_config,
            store_config=store_config,
            warmup_turns=warmup,
            sanitize=False,
        )
    else:
        server = ServingEngine(
            model,
            hardware,
            engine_config,
            store_config,
            warmup_turns=warmup,
            sanitize=False,
        )
    server.schedule_trace(trace)
    build_s = clock() - t0
    speed.sample()
    drain_s = drain(server.sim, speed)
    t0 = clock()
    result = server.result()
    summary_s = clock() - t0
    speed.sample()
    return Replay(
        trace=trace,
        server=server,
        result=result,
        generate_s=generate_s,
        build_s=build_s,
        drain_s=drain_s,
        summary_s=summary_s,
    )
