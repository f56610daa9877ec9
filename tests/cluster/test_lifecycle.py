"""Replica lifecycle: crash/restart/drain with session failover.

The failure model (DESIGN.md §11): a crash wipes the replica's volatile
KV (HBM + DRAM) and kills its in-flight turns, but the SSD tier survives
and is re-admitted at restart; a graceful drain migrates live sessions
out before stopping.  With failover on, interrupted and newly-arriving
turns are re-routed to healthy replicas (recomputing history when the KV
died with the replica); with it off, they park until the replica
returns — the naive-restart baseline.
"""

import dataclasses

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    ReplicaLifecycle,
    ReplicaState,
    RouterName,
)
from repro.config import EngineConfig, StoreConfig
from repro.faults import (
    FaultConfig,
    ReplicaCrash,
    ReplicaDrain,
    ReplicaFaultSchedule,
)
from repro.models import get_model
from repro.workload import WorkloadSpec, generate_trace
from repro.workload.trace import Conversation, Trace, Turn

MODEL = get_model("llama-13b")


def chaos_trace(n_sessions=80, rate=4.0, seed=7):
    return generate_trace(
        WorkloadSpec(n_sessions=n_sessions, arrival_rate=rate, seed=seed)
    )


def tight_store():
    """Small-DRAM store so KV actually reaches the SSD tier pre-crash."""
    return StoreConfig(
        dram_bytes=40_000 * MODEL.kv_bytes_per_token,
        ssd_bytes=2_000_000 * MODEL.kv_bytes_per_token,
    )


def run_chaos(
    schedule,
    *,
    failover=True,
    n_instances=3,
    router=RouterName.AFFINITY,
    trace=None,
    store_config=None,
    sanitize=None,
):
    engine = ClusterEngine(
        MODEL,
        cluster=ClusterConfig(
            n_instances=n_instances, router=router, failover=failover
        ),
        engine_config=EngineConfig(batch_size=8),
        store_config=store_config or StoreConfig(),
        fault_config=FaultConfig(seed=3, replica_schedule=schedule),
        sanitize=sanitize,
    )
    result = engine.run(trace if trace is not None else chaos_trace())
    return engine, result


def one_crash(at=60.0, replica=1, downtime=45.0):
    return ReplicaFaultSchedule(
        crashes=(ReplicaCrash(at=at, replica=replica, downtime=downtime),)
    )


class TestCrashRestart:
    def test_failover_serves_every_turn(self):
        trace = chaos_trace()
        engine, result = run_chaos(one_crash(), trace=trace)
        assert result.summary.n_turns == trace.n_turns_total
        assert result.crashes == 1
        assert result.restarts == 1
        assert result.failovers > 0
        assert result.failover_recompute_tokens > 0
        assert result.total_downtime_s == 45.0
        assert result.mttr_s == 45.0
        life = engine.lifecycles[1]
        assert life.state is ReplicaState.UP
        assert (life.crashes, life.restarts) == (1, 1)

    def test_ssd_copies_survive_and_failed_over_copies_discard(self):
        engine, _ = run_chaos(
            one_crash(), n_instances=2, store_config=tight_store()
        )
        stats = engine.engines[1].store.stats
        # Both restart paths fire: sessions that stayed homed here get
        # their surviving SSD copy back; sessions that failed over during
        # the downtime have an authoritative copy elsewhere, so the
        # parked one is discarded (exactly-one-copy across the restart).
        assert stats.restart_readmissions > 0
        assert stats.restart_discards > 0

    def test_naive_restart_parks_turns(self):
        trace = chaos_trace()
        engine, result = run_chaos(
            one_crash(),
            trace=trace,
            n_instances=2,
            store_config=tight_store(),
            failover=False,
        )
        assert result.summary.n_turns == trace.n_turns_total
        assert result.parked_turns > 0
        assert result.failovers == 0
        assert result.failover_recompute_tokens == 0
        # Parked sessions resume against their re-admitted SSD copy.
        assert engine.engines[1].store.stats.restart_readmissions > 0

    def test_all_replicas_down_holds_and_retries(self):
        trace = chaos_trace(n_sessions=40)
        schedule = ReplicaFaultSchedule(
            crashes=(
                ReplicaCrash(at=30.0, replica=0, downtime=20.0),
                ReplicaCrash(at=30.0, replica=1, downtime=20.0),
            )
        )
        _, result = run_chaos(schedule, n_instances=2, trace=trace)
        assert result.summary.n_turns == trace.n_turns_total
        assert result.failover_retries > 0

    def test_returning_turn_retries_back_off(self):
        """Every routing retry backs off exponentially, returning turns
        included.  Replica 1 is down from t=5 to t=45 and replica 0
        drains from t=10, so the session's second turn (due at ~30 s)
        finds no routable replica; retrying after 0.5, 1, 2, 4 and 8 s
        reaches t=45.6, past the restart, in five retries (a flat 0.5 s
        would take 30)."""
        trace = Trace(
            [Conversation(0, 0.0, (Turn(50, 20), Turn(50, 20, 30.0)))]
        )
        schedule = ReplicaFaultSchedule(
            crashes=(ReplicaCrash(at=5.0, replica=1, downtime=40.0),),
            drains=(ReplicaDrain(at=10.0, replica=0),),
        )
        _, result = run_chaos(schedule, n_instances=2, trace=trace)
        assert result.summary.n_turns == 2
        assert result.failover_retries == 5

    def test_sanitized_chaos_run_is_clean(self):
        schedule = ReplicaFaultSchedule(
            crashes=(ReplicaCrash(at=30.0, replica=1, downtime=40.0),),
            drains=(ReplicaDrain(at=120.0, replica=0),),
        )
        trace = chaos_trace()
        _, result = run_chaos(schedule, trace=trace, sanitize=True)
        assert result.summary.n_turns == trace.n_turns_total


class TestDrain:
    def test_drain_migrates_out_and_stops(self):
        trace = chaos_trace()
        schedule = ReplicaFaultSchedule(drains=(ReplicaDrain(at=60.0, replica=0),))
        engine, result = run_chaos(schedule, trace=trace)
        assert result.summary.n_turns == trace.n_turns_total
        assert result.drains == 1
        life = engine.lifecycles[0]
        assert life.state is ReplicaState.STOPPED
        assert life.drain_finished_at is not None
        # "Migrate, then stop": nothing is left behind, and live sessions
        # took their KV with them over the cluster link.
        assert len(engine.engines[0].store) == 0
        assert result.migrations > 0

    def test_drain_preserves_kv_under_scatter_routers(self):
        trace = chaos_trace()
        schedule = ReplicaFaultSchedule(drains=(ReplicaDrain(at=60.0, replica=0),))
        engine, result = run_chaos(
            schedule, trace=trace, router=RouterName.ROUND_ROBIN
        )
        assert result.summary.n_turns == trace.n_turns_total
        assert engine.lifecycles[0].state is ReplicaState.STOPPED
        # Forced drain migrations move KV even though round-robin would
        # normally scatter-drop it.
        assert result.migrations > 0

    def test_crash_cancels_drain(self):
        # Drain during the arrival burst (in-flight turns keep the drain
        # polling), then crash the draining replica before it empties.
        trace = chaos_trace()
        schedule = ReplicaFaultSchedule(
            crashes=(ReplicaCrash(at=2.0, replica=0, downtime=30.0),),
            drains=(ReplicaDrain(at=1.0, replica=0),),
        )
        engine, result = run_chaos(schedule, trace=trace)
        assert result.summary.n_turns == trace.n_turns_total
        assert result.crashes == 1
        life = engine.lifecycles[0]
        # The crash cancelled the drain: the replica came back UP after
        # its downtime instead of reaching STOPPED.
        assert life.state is ReplicaState.UP
        assert life.drain_finished_at is None


class TestDeterminism:
    def _snapshot(self, result):
        return (
            dataclasses.asdict(result.summary),
            [dataclasses.asdict(r.summary) for r in result.replicas],
            result.crashes,
            result.restarts,
            result.drains,
            result.lost_turns,
            result.failovers,
            result.failover_retries,
            result.parked_turns,
            result.failover_recompute_tokens,
            result.events_processed,
        )

    def test_chaos_runs_are_bit_identical(self):
        schedule = ReplicaFaultSchedule(
            crashes=(ReplicaCrash(at=30.0, replica=1, downtime=40.0),),
            drains=(ReplicaDrain(at=120.0, replica=2),),
        )
        a = run_chaos(schedule, trace=chaos_trace())[1]
        b = run_chaos(schedule, trace=chaos_trace())[1]
        assert self._snapshot(a) == self._snapshot(b)

    def test_no_schedule_matches_empty_schedule(self):
        """An inert schedule must not perturb a healthy run."""
        trace = chaos_trace()
        plain = run_chaos(None, trace=trace)[1]
        empty = run_chaos(ReplicaFaultSchedule(), trace=chaos_trace())[1]
        assert self._snapshot(plain) == self._snapshot(empty)


class TestLifecycleTransitions:
    def test_initial_state(self):
        life = ReplicaLifecycle()
        assert life.state is ReplicaState.UP
        assert life.routable and life.reachable

    def test_crash_restart_accounting(self):
        life = ReplicaLifecycle()
        life.crash(10.0)
        assert life.state is ReplicaState.DOWN
        assert not life.routable and not life.reachable
        life.restart(25.0)
        assert life.state is ReplicaState.UP
        assert life.total_downtime == 15.0
        assert life.mttr == 15.0

    def test_drain_is_reachable_but_not_routable(self):
        life = ReplicaLifecycle()
        life.begin_drain(5.0)
        assert life.state is ReplicaState.DRAINING
        assert not life.routable
        assert life.reachable
        life.finish_drain(9.0)
        assert life.state is ReplicaState.STOPPED

    def test_illegal_transitions(self):
        life = ReplicaLifecycle()
        with pytest.raises(ValueError):
            life.restart(1.0)  # not down
        life.crash(1.0)
        with pytest.raises(ValueError):
            life.crash(2.0)  # already down
        with pytest.raises(ValueError):
            life.begin_drain(2.0)  # down replicas cannot drain
        life.restart(3.0)
        life.begin_drain(4.0)
        with pytest.raises(ValueError):
            life.begin_drain(5.0)  # already draining

    def test_crash_cancels_drain_transition(self):
        life = ReplicaLifecycle()
        life.begin_drain(1.0)
        life.crash(2.0)
        assert life.state is ReplicaState.DOWN
        assert life.drain_started_at is None
