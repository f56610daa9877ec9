"""The repository benchmark: host cost of simulating and simulated latency.

Run from the repository root, one workload per process::

    python3 perfbench/run.py --workload steady-tight --seed 1 --seconds 20 --trace 0

A run replays the workload's fixed number of traces, each on a seed
derived from ``--seed``, and keeps replaying further traces for host
timing until ``--seconds`` have passed.  It checks every replay and
exits with code 1, printing no result, when a check fails.  The last line
of standard output is one JSON object with ``correct``, ``attempted``
(offered turns), ``failed`` (offered turns never served) and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Host metrics are medians
over all replays of the run, each scaled to a fixed reference speed of
the host (see ``speed.py``); the measured ones are printed too.  Simulated metrics cover the turns after
each fixed replay's warm-up prefix, so they repeat exactly at a given
seed; ``goodput_frac`` pools the fixed replays and the others are medians
over them.  ``--trace 1`` runs the fixed replays once more with spans on
every layer's public entry points and reports the per-layer metrics; the
spans are written to ``.perfbench-out/<workload>-seed<seed>.spans.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import per_layer, percentile, property_shares, replay_layers  # noqa: E402
from repro.workload import generate_trace  # noqa: E402
from speed import REFERENCE_S, Speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    REPLAYS,
    TTFT_LIMIT_S,
    WORKLOADS,
    Replay,
    Workload,
    replay_seed,
    run_replay,
)

#: What the benchmark imports to build a workload; ``setup_s`` counts it.
IMPORTS = "import repro.cluster, repro.engine, repro.store, repro.workload"
IMPORT_SAMPLES = 5
OUT_DIR = ROOT / ".perfbench-out"


class CheckFailed(Exception):
    """A replay's output breaks a correctness check."""


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_replay(replay: Replay) -> int:
    """Check one replay's outputs; return how many offered turns failed.

    * every offered turn is recorded at most once, and a turn that was
      never recorded counts as failed;
    * every replica's store passes ``check_invariants()`` after drain;
    * every record has ``prompt_tokens == new_tokens + reused_tokens``.
    """
    offered = {
        (conv.session_id, index)
        for conv in replay.trace.conversations
        for index in range(conv.n_turns)
    }
    seen: set[tuple[int, int]] = set()
    for record in replay.records:
        turn = (record.session_id, record.turn_index)
        if turn not in offered:
            raise CheckFailed(f"record for a turn never offered: {turn}")
        if turn in seen:
            raise CheckFailed(f"turn recorded twice: {turn}")
        seen.add(turn)
        if record.prompt_tokens != record.new_tokens + record.reused_tokens:
            raise CheckFailed(
                f"turn {turn}: prompt_tokens {record.prompt_tokens} != "
                f"new {record.new_tokens} + reused {record.reused_tokens}"
            )
    for engine in replay.engines:
        if engine.store is None:
            raise CheckFailed(f"{engine.name} runs without a store")
        try:
            engine.store.check_invariants()
        except AssertionError as err:
            raise CheckFailed(f"{engine.name} store invariant: {err}") from err
    return len(offered) - len(seen)


def digest(results: list[str]) -> str:
    """Short hash of the simulated results of a run's replays."""
    return hashlib.sha256("\n".join(results).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Simulated metrics of one replay
# ----------------------------------------------------------------------
def sim_metrics(replay: Replay) -> dict[str, float]:
    summary = replay.result.summary
    evals = [r for r in replay.records if r.in_eval_window]
    first_token = [r.queue_delay + r.ttft for r in evals]
    in_limit = sum(1 for t in first_token if t <= TTFT_LIMIT_S)
    completed = len(replay.records)
    return {
        "ttft_p50_s": percentile(first_token, 50),
        "ttft_p99_s": percentile(first_token, 99),
        "in_limit": in_limit,
        "hit_rate": summary.hit_rate,
        "prefill_tok_per_gpu_s": summary.prefill_throughput,
        "gpu_s_per_turn": summary.total_gpu_busy_time / completed,
        "samples": len(evals),
    }


# ----------------------------------------------------------------------
# Host metrics
# ----------------------------------------------------------------------
def import_seconds(speed: Speed) -> float:
    """Median time to import the program, each in a fresh interpreter,
    sampling the host's speed into ``speed`` around each."""
    code = (
        "import time; t = time.perf_counter(); "
        f"{IMPORTS}; print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        speed.sample()
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        samples.append(float(out.stdout.strip()))
    speed.sample()
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def measure(replay: Replay, scale: float) -> dict:
    """Check one replay and keep only what the metrics need of it.

    ``scale`` turns the replay's host times into times at the reference
    speed (see ``speed.py``).
    """
    return {
        "result": repr(replay.result),
        "offered": sum(c.n_turns for c in replay.trace.conversations),
        "failed": check_replay(replay),
        "completed": len(replay.records),
        "cycle_s": replay.cycle_s,
        "setup_s": replay.generate_s + replay.build_s,
        "drain_s": replay.drain_s,
        "scale": scale,
        "sim": sim_metrics(replay),
        "layers": replay_layers(replay, scale),
    }


#: What :func:`end_to_end` reads of a timing-only replay.
HOST_KEYS = ("completed", "cycle_s", "setup_s", "drain_s", "scale")


def replay_all(
    workload: Workload,
    seed: int,
    seconds: float,
    tracer: Tracer | None = None,
) -> tuple[list[dict], list[dict]]:
    """The run's fixed replays, then timing-only replays until ``seconds``.

    Returns what :func:`measure` kept of each, as ``(fixed, extra)``.
    Only the fixed replays feed simulated metrics; every replay is
    checked.
    """
    generate = generate_trace
    if tracer is not None:
        generate = tracer.wrap("workload.generate", generate_trace)
    start = time.perf_counter()
    kept: list[dict] = []
    while len(kept) < REPLAYS or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.keep_spans = not kept
        # Collect the previous replay's garbage outside the timed region.
        gc.collect()
        speed = Speed()
        replay = run_replay(
            workload, replay_seed(seed, workload.name, len(kept)), speed, generate
        )
        record = measure(replay, speed.scale)
        # Free this replay before the next one starts, and keep only the
        # host times of a timing-only replay, so that peak RSS is one
        # replay's and does not grow with how many replays fit in the run.
        del replay
        if len(kept) >= REPLAYS:
            record = {key: record[key] for key in HOST_KEYS}
        kept.append(record)
    return kept[:REPLAYS], kept[REPLAYS:]


def end_to_end(fixed: list[dict], extra: list[dict]) -> dict[str, tuple[float, str]]:
    """Host times are at the reference speed; the measured ones are
    printed beside them."""
    timed = fixed + extra
    speed = Speed()
    import_s = import_seconds(speed)

    def host(key: str, scaled: bool = True) -> float:
        return statistics.median(r[key] * (r["scale"] if scaled else 1) for r in timed)

    def turns_per_s(scaled: bool = True) -> float:
        return statistics.median(
            r["completed"] / (r["drain_s"] * (r["scale"] if scaled else 1)) for r in timed
        )

    print_block(
        "measured host times (not scaled to the reference speed)",
        {
            "wall_s": import_s + host("cycle_s", scaled=False),
            "setup_s": import_s + host("setup_s", scaled=False),
            "host_turns_per_s": turns_per_s(scaled=False),
            "reference_loop_s": statistics.median(REFERENCE_S / r["scale"] for r in timed),
        },
    )
    import_s *= speed.scale

    def sim(key: str) -> float:
        return statistics.median(r["sim"][key] for r in fixed)

    # Pooled over the fixed replays; a turn never served misses the limit.
    offered = sum(r["sim"]["samples"] + r["failed"] for r in fixed)
    goodput = sum(r["sim"]["in_limit"] for r in fixed) / offered

    return {
        "wall_s": (import_s + host("cycle_s"), "s"),
        "setup_s": (import_s + host("setup_s"), "s"),
        "host_turns_per_s": (turns_per_s(), "turn/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ttft_p50_s": (sim("ttft_p50_s"), "s"),
        "ttft_p99_s": (sim("ttft_p99_s"), "s"),
        "goodput_frac": (goodput, "1"),
        "hit_rate": (sim("hit_rate"), "1"),
        "prefill_tok_per_gpu_s": (sim("prefill_tok_per_gpu_s"), "tok/s"),
        "gpu_s_per_turn": (sim("gpu_s_per_turn"), "s"),
    }


def traced_layers(
    workload: Workload, seed: int, untraced: list[dict]
) -> dict[str, tuple[float, str]]:
    """Replay the fixed traces again with spans on; check they simulate
    exactly what the untraced replays did; write the spans."""
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = replay_all(workload, seed, 0.0, tracer)
    finally:
        tracer.uninstall()
    for index, (plain, spanned) in enumerate(zip(untraced, traced)):
        if plain["result"] != spanned["result"]:
            raise CheckFailed(f"replay {index}: traced result differs from untraced")
    tracer.write(OUT_DIR / f"{workload.name}-seed{seed}.spans.jsonl.gz")
    return per_layer(
        tracer, [r["layers"] for r in traced], [r["layers"] for r in untraced]
    )


def print_block(title: str, values: dict[str, float]) -> None:
    print(title + " " + " ".join(f"{k}={v:.6g}" for k, v in values.items()))


def run(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    # A traced run compares its untraced replays only with the traced
    # ones, so it needs no timing-only replays.
    seconds = 0.0 if args.trace else args.seconds
    fixed, extra = replay_all(workload, args.seed, seconds)
    attempted = sum(r["offered"] for r in fixed)
    failed = sum(r["failed"] for r in fixed)
    print(
        f"workload {workload.name} seed {args.seed}: {len(fixed)} replays for "
        f"simulated metrics, {len(fixed) + len(extra)} for host metrics"
    )
    print(f"digest {digest([r['result'] for r in fixed])}")
    print(
        "first-token samples per replay (after warm-up): "
        f"{[r['sim']['samples'] for r in fixed]}"
    )
    shares = [property_shares(r["layers"]) for r in fixed]
    print_block(
        "properties (median over replays)",
        {key: statistics.median(s[key] for s in shares) for key in shares[0]},
    )
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} offered turns)")
    if args.trace:
        metrics = traced_layers(workload, args.seed, fixed)
    else:
        metrics = end_to_end(fixed, extra)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not __debug__:
        # The store invariant check is written as asserts, which -O removes.
        print("run without -O: the store checks need assert", file=sys.stderr)
        return 1
    try:
        result = run(args)
    except CheckFailed as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
