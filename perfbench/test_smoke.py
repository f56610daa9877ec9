"""Smoke test of the benchmark at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric ``BENCHMARK.json`` names prints with its unit on
every workload, and that each correctness check fails the run when the
output it guards is broken.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from repro.hardware.perf import PerfModel  # noqa: E402
from workloads import REPLAYS, WORKLOADS, run_replay  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _tiny(monkeypatch: pytest.MonkeyPatch, tmp_path: Path) -> None:
    monkeypatch.setattr(workloads, "SESSIONS", 30)
    monkeypatch.setattr(speed, "LOOP_ITERATIONS", 200)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def run_main(
    capsys: pytest.CaptureFixture, *argv: str, seconds: str = "0"
) -> tuple[int, str]:
    code = run.main(list(argv) + ["--seed", "3", "--seconds", seconds])
    return code, capsys.readouterr().out


def test_workloads_match_spec() -> None:
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_unit(
    capsys: pytest.CaptureFixture, workload: str, trace: str
) -> None:
    code, out = run_main(capsys, "--workload", workload, "--trace", trace)
    assert code == 0
    lines = out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(
            line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines
        ), f"{name} not printed with unit {unit}"


def _breaking(monkeypatch: pytest.MonkeyPatch, damage) -> None:
    """Make every replay the benchmark runs pass through ``damage``."""

    def damaged_replay(*args, **kwargs):
        replay = run_replay(*args, **kwargs)
        damage(replay)
        return replay

    monkeypatch.setattr(run, "run_replay", damaged_replay)


def _token_sum(replay) -> None:
    replay.records[-1].reused_tokens += 1


def _store_books(replay) -> None:
    replay.engines[0].store._total_item_bytes += 1


def _recorded_twice(replay) -> None:
    metrics = replay.engines[0].metrics
    metrics.records.append(metrics.records[0])


@pytest.mark.parametrize("damage", [_token_sum, _store_books, _recorded_twice])
def test_broken_output_fails_the_run(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture, damage
) -> None:
    _breaking(monkeypatch, damage)
    code, out = run_main(capsys, "--workload", "steady-tight")
    assert code == 1
    assert out.strip() == "" or not out.splitlines()[-1].startswith("{")


def test_unserved_turn_counts_as_failed(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    _breaking(monkeypatch, lambda replay: replay.engines[0].metrics.records.pop())
    code, out = run_main(capsys, "--workload", "steady-tight")
    assert code == 0
    result = json.loads(out.splitlines()[-1])
    assert result["failed"] == REPLAYS


def test_timing_only_replays_leave_simulated_metrics_alone(
    capsys: pytest.CaptureFixture,
) -> None:
    runs = {}
    for seconds in ("0", "3"):
        code, out = run_main(capsys, "--workload", "steady-tight", seconds=seconds)
        assert code == 0
        lines = out.splitlines()
        runs[seconds] = (lines[0], lines[1], json.loads(lines[-1]))
    assert runs["0"][0].endswith(f"{REPLAYS} for host metrics")
    assert not runs["3"][0].endswith(f"{REPLAYS} for host metrics")
    assert runs["0"][1] == runs["3"][1]  # the digest
    for name in ("ttft_p50_s", "ttft_p99_s", "goodput_frac", "hit_rate"):
        assert runs["0"][2]["metrics"][name] == runs["3"][2]["metrics"][name]


def test_optimised_python_fails_the_run() -> None:
    out = subprocess.run(
        [sys.executable, "-O", "perfbench/run.py", "--workload", "steady-tight"]
        + ["--seed", "3", "--seconds", "0"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 1
    assert out.stdout == ""


def test_tracing_that_changes_the_simulation_fails_the_run(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    class MeddlingTracer(run.Tracer):
        def install(self) -> None:
            super().install()
            original = PerfModel.__dict__["prefill_time"]
            self._installed.append((PerfModel, "prefill_time", original))
            PerfModel.prefill_time = lambda *a, **k: original(*a, **k) * 1.01

    before = PerfModel.__dict__["prefill_time"]
    monkeypatch.setattr(run, "Tracer", MeddlingTracer)
    code, _ = run_main(capsys, "--workload", "steady-tight", "--trace", "1")
    assert code == 1
    assert PerfModel.__dict__["prefill_time"] is before


def test_host_times_are_scaled_by_the_reference_loop(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    # A host running at half the reference speed halves every host time.
    monkeypatch.setattr(speed, "_loop_s", lambda: 2 * speed.REFERENCE_S)
    code, out = run_main(capsys, "--workload", "steady-tight")
    assert code == 0
    lines = out.splitlines()
    measured_line = next(line for line in lines if line.startswith("measured host times"))
    measured = dict(field.split("=") for field in measured_line.split() if "=" in field)
    scaled = json.loads(lines[-1])["metrics"]
    assert float(measured["reference_loop_s"]) == pytest.approx(2 * speed.REFERENCE_S)
    for name, factor in (("wall_s", 0.5), ("setup_s", 0.5), ("host_turns_per_s", 2)):
        assert scaled[name]["value"] == pytest.approx(
            factor * float(measured[name]), rel=1e-5
        )
