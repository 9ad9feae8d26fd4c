"""Smoke tests for the benchmark's own code, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import lisnet.cli  # noqa: E402
import lisnet.netsim  # noqa: E402
from hostspeed import PERIOD_S, WINDOW_S, Sampler  # noqa: E402
from iteration import run_iteration  # noqa: E402
from run import count_mismatches  # noqa: E402
from tracer import TargetMissing, Tracer  # noqa: E402
from workloads import CYCLE, DAY, Workload, fleet_scenario  # noqa: E402

ONE_HOUR_INSTANTS = 61


@pytest.fixture
def one_hour_day(tmp_path) -> Workload:
    config = dataclasses.replace(lisnet.cli.default_config(), end_hours=1.0)
    path = tmp_path / "one-hour.yaml"
    config.dump(path)
    return Workload("one-hour", DAY, ("run", "--config", str(path)), ONE_HOUR_INSTANTS)


@pytest.fixture
def fleet_50(tmp_path) -> Workload:
    path = tmp_path / "fleet-50.yaml"
    path.write_text(yaml.safe_dump(fleet_scenario(3, 50), sort_keys=False))
    return Workload("fleet-50", CYCLE, ("run", "--config", str(path), "--cycle-only", "--at-hours", "4"))


def test_fleet_generator_is_seeded_and_loads():
    doc = fleet_scenario(7, 50)
    assert doc == fleet_scenario(7, 50)
    assert doc != fleet_scenario(8, 50)
    assert len(doc["graph"]["edges"]) == 49 + 25
    assert len({tuple(e) for e in doc["graph"]["edges"]}) == 74
    assert sum(u["kind"] == "res" for u in doc["fleet"]) == 5
    config = lisnet.cli.ScenarioConfig.from_dict(doc)
    assert config.graph.is_connected()


def test_tiny_fleet_traced_cycle_checks_and_counts(fleet_50, tmp_path):
    out = run_iteration(fleet_50, tmp_path / "out", trace=True)
    assert (out["attempted"], out["failed"]) == (1, 0), out["reasons"]
    layers = out["layers"]
    assert layers["netsim.audits"] == layers["netsim.steps"] + 1
    assert layers["netsim.node_steps"] == 50 * layers["netsim.steps"] == out["node_steps"]
    assert layers["netsim.messages_posted"] == layers["consensus.envelopes"] > 0
    assert 0 < layers["netsim.delivered_ratio"] <= 1
    facts = out["facts"]
    assert (facts["n_max"], facts["edges_max"], facts["steps"]) == (50, 74, layers["netsim.steps"])


def test_traced_counts_are_checked_against_the_untraced_iteration(fleet_50, tmp_path):
    plain = run_iteration(fleet_50, tmp_path / "a", trace=False)
    traced = run_iteration(fleet_50, tmp_path / "b", trace=True)
    assert count_mismatches(plain, traced) == []
    traced["layers"]["netsim.steps"] += 1
    traced["layers"]["termination.theta_max"] += 1
    mismatches = count_mismatches(plain, traced)
    assert [m.split(" = ")[0] for m in mismatches] == ["netsim.steps", "termination.theta_max"]


def test_traced_run_of_a_failing_program_counts_the_failure(fleet_50, tmp_path, monkeypatch):
    def broken(problem, r_star, s_star, node):
        raise RuntimeError("command read-off broke")

    monkeypatch.setattr(lisnet.netsim, "reference_command", broken)
    out = run_iteration(fleet_50, tmp_path / "out", trace=True)
    assert (out["attempted"], out["failed"]) == (1, 1)
    assert "command read-off broke" in " ".join(out["reasons"])


def test_one_hour_day_reruns_byte_identical_untraced_and_traced(one_hour_day, tmp_path):
    plain = run_iteration(one_hour_day, tmp_path / "a", trace=False)
    traced = run_iteration(one_hour_day, tmp_path / "b", trace=True)
    for out in (plain, traced):
        assert (out["attempted"], out["failed"]) == (ONE_HOUR_INSTANTS, 0), out["reasons"]
    assert None not in plain["digests"]
    assert plain["digests"] == traced["digests"]
    assert len(plain["cycle_ms"]) == traced["layers"]["scenario.instants"] == ONE_HOUR_INSTANTS


def test_sampler_times_reference_chunks_while_started():
    sampler = Sampler()
    sampler.start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    finally:
        sampler.stop()
    assert len(sampler.speeds) >= 4  # one at start, then one every PERIOD_S
    assert sampler.paused > 0 and min(sampler.speeds) > 0
    chunks = len(sampler.speeds)
    time.sleep(2 * PERIOD_S)
    assert len(sampler.speeds) == chunks
    first, last = sampler.starts[0], sampler.starts[-1]
    assert sampler.mean_speed(last + 1, last + 2) == sampler.mean_speed()
    assert sampler.mean_speed(first - WINDOW_S, first - WINDOW_S) == sampler.speeds[0]


def test_untraced_times_leave_out_reference_chunks(one_hour_day, tmp_path):
    out = run_iteration(one_hour_day, tmp_path / "out", trace=False)
    assert out["speed"] > 0
    assert out["wall_norm_s"] == pytest.approx(out["wall_s"] * out["speed"])
    assert len(out["cycle_norm_ms"]) == len(out["cycle_ms"]) == ONE_HOUR_INSTANTS
    assert 0 < sum(out["cycle_ms"]) / 1e3 < out["wall_s"]


def test_corrupted_command_drives_error_rate_above_zero(one_hour_day, tmp_path, monkeypatch):
    original = lisnet.netsim.reference_command
    calls = []

    def corrupt_one(problem, r_star, s_star, node):
        command = original(problem, r_star, s_star, node)
        calls.append(node)
        return command + 100.0 if len(calls) == 20 else command

    monkeypatch.setattr(lisnet.netsim, "reference_command", corrupt_one)
    out = run_iteration(one_hour_day, tmp_path / "out", trace=False)
    assert out["failed"] == 1 and out["failed"] / out["attempted"] > 0
    assert "closed form" in " ".join(out["reasons"])


def test_missing_target_fails_loudly_and_unpatches(monkeypatch):
    monkeypatch.delattr(lisnet.cli, "diameter")
    writer = lisnet.cli.write_trace_csv
    with pytest.raises(TargetMissing, match="lisnet.cli.diameter"):
        Tracer().install()
    assert lisnet.cli.write_trace_csv is writer


def test_target_never_called_fails_loudly():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    with pytest.raises(TargetMissing, match="never called"):
        tracer.check_hit(DAY)


def test_run_without_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "day", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
