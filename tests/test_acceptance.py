"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Every simulation here runs with the always-on per-step
conservation audit, so a mass leak anywhere fails its run immediately in
addition to the dedicated conservation criterion.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from lisnet.apportioning import ApportionProblem
from lisnet.cli import (
    default_config,
    main,
    replicate_fig1,
    replicate_oracle_sweep,
    replicate_six_lis_day,
)
from lisnet.netsim import DelayModel, Simulation, run_cycle, simulate_averaging
from lisnet.scenario import run_day
from lisnet.termination import CheckpointSchedule
from lisnet.topology import Graph, build_weights, diameter

RHO = 0.02
TAU_BAR = 3


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS")


@pytest.fixture(scope="module")
def day():
    return run_day(replace(default_config(), seed=0, start_hours=0.0, end_hours=8.0))


def test_criterion_1_averaging_correct_under_delays():
    with criterion(1, "averaging correctness under delays"):
        started = time.perf_counter()
        passed, lines = replicate_fig1(seed=0)
        assert passed, lines
        assert time.perf_counter() - started < 1.0


def test_criterion_2_six_lis_day_replication():
    with criterion(2, "six-LIS day tracks 7 kW within 150 W"):
        # the suite passes only when no instant is infeasible and the worst
        # feasible |delivered - 7000 W| is at most 150 W: every instant then
        # tracks the demand; it also bounds every instant's theta by 100
        started = time.perf_counter()
        passed, lines = replicate_six_lis_day(seed=0)
        assert passed, lines
        assert time.perf_counter() - started < 60.0
        assert any("over 481 instants" in line for line in lines), lines


def test_criterion_3_res_prioritization(day):
    with criterion(3, "renewable prioritized, dispatchables proportional"):
        profile = default_config().fleet[1].profile
        caps = {1: 1500.0, 3: 1000.0, 4: 1200.0, 5: 1500.0, 6: 2000.0}
        for rec in day.records:
            available = profile.power_at(rec.t_hours)
            if 2 in rec.participants:
                assert available - 1.0 <= rec.commands[2] <= available + 1e-9
            else:
                assert available == 0.0
                assert rec.commands[2] == 0.0
            quotients = [rec.commands[i] / caps[i] for i in caps]
            assert max(quotients) - min(quotients) <= 2 * RHO


def test_criterion_4_extremes_exact_after_one_period():
    with criterion(4, "propagated extremes exact within one checkpoint period"):
        rng = random.Random(404)
        for _ in range(20):
            graph = Graph.random_connected(rng, rng.randint(2, 10))
            weights = build_weights(graph)
            tau = rng.randint(0, TAU_BAR)
            schedule = CheckpointSchedule(max(1, diameter(graph)), tau)
            r0 = {i: rng.uniform(-20.0, 20.0) for i in graph.nodes}
            s0 = {i: rng.uniform(0.25, 4.0) for i in graph.nodes}
            seeds = [r0[i] / s0[i] for i in graph.nodes]
            states = {i: (r0[i], s0[i]) for i in graph.nodes}
            sim = Simulation(
                graph,
                weights,
                states,
                DelayModel.fixed_random(graph, tau, rng.randrange(10**6)),
                schedule,
                rho=0.0,
            )
            sim.run(schedule.checkpoint_len)
            tested = [
                (z, y) for step, _, _, _, _, z, y, _, _ in sim.trace_rows
                if step == schedule.checkpoint_len
            ]
            assert len(tested) == len(graph.nodes)
            for z, y in tested:
                assert z == max(seeds)
                assert y == min(seeds)


def test_criterion_5_oracle_equivalence_sweep():
    with criterion(5, "consensus commands match the closed form on 200 instances"):
        started = time.perf_counter()
        passed, lines = replicate_oracle_sweep(seed=505, count=200)
        assert passed, lines
        assert time.perf_counter() - started < 30.0


def test_criterion_6_conservation_every_step(day, monkeypatch):
    with criterion(6, "mass conserved to 1e-9 on every step of every run"):
        # the per-step audit raises on any breach, so the runs above already
        # enforce this; spot-check the recorded worst cases explicitly
        assert day.max_conservation_error <= 1e-9
        audits = 0
        audit = Simulation.audit

        def counted(sim):
            nonlocal audits
            audits += 1
            return audit(sim)

        monkeypatch.setattr(Simulation, "audit", counted)
        graph = Graph.cycle(6)
        weights = build_weights(graph)
        rng = random.Random(606)
        for model in (
            DelayModel.fixed_random(graph, TAU_BAR, 7),
            DelayModel.stochastic(TAU_BAR),
        ):
            audits = 0
            sim = simulate_averaging(
                graph,
                weights,
                {i: rng.uniform(-1000.0, 1000.0) for i in graph.nodes},
                {i: rng.uniform(0.5, 3.0) for i in graph.nodes},
                model,
                seed=3,
            )
            sim.run(1000)
            assert sim.max_conservation_error <= 1e-9
            assert audits == 1001


def test_criterion_7_finite_simultaneous_termination():
    with criterion(7, "finite simultaneous termination, short canonical cycle"):
        # criterion 2's suite checks that every instant of the day freezes by theta 100
        # canonical cycle: full fleet at the renewable plateau terminates
        # within three checkpoint periods, about 45 one-second iterations
        graph = Graph.cycle(6)
        weights = build_weights(graph)
        bounds = {
            1: (0.0, 1500.0),
            2: (999.0, 1000.0),
            3: (0.0, 1000.0),
            4: (0.0, 1200.0),
            5: (0.0, 1500.0),
            6: (0.0, 2000.0),
        }
        problem = ApportionProblem(7000.0, bounds, frozenset({2}))
        schedule = CheckpointSchedule(3, TAU_BAR)
        for seed in range(5):
            result = run_cycle(
                graph,
                weights,
                problem,
                DelayModel.stochastic(TAU_BAR),
                schedule,
                RHO,
                seed=seed,
            )
            assert result.theta <= 3, (seed, result.theta)
            assert result.steps == result.theta * schedule.checkpoint_len
            freeze_steps = [
                step for step, _, _, _, _, _, _, _, frozen in result.trace_rows if frozen
            ]
            assert len(freeze_steps) == len(graph.nodes)
            assert len(set(freeze_steps)) == 1


def test_criterion_8_byte_identical_reruns(tmp_path):
    with criterion(8, "same configuration and seed reproduce files byte for byte"):
        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = main(
                ["run", "--seed", "11", "--out-dir", str(out), "--verbose-trace"]
            )
            assert code == 0
            blobs.append(
                (
                    (out / "trace.csv").read_bytes(),
                    (out / "results.json").read_bytes(),
                )
            )
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]
