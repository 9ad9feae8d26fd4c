import random

import pytest

from lisnet.apportioning import ApportionProblem, closed_form_oracle
from lisnet.consensus import Envelope
from lisnet.errors import ConfigurationError, NonTerminationError
from lisnet.netsim import (
    DelayModel,
    Mailbox,
    run_cycle,
    run_naive_averaging,
    simulate_averaging,
)
from lisnet.termination import CheckpointSchedule
from lisnet.topology import Graph, build_weights

TABLE_BOUNDS = {
    1: (0.0, 1500.0),
    2: (999.0, 1000.0),
    3: (0.0, 1000.0),
    4: (0.0, 1200.0),
    5: (0.0, 1500.0),
    6: (0.0, 2000.0),
}


def table_problem(demand=7000.0):
    return ApportionProblem(demand, TABLE_BOUNDS, frozenset({2}))


class TestDelayModel:
    def test_fixed_respects_bound(self):
        with pytest.raises(ConfigurationError):
            DelayModel.fixed({(1, 2): 5}, tau_bar=3)

    def test_stochastic_draws_within_bound(self):
        model = DelayModel.stochastic(3)
        rng = random.Random(0)
        draws = {model.delay_for(rng, 1, 2) for _ in range(200)}
        assert draws == {0, 1, 2, 3}

    def test_custom_distribution(self):
        model = DelayModel.stochastic(2, probabilities=[0.0, 0.0, 1.0])
        rng = random.Random(0)
        assert {model.delay_for(rng, 1, 2) for _ in range(50)} == {2}

    def test_zero_model(self):
        model = DelayModel.zero()
        assert model.delay_for(random.Random(0), 1, 2) == 0

    def test_per_edge_cap_applies(self):
        model = DelayModel.stochastic(3)
        rng = random.Random(0)
        assert all(model.delay_for(rng, 1, 2, cap=1) <= 1 for _ in range(100))


class TestMailbox:
    def test_delivers_once_in_order(self):
        box = Mailbox()
        e1 = Envelope(src=1, dst=2, send_step=0, payload_r=1.0, payload_s=1.0)
        e2 = Envelope(src=3, dst=2, send_step=0, payload_r=2.0, payload_s=1.0)
        box.post(e1, 2)
        box.post(e2, 2)
        assert box.due(0) == []
        assert box.due(2) == [e1, e2]
        assert box.due(2) == []
        assert box.delivered == 2

    def test_pending_mass(self):
        box = Mailbox()
        box.post(Envelope(src=1, dst=2, send_step=0, payload_r=1.5, payload_s=0.5), 1)
        box.post(Envelope(src=2, dst=1, send_step=0, payload_r=-0.5, payload_s=0.25), 3)
        assert box.pending_mass() == (1.0, 0.75)


class TestConservationAndDelivery:
    def test_every_step_conserves_mass(self):
        rng = random.Random(77)
        for model_builder in (
            lambda g: DelayModel.fixed_random(g, 3, 5),
            lambda g: DelayModel.stochastic(3),
        ):
            g = Graph.random_connected(rng, 7)
            w = build_weights(g)
            r0 = {i: rng.uniform(-50, 50) for i in g.nodes}
            s0 = {i: rng.uniform(0.5, 2) for i in g.nodes}
            sim = simulate_averaging(g, w, r0, s0, model_builder(g), seed=1)
            sim.run(300)
            # the simulation audits every step internally; confirm the records
            assert len(sim.audits) == 301
            assert sim.max_conservation_error <= 1e-9
            for report in sim.audits:
                assert report.node_mass_r + report.inflight_mass_r == pytest.approx(
                    sum(r0.values()), abs=1e-6
                )

    def test_all_envelopes_delivered_exactly_once(self):
        g = Graph.cycle(5)
        w = build_weights(g)
        sim = simulate_averaging(
            g,
            w,
            {i: float(i) for i in g.nodes},
            {i: 1.0 for i in g.nodes},
            DelayModel.stochastic(3),
            seed=9,
        )
        sim.run(100)
        assert sim.mailbox.posted == sim.mailbox.delivered + sim.mailbox.pending_count()
        assert sim.mailbox.pending_count() <= 3 * 2 * g.n  # at most tau rounds in flight

    def test_audit_step_zero(self):
        g = Graph.cycle(4)
        w = build_weights(g)
        sim = simulate_averaging(
            g, w, {i: 10.0 for i in g.nodes}, {i: 1.0 for i in g.nodes},
            DelayModel.zero(),
        )
        first = sim.audits[0]
        assert first.step == 0
        assert first.inflight_mass_r == 0.0
        assert first.node_mass_r == 40.0


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        g = Graph.cycle(6)
        w = build_weights(g)
        runs = []
        for _ in range(2):
            result = run_cycle(
                g, w, table_problem(), DelayModel.stochastic(3),
                CheckpointSchedule(3, 3), 0.02, seed=123, record="steps",
            )
            runs.append(result)
        assert runs[0].trace_rows == runs[1].trace_rows
        assert runs[0].commands.commands == runs[1].commands.commands

    def test_delay_realizations_agree_within_two_budgets(self):
        g = Graph.cycle(6)
        w = build_weights(g)
        rho = 0.02
        problem = table_problem()
        oracle = closed_form_oracle(problem)
        commands = []
        for model, seed in (
            (DelayModel.stochastic(3), 1),
            (DelayModel.stochastic(3), 2),
            (DelayModel.fixed_random(g, 3, 8), 0),
            (DelayModel.zero(), 0),
        ):
            result = run_cycle(
                g, w, problem, model, CheckpointSchedule(3, 3), rho, seed=seed,
            )
            for i in g.nodes:
                assert abs(result.commands[i] - oracle[i]) <= rho * problem.span(i)
            commands.append(result.commands)
        for first in commands:
            for second in commands:
                for i in g.nodes:
                    assert abs(first[i] - second[i]) <= 2 * rho * problem.span(i)


class TestRunCycle:
    def test_two_node_loose_threshold(self):
        g = Graph.from_edges([1, 2], [(1, 2)])
        w = build_weights(g)
        problem = ApportionProblem(
            30.0, {1: (0.0, 20.0), 2: (10.0, 40.0)}, frozenset({1})
        )
        result = run_cycle(
            g, w, problem, DelayModel.zero(), CheckpointSchedule(1, 0), rho=100.0,
        )
        assert result.theta == 1
        assert result.steps == 1

    def test_six_node_aggregate_within_budget(self):
        g = Graph.cycle(6)
        w = build_weights(g)
        problem = table_problem()
        result = run_cycle(
            g, w, problem, DelayModel.fixed_random(g, 3, 4),
            CheckpointSchedule(3, 3), 0.02, seed=0,
        )
        assert abs(result.commands.total - 7000.0) <= 0.02 * problem.total_span

    def test_nontermination_ceiling(self):
        g = Graph.cycle(6)
        w = build_weights(g)
        with pytest.raises(NonTerminationError):
            run_cycle(
                g, w, table_problem(), DelayModel.stochastic(3),
                CheckpointSchedule(3, 3), rho=1e-15, max_steps=90, seed=0,
            )

    def test_post_freeze_window_gap_below_threshold(self):
        g = Graph.cycle(6)
        w = build_weights(g)
        rho = 0.02
        result = run_cycle(
            g, w, table_problem(), DelayModel.stochastic(3),
            CheckpointSchedule(3, 3), rho, seed=5,
        )
        assert result.audits[-1].max_gap <= rho

    def test_window_extremes_tighten_at_checkpoints(self):
        # the omniscient windowed max never rises and the min never falls
        # when sampled at the checkpoint instants
        g = Graph.cycle(6)
        w = build_weights(g)
        sched = CheckpointSchedule(3, 3)
        result = run_cycle(
            g, w, table_problem(), DelayModel.stochastic(3), sched, 0.005, seed=3,
        )
        instants = sorted({e.step for e in result.checkpoint_events})
        assert len(instants) >= 3
        sampled = [result.audits[k] for k in instants]
        for earlier, later in zip(sampled, sampled[1:]):
            assert later.window_max <= earlier.window_max + 1e-12
            assert later.window_min >= earlier.window_min - 1e-12

    def test_command_invariant_to_circulation_placement(self):
        g = Graph.cycle(6)
        w = build_weights(g)
        rho = 0.02
        totals = {}
        for pick in ({2}, {5}, {1, 4}, set(g.nodes)):
            problem = ApportionProblem(7000.0, TABLE_BOUNDS, frozenset(pick))
            result = run_cycle(
                g, w, problem, DelayModel.stochastic(3),
                CheckpointSchedule(3, 3), rho, seed=11,
            )
            oracle = closed_form_oracle(problem)
            for i in g.nodes:
                assert abs(result.commands[i] - oracle[i]) <= rho * problem.span(i)
            totals[frozenset(pick)] = result.commands.total
        spread = max(totals.values()) - min(totals.values())
        assert spread <= 2 * rho * (8200.0 - 999.0)


class TestNaiveBaseline:
    def test_zero_delays_exact_average(self):
        g = Graph.cycle(5)
        initial = {1: 100.0, 2: 200.0, 3: 300.0, 4: 600.0, 5: 800.0}
        final = run_naive_averaging(g, initial, DelayModel.zero(), steps=300)
        for v in final.values():
            assert v == pytest.approx(400.0, abs=1e-6)

    def test_delays_cause_misconvergence(self):
        g = Graph.cycle(5)
        initial = {1: 100.0, 2: 200.0, 3: 300.0, 4: 600.0, 5: 800.0}
        errors = []
        for seed in range(5):
            final = run_naive_averaging(
                g, initial, DelayModel.stochastic(3), steps=400, seed=seed
            )
            errors.append(max(abs(v - 400.0) / 400.0 for v in final.values()))
        assert max(errors) > 0.01

    def test_delayed_baseline_settles_on_consensus(self):
        # it agrees on a value, just not the right one
        g = Graph.cycle(5)
        initial = {1: 100.0, 2: 200.0, 3: 300.0, 4: 600.0, 5: 800.0}
        final = run_naive_averaging(
            g, initial, DelayModel.fixed_random(g, 3, 2), steps=2000, seed=0
        )
        values = list(final.values())
        assert max(values) - min(values) <= 1e-6
