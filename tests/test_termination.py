import math
import random

import pytest

from lisnet.apportioning import ApportionProblem, init_states, reference_command
from lisnet.consensus import ConsensusState, Envelope
from lisnet.errors import ConfigurationError, ProtocolError
from lisnet.netsim import DelayModel, Simulation, run_cycle
from lisnet.termination import (
    CheckpointSchedule,
    NodeMachine,
    TerminationState,
    checkpoint,
    epoch_update,
)
from lisnet.topology import Graph, build_weights, diameter


class TestCheckpointSchedule:
    def test_paper_setting(self):
        sched = CheckpointSchedule(diameter=3, tau_bar=3)
        assert sched.epoch_len == 4
        assert sched.checkpoint_len == 15
        assert [k for k in range(1, 35) if sched.is_epoch_boundary(k)] == [
            4, 8, 12, 16, 20, 24, 28, 32,
        ]
        assert [k for k in range(1, 35) if sched.is_checkpoint(k)] == [15, 30]

    def test_send_period_flips_after_each_checkpoint(self):
        sched = CheckpointSchedule(diameter=3, tau_bar=3)
        assert sched.send_period(0) == 1
        assert sched.send_period(14) == 1
        assert sched.send_period(15) == 2
        assert sched.send_period(29) == 2
        assert sched.send_period(30) == 3

    def test_rejects_degenerate(self):
        with pytest.raises(ConfigurationError):
            CheckpointSchedule(diameter=0, tau_bar=3)
        with pytest.raises(ConfigurationError):
            CheckpointSchedule(diameter=1, tau_bar=-1)


class TestEpochUpdate:
    def test_takes_max_and_min(self):
        term = TerminationState(z=2.0, y=2.0)
        nxt = epoch_update(term, [1.0, 5.0], [1.0, 5.0])
        assert nxt.z == 5.0
        assert nxt.y == 1.0
        assert nxt.l == 2

    def test_no_neighbors_keeps_values(self):
        term = TerminationState(z=2.0, y=-1.0)
        nxt = epoch_update(term, [], [])
        assert (nxt.z, nxt.y) == (2.0, -1.0)

    def test_frozen_rejected(self):
        term = TerminationState(z=1.0, y=1.0, frozen=True)
        with pytest.raises(ProtocolError):
            epoch_update(term, [2.0], [0.0])

    def test_path_propagation_in_diameter_epochs(self):
        # synchronous epoch merges on a 4-node path: the 9 reaches everyone
        # after 3 rounds and no earlier
        g = Graph.path(4)
        values = {1: 0.0, 2: 0.0, 3: 0.0, 4: 9.0}
        terms = {i: TerminationState(z=values[i], y=values[i]) for i in g.nodes}
        for round_index in range(3):
            snapshot = {i: terms[i].z for i in g.nodes}
            terms = {
                i: epoch_update(
                    terms[i],
                    [snapshot[j] for j in g.neighbors(i)],
                    [snapshot[j] for j in g.neighbors(i)],
                )
                for i in g.nodes
            }
            if round_index < 2:
                assert terms[1].z != 9.0
        assert all(terms[i].z == 9.0 for i in g.nodes)


class TestCheckpoint:
    def test_freezes_below_threshold(self):
        term = TerminationState(z=0.5001, y=0.5000)
        nxt = checkpoint(term, current_r=3.0, current_s=6.0, rho=1e-3)
        assert nxt.frozen
        assert nxt.r_star == 3.0
        assert nxt.s_star == 6.0
        assert nxt.z == 0.5001  # frozen values never move

    def test_reseeds_above_threshold(self):
        term = TerminationState(z=0.9, y=0.1)
        nxt = checkpoint(term, current_r=3.0, current_s=6.0, rho=1e-3)
        assert not nxt.frozen
        assert nxt.z == nxt.y == pytest.approx(0.5)
        assert nxt.theta == 2

    def test_infinite_threshold_always_freezes(self):
        term = TerminationState(z=100.0, y=-100.0)
        assert checkpoint(term, 1.0, 2.0, math.inf).frozen

    def test_probe_mode_never_freezes(self):
        term = TerminationState(z=0.5, y=0.5)
        nxt = checkpoint(term, 1.0, 2.0, rho=None)
        assert not nxt.frozen
        assert nxt.theta == 2

    def test_frozen_rejected(self):
        term = TerminationState(z=1.0, y=1.0, frozen=True)
        with pytest.raises(ProtocolError):
            checkpoint(term, 1.0, 1.0, 1.0)


class TestNodeMachine:
    def test_single_node_freezes_at_first_checkpoint(self):
        # lone node, demand 100 within [0, 200]: quotient 0.5, command 100
        g = Graph.from_edges([1], [])
        w = build_weights(g)
        problem = ApportionProblem(100.0, {1: (0.0, 200.0)}, frozenset({1}))
        state = init_states(problem)[1]
        sched = CheckpointSchedule(diameter=1, tau_bar=0)
        machine = NodeMachine(state, w, g.neighbors(1), sched, rho=1e-6)
        assert machine.emit() == []
        machine.advance([])
        assert machine.frozen
        assert machine.term.theta == 1
        assert machine.state.ratio() == pytest.approx(0.5)
        command = reference_command(
            problem, machine.term.r_star, machine.term.s_star, 1
        )
        assert command == pytest.approx(100.0)

    def test_frozen_node_goes_silent(self):
        g = Graph.from_edges([1], [])
        w = build_weights(g)
        problem = ApportionProblem(100.0, {1: (0.0, 200.0)}, frozenset({1}))
        machine = NodeMachine(
            init_states(problem)[1],
            w,
            g.neighbors(1),
            CheckpointSchedule(1, 0),
            rho=math.inf,
        )
        assert machine.emit() == []
        machine.advance([])
        assert machine.frozen
        assert machine.emit() == []
        stray = Envelope(src=2, dst=1, send_step=0, payload_r=0.0, payload_s=0.1)
        with pytest.raises(ProtocolError):
            machine.advance([stray])

    def test_loose_threshold_freezes_at_first_checkpoint(self):
        g = Graph.cycle(6)
        w = build_weights(g)
        problem = ApportionProblem(
            7000.0,
            {1: (0.0, 1500.0), 2: (999.0, 1000.0), 3: (0.0, 1000.0),
             4: (0.0, 1200.0), 5: (0.0, 1500.0), 6: (0.0, 2000.0)},
            frozenset({2}),
        )
        result = run_cycle(
            g, w, problem, DelayModel.stochastic(3),
            CheckpointSchedule(3, 3), rho=1e9, seed=0,
        )
        assert result.theta == 1
        assert result.steps == 15

    def test_rejects_nonpositive_threshold(self):
        g = Graph.from_edges([1], [])
        w = build_weights(g)
        state = ConsensusState(node=1, r=1.0, s=2.0)
        with pytest.raises(ConfigurationError):
            NodeMachine(state, w, (), CheckpointSchedule(1, 0), rho=0.0)


class TestTerminationProperties:
    def _probe_machines(self, g, w, r0, s0, sched):
        return {
            i: NodeMachine(
                ConsensusState(node=i, r=r0[i], s=s0[i]),
                w,
                g.neighbors(i),
                sched,
                rho=None,
            )
            for i in g.nodes
        }

    def test_extremes_exact_after_one_checkpoint_period(self):
        # fixed delays, random graphs: after D(1 + tau) + tau steps every
        # node's z equals the exact global max of the seed quotients
        rng = random.Random(42)
        for _ in range(15):
            g = Graph.random_connected(rng, rng.randint(2, 10))
            w = build_weights(g)
            tau = rng.randint(0, 3)
            sched = CheckpointSchedule(max(1, diameter(g)), tau)
            r0 = {i: rng.uniform(-10, 10) for i in g.nodes}
            s0 = {i: rng.uniform(0.5, 2.0) for i in g.nodes}
            seeds = [r0[i] / s0[i] for i in g.nodes]
            machines = self._probe_machines(g, w, r0, s0, sched)
            sim = Simulation(
                g, w, machines, DelayModel.fixed_random(g, tau, rng.randrange(999))
            )
            sim.run(sched.checkpoint_len)
            events = [e for e in sim.checkpoint_events if e.step == sched.checkpoint_len]
            assert len(events) == g.n
            for event in events:
                assert event.z == max(seeds)  # bitwise: propagation copies floats
                assert event.y == min(seeds)

    def test_gap_identical_across_nodes_at_checkpoints(self):
        g = Graph.cycle(6)
        w = build_weights(g)
        rng = random.Random(9)
        r0 = {i: rng.uniform(0, 100) for i in g.nodes}
        s0 = {i: rng.uniform(1, 5) for i in g.nodes}
        sched = CheckpointSchedule(3, 3)
        machines = self._probe_machines(g, w, r0, s0, sched)
        sim = Simulation(g, w, machines, DelayModel.stochastic(3), seed=2)
        sim.run(4 * sched.checkpoint_len)
        by_step = {}
        for event in sim.checkpoint_events:
            by_step.setdefault(event.step, []).append(event)
        assert len(by_step) == 4
        for step, events in by_step.items():
            gaps = [e.gap for e in events]
            assert max(gaps) - min(gaps) <= 1e-12
            # the true quotient envelope sandwiches every node's quotient
            for e in events:
                assert e.y - 1e-12 <= e.ratio <= e.z + 1e-12

    def test_all_nodes_freeze_together_and_accurately(self):
        rng = random.Random(31)
        for _ in range(10):
            g = Graph.random_connected(rng, rng.randint(2, 8))
            w = build_weights(g)
            bounds = {}
            for i in g.nodes:
                lo = rng.uniform(0, 300)
                bounds[i] = (lo, lo + rng.uniform(50, 1500))
            total_min = sum(b[0] for b in bounds.values())
            total_max = sum(b[1] for b in bounds.values())
            problem = ApportionProblem(
                rng.uniform(total_min, total_max), bounds, frozenset({min(g.nodes)})
            )
            rho = 0.02
            sched = CheckpointSchedule(max(1, diameter(g)), 3)
            result = run_cycle(
                g, w, problem, DelayModel.stochastic(3), sched, rho,
                seed=rng.randrange(999),
            )
            assert result.theta <= 100
            exact = (problem.rho_d - problem.total_min) / problem.total_span
            for i in g.nodes:
                quotient = result.r_star[i] / result.s_star[i]
                assert abs(quotient - exact) <= rho
                # any excursion past the feasible band stays within threshold
                assert -rho <= quotient <= 1.0 + rho
