import math
import random

import pytest

from lisnet import termination
from lisnet.apportioning import ApportionProblem, init_states, reference_command
from lisnet.errors import ConfigurationError, ProtocolError
from lisnet.netsim import FIXED, DelayModel, Simulation, run_cycle
from lisnet.termination import (
    CheckpointSchedule,
    NodeMachine,
    checkpoint,
    epoch_update,
)
from lisnet.topology import Graph, build_weights, diameter
from reference import Envelope, path_graph


def probe_machine(neighbors=()):
    """Node 1 with rho 0 on the paper's schedule: quotient 0.5, never freezes."""
    g = path_graph(2) if neighbors else Graph.from_edges([1], [])
    return NodeMachine(
        1, 1.0, 2.0,
        build_weights(g)[1],
        neighbors,
        CheckpointSchedule(diameter=3, tau_bar=3),
        rho=0.0,
    )


class TestCheckpointSchedule:
    def test_paper_setting(self, monkeypatch):
        sched = CheckpointSchedule(diameter=3, tau_bar=3)
        assert sched.epoch_len == 4
        assert sched.checkpoint_len == 15
        machine = probe_machine()
        merges = []
        real_update = termination.epoch_update

        def counted(term):
            merges.append(machine.k)
            return real_update(term)

        monkeypatch.setattr(termination, "epoch_update", counted)
        checkpoints = [machine.k for _ in range(34) if machine.advance([]) is not None]
        assert checkpoints == [15, 30]
        assert merges == [4, 8, 12, 16, 20, 24, 28, 32]

    def test_send_period_flips_after_each_checkpoint(self):
        # extremes sent before the step-15 checkpoint are stale at the
        # step-20 merge; those sent at or after it are merged
        for send_step, merged in ((14, (0.5, 0.5)), (15, (9.0, -9.0))):
            machine = probe_machine(neighbors=(2,))
            for _ in range(16):
                machine.advance([])
            assert (machine.theta, machine.z, machine.y) == (2, 0.5, 0.5)
            envelope = Envelope(2, 1, send_step, 0.0, 0.0, payload_z=9.0, payload_y=-9.0)
            machine.advance([envelope])  # absorbed at step 17, merged at 20
            for _ in range(3):
                assert (machine.z, machine.y) == (0.5, 0.5)
                machine.advance([])
            assert machine.k == 20
            assert (machine.z, machine.y) == merged

    def test_checkpoint_event_reports_the_tested_extremes(self):
        # the extremes merged at step 4 are what the step-15 checkpoint
        # tests; the reseed afterwards must not leak into what advance returns
        machine = probe_machine(neighbors=(2,))
        machine.advance([Envelope(2, 1, 0, 0.0, 0.0, payload_z=9.0, payload_y=-9.0)])
        tested = [machine.advance([]) for _ in range(14)][-1]
        assert (machine.k, *tested, machine.frozen) == (15, 9.0, -9.0, 1, False)
        assert (machine.z, machine.y, machine.theta) == (0.5, 0.5, 2)

    def test_rejects_degenerate(self):
        with pytest.raises(ConfigurationError):
            CheckpointSchedule(diameter=0, tau_bar=3)
        with pytest.raises(ConfigurationError):
            CheckpointSchedule(diameter=1, tau_bar=-1)


def extremes(
    z, y, theta=1, frozen=False, *, r=1.0, s=1.0, rho=0.0, buffers=(-math.inf, math.inf)
):
    """A lone node's machine holding what epoch_update and checkpoint read and write."""
    term = NodeMachine(1, r, s, 1.0, (), CheckpointSchedule(1, 0), rho)
    term.z, term.y, term.theta, term.frozen = z, y, theta, frozen
    term._buf_z, term._buf_y = buffers
    return term


def fields(term):
    """Every field epoch_update and checkpoint may read or write, as a tuple."""
    return (
        term.r, term.s, term.k, term.z, term.y, term.theta, term.frozen, term.rho,
        term._buf_z, term._buf_y,
    )


class TestEpochUpdate:
    def test_takes_max_and_min(self):
        term = extremes(2.0, 2.0, buffers=(5.0, 1.0))
        epoch_update(term)
        assert (term.z, term.y) == (5.0, 1.0)
        assert (term._buf_z, term._buf_y) == (-math.inf, math.inf)  # emptied
        term._buf_z, term._buf_y = 3.0, 4.0
        epoch_update(term)  # a smaller z or a larger y moves nothing
        assert (term.z, term.y) == (5.0, 1.0)

    def test_no_neighbors_keeps_values(self):
        # an epoch that heard nothing leaves the empty buffer's -inf and inf
        term = extremes(2.0, -1.0, buffers=(-math.inf, math.inf))
        epoch_update(term)
        assert (term.z, term.y) == (2.0, -1.0)

    def test_frozen_rejected(self):
        term = extremes(1.0, 1.0, frozen=True, buffers=(2.0, 0.0))
        with pytest.raises(ProtocolError):
            epoch_update(term)
        assert fields(term) == fields(extremes(1.0, 1.0, frozen=True, buffers=(2.0, 0.0)))

    def test_path_propagation_in_diameter_epochs(self):
        # synchronous epoch merges on a 4-node path: the 9 reaches everyone
        # after 3 rounds and no earlier
        g = path_graph(4)
        values = {1: 0.0, 2: 0.0, 3: 0.0, 4: 9.0}
        terms = {i: extremes(values[i], values[i]) for i in g.nodes}
        for round_index in range(3):
            snapshot = {i: terms[i].z for i in g.nodes}
            for i in g.nodes:
                terms[i]._buf_z = max(snapshot[j] for j in g.neighbors(i))
                terms[i]._buf_y = min(snapshot[j] for j in g.neighbors(i))
                epoch_update(terms[i])
            if round_index < 2:
                assert terms[1].z != 9.0
        assert all(terms[i].z == 9.0 for i in g.nodes)


class TestCheckpoint:
    def test_freezes_below_threshold(self):
        term = extremes(0.5001, 0.5000, r=3.0, s=6.0, rho=1e-3, buffers=(0.7, 0.2))
        checkpoint(term)
        assert term.frozen
        assert term.z == 0.5001  # frozen values never move
        assert (term._buf_z, term._buf_y) == (-math.inf, math.inf)  # emptied

    def test_reseeds_above_threshold(self):
        term = extremes(0.9, 0.1, r=3.0, s=6.0, rho=1e-3, buffers=(0.7, 0.2))
        checkpoint(term)
        assert not term.frozen
        assert (term._buf_z, term._buf_y) == (-math.inf, math.inf)  # emptied
        assert term.z == term.y == pytest.approx(0.5)
        assert term.theta == 2

    def test_infinite_threshold_always_freezes(self):
        term = extremes(100.0, -100.0, r=1.0, s=2.0, rho=math.inf)
        checkpoint(term)
        assert term.frozen

    def test_probe_mode_never_freezes(self):
        term = extremes(0.5, 0.5, r=1.0, s=2.0, rho=0.0)
        checkpoint(term)
        assert not term.frozen
        assert term.theta == 2

    def test_frozen_rejected(self):
        term = extremes(1.0, 1.0, frozen=True, rho=1.0, buffers=(2.0, 0.0))
        with pytest.raises(ProtocolError):
            checkpoint(term)
        assert fields(term) == fields(extremes(1.0, 1.0, frozen=True, rho=1.0, buffers=(2.0, 0.0)))


class TestNodeMachine:
    def test_single_node_freezes_at_first_checkpoint(self):
        # lone node, demand 100 within [0, 200]: quotient 0.5, command 100
        g = Graph.from_edges([1], [])
        w = build_weights(g)
        problem = ApportionProblem(100.0, {1: (0.0, 200.0)}, frozenset({1}))
        r0, s0 = init_states(problem)[1]
        sched = CheckpointSchedule(diameter=1, tau_bar=0)
        machine = NodeMachine(1, r0, s0, w[1], g.neighbors(1), sched, rho=1e-6)
        assert machine.emit() == []
        machine.advance([])
        assert machine.frozen
        assert machine.theta == 1
        assert machine.ratio() == pytest.approx(0.5)
        command = reference_command(problem, machine.r, machine.s, 1)
        assert command == pytest.approx(100.0)

    def test_frozen_node_goes_silent(self):
        # a frozen node never absorbs again, so one that kept sending to its
        # neighbour would create mass
        problem = ApportionProblem(100.0, {1: (0.0, 200.0)}, frozenset({1}))
        machine = NodeMachine(
            1, *init_states(problem)[1],
            build_weights(path_graph(2))[1],
            (2,),
            CheckpointSchedule(1, 0),
            rho=math.inf,
        )
        assert [env[1] for env in machine.emit()] == [2]
        machine.advance([])
        assert machine.frozen
        assert machine.emit() == []
        stray = Envelope(src=2, dst=1, send_step=0, payload_r=0.0, payload_s=0.1)
        with pytest.raises(ProtocolError):
            machine.advance([stray])

    def test_a_frozen_node_steps_over_an_empty_inbox(self):
        # the simulator steps every node, frozen or not, until all have frozen
        problem = ApportionProblem(100.0, {1: (0.0, 200.0)}, frozenset({1}))
        machine = NodeMachine(
            1, *init_states(problem)[1], 1.0, (), CheckpointSchedule(1, 0), rho=1e-6,
        )
        machine.advance(())
        assert machine.frozen
        frozen = (machine.r, machine.s, machine.k, machine.z, machine.y, machine.theta)
        assert machine.advance(()) is None
        assert (machine.r, machine.s, machine.k, machine.z, machine.y, machine.theta) == frozen

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

    def test_rejects_negative_or_nan_threshold(self):
        g = Graph.from_edges([1], [])
        w = build_weights(g)
        for rho in (-1e-9, math.nan):
            with pytest.raises(ConfigurationError):
                NodeMachine(1, 1.0, 2.0, w[1], (), CheckpointSchedule(1, 0), rho=rho)
        # rho 0 is plain ratio consensus: the machine never freezes
        assert NodeMachine(1, 1.0, 2.0, w[1], (), CheckpointSchedule(1, 0), rho=0.0).rho == 0.0

    @pytest.mark.parametrize("rho", [0.0, -1.0])
    def test_cycle_rejects_nonpositive_threshold(self, rho):
        # a dispatch cycle must terminate, so only a positive rho runs one
        g = Graph.from_edges([1], [])
        problem = ApportionProblem(100.0, {1: (0.0, 200.0)}, frozenset({1}))
        with pytest.raises(ConfigurationError, match="positive threshold"):
            run_cycle(g, build_weights(g), problem, DelayModel(FIXED, 0),
                      CheckpointSchedule(1, 0), rho)


class TestTerminationProperties:
    def _states(self, g, r0, s0):
        return {i: (r0[i], s0[i]) for i in g.nodes}

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
            sim = Simulation(
                g, w, self._states(g, r0, s0),
                DelayModel.fixed_random(g, tau, rng.randrange(999)), sched,
            )
            sim.run(sched.checkpoint_len)
            tested = [
                (z, y) for step, _, _, _, _, z, y, _, _ in sim.trace_rows
                if step == sched.checkpoint_len
            ]
            assert len(tested) == len(g.nodes)
            for z, y in tested:
                assert z == max(seeds)  # bitwise: propagation copies floats
                assert y == min(seeds)

    def _wrong_extremes(self, g, tau, r0, s0, schedule, periods=4):
        """(theta, node) of every probe-mode checkpoint whose z or y is not exact.

        Every directed link delays by exactly tau, the slowest propagation
        the bound allows. Exact means the max and min of the quotients the
        nodes reseeded from at the previous checkpoint (at the first, the
        initial quotients), bit for bit.
        """
        delays = {}
        for a, b in g.edges:
            delays[(a, b)] = delays[(b, a)] = tau
        sim = Simulation(
            g, build_weights(g), self._states(g, r0, s0),
            DelayModel(FIXED, tau, delays), schedule,
        )
        length = schedule.checkpoint_len
        sim.run(periods * length)
        seeds = [r0[i] / s0[i] for i in sorted(g.nodes)]
        wrong = []
        for theta in range(1, periods + 1):
            rows = [row for row in sim.trace_rows if row[0] == theta * length]
            assert [row[7] for row in rows] == [theta] * len(g.nodes)
            wrong += [
                (theta, node) for _, node, _, _, _, z, y, _, _ in rows
                if (z, y) != (max(seeds), min(seeds))
            ]
            seeds = [ratio for _, _, _, _, ratio, *_ in rows]  # what each node reseeds from
        return wrong

    def test_extremes_exact_at_every_checkpoint_under_worst_case_delays(self):
        rng = random.Random(3)
        for case in range(60):
            n = rng.randint(2, 9)
            g = path_graph(n) if case % 2 else Graph.random_connected(rng, n)
            tau = rng.randint(1, 3)
            r0 = {i: rng.uniform(-10, 10) for i in g.nodes}
            s0 = {i: rng.uniform(0.5, 2.0) for i in g.nodes}
            schedule = CheckpointSchedule(max(1, diameter(g)), tau)
            assert self._wrong_extremes(g, tau, r0, s0, schedule) == [], (g, tau)

    def test_one_step_shorter_schedule_misses_the_extremes(self):
        # the schedule is tight: on two nodes with tau = 2, a checkpoint
        # period of 4 instead of 5 closes the second period before any
        # value sent in it has been merged, so each node tests only its own
        class OneStepShort(CheckpointSchedule):
            @property
            def checkpoint_len(self):
                return super().checkpoint_len - 1

        g = path_graph(2)
        r0 = {1: 1.0, 2: 2.0}
        s0 = {1: 1.0, 2: 1.0}
        assert self._wrong_extremes(g, 2, r0, s0, CheckpointSchedule(1, 2)) == []
        short = OneStepShort(1, 2)
        assert short.checkpoint_len == 4
        assert self._wrong_extremes(g, 2, r0, s0, short) == [(2, 1), (2, 2)]

    def test_gap_identical_across_nodes_at_checkpoints(self):
        g = Graph.cycle(6)
        w = build_weights(g)
        rng = random.Random(9)
        r0 = {i: rng.uniform(0, 100) for i in g.nodes}
        s0 = {i: rng.uniform(1, 5) for i in g.nodes}
        sched = CheckpointSchedule(3, 3)
        sim = Simulation(g, w, self._states(g, r0, s0), DelayModel.stochastic(3), sched, seed=2)
        sim.run(4 * sched.checkpoint_len)
        by_step = {}
        for step, _, _, _, ratio, z, y, _, _ in sim.trace_rows:
            by_step.setdefault(step, []).append((ratio, z, y))
        assert len(by_step) == 4
        for step, tested in by_step.items():
            gaps = [z - y for _, z, y in tested]
            assert max(gaps) - min(gaps) <= 1e-12
            # the true quotient envelope sandwiches every node's quotient
            for ratio, z, y in tested:
                assert y - 1e-12 <= ratio <= z + 1e-12

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
            # a frozen row's r and s are the node's frozen snapshot r*, s*
            frozen = {
                node: (r, s) for _, node, r, s, _, _, _, _, is_frozen in result.trace_rows
                if is_frozen
            }
            for i in g.nodes:
                quotient = frozen[i][0] / frozen[i][1]
                assert abs(quotient - exact) <= rho
                # any excursion past the feasible band stays within threshold
                assert -rho <= quotient <= 1.0 + rho
