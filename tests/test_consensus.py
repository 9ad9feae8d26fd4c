import math
import random

import pytest

from lisnet.consensus import ConsensusState, absorb, emit
from lisnet.errors import InvariantError, ProtocolError
from lisnet.netsim import FIXED, DelayModel, simulate_averaging
from lisnet.topology import Graph, build_weights
from reference import Envelope, global_extremes_oracle


class TestEmit:
    def test_uniform_split_two_neighbors(self):
        g = Graph.cycle(3)
        w = build_weights(g)
        state = ConsensusState(node=1, r=3.0, s=0.6)
        out = emit(state, w.shares(1, g.neighbors(1)))
        assert [dst for _, dst, *_ in out] == [2, 3]
        for src, _, send_step, payload_r, payload_s, _, _ in out:
            assert src == 1
            assert send_step == 0
            assert payload_r == pytest.approx(1.0)
            assert payload_s == pytest.approx(0.2)

    def test_isolated_node_emits_nothing(self):
        g = Graph.from_edges([1], [])
        w = build_weights(g)
        assert emit(ConsensusState(node=1, r=5.0, s=1.0), w.shares(1, g.neighbors(1))) == []

    def test_zero_numerator(self):
        g = Graph.cycle(3)
        w = build_weights(g)
        out = emit(ConsensusState(node=2, r=0.0, s=0.5), w.shares(2, g.neighbors(2)))
        for _, _, _, payload_r, payload_s, _, _ in out:
            assert payload_r == 0.0
            assert payload_s == pytest.approx(0.5 / 3.0)

    def test_piggybacked_extremes(self):
        g = Graph.cycle(3)
        w = build_weights(g)
        out = emit(
            ConsensusState(node=1, r=1.0, s=1.0), w.shares(1, g.neighbors(1)), z=4.0, y=-2.0
        )
        assert all(z == 4.0 and y == -2.0 for *_, z, y in out)


class TestAbsorb:
    def test_pure_self_decay(self):
        g = Graph.cycle(3)
        w = build_weights(g)
        state = ConsensusState(node=1, r=3.0, s=0.9)
        absorb(state, [], w.self_weight(1), 0, -math.inf, math.inf)
        assert state.r == pytest.approx(1.0)
        assert state.s == pytest.approx(0.3)
        assert state.k == 1

    def test_two_node_hand_iteration(self):
        # no delays: r = (4, 0), s = (1, 1) equalizes in one step, ratio 2
        g = Graph.from_edges([1, 2], [(1, 2)])
        w = build_weights(g)
        states = {
            1: ConsensusState(node=1, r=4.0, s=1.0),
            2: ConsensusState(node=2, r=0.0, s=1.0),
        }
        for _ in range(3):
            outbound = {i: emit(states[i], w.shares(i, g.neighbors(i))) for i in states}
            absorb(states[1], outbound[2], w.self_weight(1), 0, 0.0, 0.0)
            absorb(states[2], outbound[1], w.self_weight(2), 0, 0.0, 0.0)
        assert states[1].r == pytest.approx(2.0)
        assert states[2].r == pytest.approx(2.0)
        assert states[1].ratio() == pytest.approx(2.0)
        assert states[2].ratio() == pytest.approx(2.0)

    def test_misaddressed_envelope_rejected(self):
        g = Graph.cycle(3)
        w = build_weights(g)
        fine = Envelope(src=2, dst=1, send_step=0, payload_r=0.1, payload_s=0.1, payload_z=9.0)
        stray = Envelope(src=2, dst=3, send_step=0, payload_r=0.1, payload_s=0.1)
        state = ConsensusState(node=1, r=1.0, s=1.0)
        with pytest.raises(ProtocolError):
            absorb(state, [fine, stray], w.self_weight(1), 0, 1.0, 1.0)
        assert state == ConsensusState(node=1, r=1.0, s=1.0)

    def test_extremes_from_the_period_start_on(self):
        # since = 8: the envelope sent at 8 counts, the one sent at 7 is stale
        state = ConsensusState(node=1, r=1.0, s=1.0, k=9)
        at_since = Envelope(2, 1, 8, 0.1, 0.1, payload_z=5.0, payload_y=-5.0)
        before = Envelope(3, 1, 7, 0.1, 0.1, payload_z=50.0, payload_y=-50.0)
        assert absorb(state, [before, at_since], 0.5, 8, 1.0, 1.0) == (5.0, -5.0)
        assert absorb(state, [before], 0.5, 8, 1.0, 1.0) == (1.0, 1.0)

    def test_empty_inbox_returns_the_given_pair(self):
        state = ConsensusState(node=1, r=1.0, s=1.0)
        assert absorb(state, [], 0.5, 0, 2.5, -0.5) == (2.5, -0.5)
        assert absorb(state, [], 0.5, 0, -math.inf, math.inf) == (-math.inf, math.inf)

    def test_five_node_average_reaches_400(self):
        # initial values summing to 2000 average to 400 at every node
        g = Graph.cycle(5)
        w = build_weights(g)
        initial = {1: 800.0, 2: 100.0, 3: 400.0, 4: 500.0, 5: 200.0}
        sim = simulate_averaging(
            g, w, initial, {i: 1.0 for i in g.nodes}, DelayModel.stochastic(3), seed=3
        )
        sim.run(400)
        for mu in sim.ratios().values():
            assert mu == pytest.approx(400.0, abs=1e-9)


class TestRatio:
    def test_simple_quotient(self):
        assert ConsensusState(node=1, r=7.0, s=2.0).ratio() == 3.5

    def test_zero_numerator(self):
        assert ConsensusState(node=1, r=0.0, s=1.0).ratio() == 0.0

    def test_zero_denominator_faults(self):
        with pytest.raises(InvariantError):
            ConsensusState(node=1, r=1.0, s=0.0).ratio()


class TestGlobalExtremesOracle:
    def test_uniform_window(self):
        windows = {i: [(2.0 * c, c) for c in (1.0, 2.0)] for i in range(3)}
        assert global_extremes_oracle(windows) == (2.0, 2.0)

    def test_mixed_window(self):
        windows = {0: [(1.0, 1.0), (2.0, 1.0)], 1: [(3.0, 1.0)]}
        assert global_extremes_oracle(windows) == (3.0, 1.0)

    def test_zero_denominators_skipped(self):
        windows = {0: [(5.0, 0.0), (2.0, 1.0)]}
        assert global_extremes_oracle(windows) == (2.0, 2.0)

    def test_all_unusable_faults(self):
        with pytest.raises(InvariantError):
            global_extremes_oracle({0: [(1.0, 0.0)]})


class TestAsymptotics:
    def test_limit_is_ratio_of_initial_sums(self):
        # long horizon on random graphs with random fixed delays
        rng = random.Random(11)
        for _ in range(3):
            g = Graph.random_connected(rng, rng.randint(2, 8))
            w = build_weights(g)
            r0 = {i: rng.uniform(-100.0, 100.0) for i in g.nodes}
            s0 = {i: rng.uniform(0.5, 3.0) for i in g.nodes}
            target = sum(r0.values()) / sum(s0.values())
            model = DelayModel.fixed_random(g, 3, rng.randrange(1000))
            sim = simulate_averaging(g, w, r0, s0, model, seed=1)
            sim.run(5000)
            for mu in sim.ratios().values():
                assert abs(mu - target) <= 1e-6

    def test_limit_invariant_to_delay_realization(self):
        g = Graph.cycle(6)
        w = build_weights(g)
        r0 = {i: float(i * 7 % 11) for i in g.nodes}
        s0 = {i: 1.0 for i in g.nodes}
        finals = []
        for model, seed in [
            (DelayModel(FIXED, 0), 0),
            (DelayModel.fixed_random(g, 2, 5), 0),
            (DelayModel.fixed_random(g, 3, 9), 1),
            (DelayModel.stochastic(3), 2),
            (DelayModel.stochastic(1), 3),
        ]:
            sim = simulate_averaging(g, w, r0, s0, model, seed=seed)
            sim.run(2000)
            finals.append(sim.ratios()[1])
        assert max(finals) - min(finals) <= 1e-6

    def test_denominator_stays_positive(self):
        rng = random.Random(23)
        g = Graph.random_connected(rng, 6)
        w = build_weights(g)
        sim = simulate_averaging(
            g,
            w,
            {i: rng.uniform(-5, 5) for i in g.nodes},
            {i: rng.uniform(0.01, 2.0) for i in g.nodes},
            DelayModel.stochastic(3),
            seed=4,
        )
        for _ in range(200):
            sim.step()
            assert all(m.state.s > 0.0 for m in sim.machines.values())
