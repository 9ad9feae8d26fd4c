import random

import pytest

from lisnet.consensus import (
    ConsensusState,
    Envelope,
    absorb,
    emit,
    global_extremes_oracle,
)
from lisnet.errors import InvariantError, ProtocolError
from lisnet.netsim import DelayModel, simulate_averaging
from lisnet.topology import Graph, build_weights


class TestEmit:
    def test_uniform_split_two_neighbors(self):
        g = Graph.cycle(3)
        w = build_weights(g)
        state = ConsensusState(node=1, r=3.0, s=0.6)
        out = emit(state, w, g.neighbors(1))
        assert [e.dst for e in out] == [2, 3]
        for e in out:
            assert e.src == 1
            assert e.send_step == 0
            assert e.payload_r == pytest.approx(1.0)
            assert e.payload_s == pytest.approx(0.2)

    def test_isolated_node_emits_nothing(self):
        g = Graph.from_edges([1], [])
        w = build_weights(g)
        assert emit(ConsensusState(node=1, r=5.0, s=1.0), w, g.neighbors(1)) == []

    def test_zero_numerator(self):
        g = Graph.cycle(3)
        w = build_weights(g)
        out = emit(ConsensusState(node=2, r=0.0, s=0.5), w, g.neighbors(2))
        for e in out:
            assert e.payload_r == 0.0
            assert e.payload_s == pytest.approx(0.5 / 3.0)

    def test_piggybacked_extremes(self):
        g = Graph.cycle(3)
        w = build_weights(g)
        out = emit(ConsensusState(node=1, r=1.0, s=1.0), w, g.neighbors(1), z=4.0, y=-2.0)
        assert all(e.payload_z == 4.0 and e.payload_y == -2.0 for e in out)


class TestAbsorb:
    def test_pure_self_decay(self):
        g = Graph.cycle(3)
        w = build_weights(g)
        state = ConsensusState(node=1, r=3.0, s=0.9)
        nxt = absorb(state, [], w)
        assert nxt.r == pytest.approx(1.0)
        assert nxt.s == pytest.approx(0.3)
        assert nxt.k == 1

    def test_two_node_hand_iteration(self):
        # no delays: r = (4, 0), s = (1, 1) equalizes in one step, ratio 2
        g = Graph.from_edges([1, 2], [(1, 2)])
        w = build_weights(g)
        states = {
            1: ConsensusState(node=1, r=4.0, s=1.0),
            2: ConsensusState(node=2, r=0.0, s=1.0),
        }
        for _ in range(3):
            outbound = {i: emit(states[i], w, g.neighbors(i)) for i in states}
            states = {
                1: absorb(states[1], [e for e in outbound[2] if e.dst == 1], w),
                2: absorb(states[2], [e for e in outbound[1] if e.dst == 2], w),
            }
        assert states[1].r == pytest.approx(2.0)
        assert states[2].r == pytest.approx(2.0)
        assert states[1].ratio() == pytest.approx(2.0)
        assert states[2].ratio() == pytest.approx(2.0)

    def test_misaddressed_envelope_rejected(self):
        g = Graph.cycle(3)
        w = build_weights(g)
        stray = Envelope(src=2, dst=3, send_step=0, payload_r=0.1, payload_s=0.1)
        with pytest.raises(ProtocolError):
            absorb(ConsensusState(node=1, r=1.0, s=1.0), [stray], w)

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
            (DelayModel.zero(), 0),
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
