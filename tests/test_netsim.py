import gc
import random
from collections import deque

import pytest

from lisnet import netsim, termination
from lisnet.apportioning import ApportionProblem, closed_form_oracle, init_states
from lisnet.errors import ConfigurationError, InvariantError, NonTerminationError, ProtocolError
from lisnet.netsim import (
    FIXED,
    STOCHASTIC,
    DelayModel,
    Mailbox,
    Simulation,
    run_cycle,
    run_naive_averaging,
    simulate_averaging,
)
from lisnet.termination import CheckpointSchedule
from lisnet.topology import Graph, build_weights, diameter
from reference import (
    Envelope,
    cyclic_garbage,
    global_extremes_oracle,
    oldest_age_scan,
    path_graph,
    pending_count_scan,
)

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


@pytest.fixture
def audit_log(monkeypatch):
    """At each of the simulator's own audit calls, in call order, the step
    index and every node's ``(r, s)`` in node order."""
    log = []
    audit = Simulation.audit

    def logged(self):
        audit(self)
        log.append((self.step_index, [(m.r, m.s) for m in self.machines.values()]))

    monkeypatch.setattr(Simulation, "audit", logged)
    return log


def window_extremes(audit_log, depth: int) -> list[tuple[float, float]]:
    """The omniscient (max, min) of every node's r/s over the last ``depth``
    audited steps, at each audit in ``audit_log``."""
    windows: dict[int, deque] = {}
    extremes = []
    for _, states in audit_log:
        for i, pair in enumerate(states):
            windows.setdefault(i, deque(maxlen=depth)).append(pair)
        extremes.append(global_extremes_oracle(windows))
    return extremes


# The seeded 50-node cycle of ``test_seeded_cycle_is_pinned_to_the_last_bit``,
# recorded with repr precision under CPython 3.11 from the plain-loop simulator:
# any change to the delay stream, the message order or a summation order moves
# these floats.
PINNED_STEPS = 387
PINNED_THETA = 9
PINNED_CONSERVATION_ERROR = 7.078948880169004e-14
PINNED_COMMANDS = [
    289.2358047645232, 48.673405124712076, 258.53127240971327, 6.148983879303509,
    211.28331590979818, 425.1313867198086, 402.8886422422309, 363.9082374547616,
    68.42846146278497, 123.11760639946122, 258.9358242122503, 40.760808134662796,
    465.942497812725, 232.5336656627921, 410.4866809799432, 203.83709583747606,
    387.8805331706608, 221.77470724251265, 7.221190421453437, 177.77599481743474,
    262.8798379145438, 150.7471135257365, 464.23408493954395, 45.07279338601015,
    25.08137740989841, 160.22563259233036, 479.3729717252511, 251.97649313995504,
    457.57222389956934, 349.01628168925873, 249.2171145901985, 269.9124446256533,
    18.254791106862854, 415.87540177310115, 189.0623080685591, 266.5980265819017,
    240.17680169853716, 64.03079920836265, 357.54102580487313, 257.7084338326387,
    280.2709698354517, 150.172649423642, 235.65740541459772, 332.91625390009324,
    391.1822448073208, 286.745129742649, 126.49808523344502, 24.636361467265388,
    92.37938464307594, 141.83944802492692,
]

# ``test_seeded_averaging_is_pinned_to_the_last_bit``: a seeded 9-node graph,
# 300 averaging steps per delay model, recorded with repr precision under
# CPython 3.11 while averaging nodes still ran without any stopping logic.
# Equal floats show that the stopping machine with rho 0 leaves the r/s
# stream and the delay draws untouched.
PINNED_AVERAGING = {
    "stochastic": (
        {1: 0.05346888369046068, 2: 0.053468883690460836, 3: 0.053468883690460996,
         4: 0.05346888369046124, 5: 0.053468883690460885, 6: 0.05346888369046074,
         7: 0.053468883690460677, 8: 0.05346888369046142, 9: 0.05346888369046097},
        5.329070518200751e-15,
    ),
    "fixed_random": (
        {1: 0.05346888369046052, 2: 0.05346888369046052, 3: 0.05346888369046052,
         4: 0.05346888369046052, 5: 0.05346888369046052, 6: 0.053468883690460524,
         7: 0.053468883690460524, 8: 0.05346888369046052, 9: 0.05346888369046052},
        6.217248937900877e-15,
    ),
}


# ``test_seeded_draw_branch_cycle_is_pinned_to_the_last_bit``: seeded 20-node
# cycles on the branches no benchmark workload reaches, weighted delay
# probabilities and per-edge caps below tau_bar, recorded with repr precision
# under CPython 3.11 from the per-message delay loop:
# (steps, theta, max_conservation_error, commands in node order).
PINNED_DRAW_BRANCHES = {
    "weighted": (
        95, 5, 1.277919851911894e-15,
        [963.2999813655911, 850.3266079906708, 1358.9082596883954, 730.3862185441693,
         1237.9885374031032, 965.5282143276183, 1558.7342554973611, 1545.4105291928463,
         1543.6413525968576, 2083.885833913214, 520.9011415880212, 1552.693873147841,
         2029.9032732922456, 916.9052477424461, 1771.059855828652, 703.39566727166,
         773.756112777428, 340.1348197178569, 906.78889278404, 1680.302674542732],
    ),
    "capped": (
        124, 4, 1.9286976837702297e-15,
        [205.90869947864522, 742.8138376307734, 511.59475874304695, 831.9128316198255,
         429.1590838658869, 692.8926640184537, 802.0971665997027, 533.789709266807,
         78.76715307770834, 345.1157732540695, 475.02193345229347, 622.1920316794137,
         867.1940513271051, 135.98842216321822, 731.6661276518691, 532.586502259012,
         498.89243155563247, 124.99521442095369, 623.9251320194867, 604.6341937466636],
    ),
}

# ``test_seeded_baseline_is_pinned_to_the_last_bit``: the naive baseline on a
# seeded 9-node graph, 300 rounds per delay model, recorded with repr precision
# under CPython 3.11 from the per-message delay loop.
PINNED_NAIVE = {
    "stochastic": {
        1: 352.88542235892083, 2: 352.885286101744, 3: 352.88518298750904,
        4: 352.8855619926255, 5: 352.8854207449322, 6: 352.88515239581824,
        7: 352.8856025553683, 8: 352.8854207747913, 9: 352.8855959459431,
    },
    "fixed_random": {
        1: 312.3836641936867, 2: 312.3836433974362, 3: 312.3836240773501,
        4: 312.38367969328976, 5: 312.3836686804613, 6: 312.3836147098965,
        7: 312.3836836237264, 8: 312.38367112514743, 9: 312.3836832864741,
    },
}


def seeded_fleet(seed: int, n: int) -> tuple[random.Random, Graph, ApportionProblem]:
    """A random connected n-node fleet with random windows and demand; and its generator."""
    rng = random.Random(seed)
    g = Graph.random_connected(rng, n)
    bounds = {}
    for i in g.nodes:
        lo = rng.uniform(0.0, 500.0)
        bounds[i] = (lo, lo + rng.uniform(50.0, 2000.0))
    # summed in order, not by sum(), which is compensated from Python 3.12
    floor = ceiling = 0.0
    for lo, hi in bounds.values():
        floor += lo
        ceiling += hi
    demand = rng.uniform(floor, ceiling)
    return rng, g, ApportionProblem(demand, bounds, frozenset({1}))


def assert_batch_is_the_stream(model, links, seed, reference_draws):
    """``delay_for`` equals ``reference_draws(reference)`` on a same-seeded
    generator and leaves the same state behind; an empty batch draws nothing."""
    rng, reference = random.Random(seed), random.Random(seed)
    assert list(model.delay_for(rng, links)) == reference_draws(reference)
    assert rng.getstate() == reference.getstate()
    assert list(model.delay_for(rng, [])) == []
    assert rng.getstate() == reference.getstate()


class TestDelayModel:
    LINKS = [(1, 2)] * 1000

    def test_fixed_respects_bound(self):
        with pytest.raises(ConfigurationError):
            DelayModel(FIXED, 3, {(1, 2): 5})

    def test_stochastic_draws_within_bound(self):
        model = DelayModel.stochastic(3)
        assert set(model.delay_for(random.Random(0), self.LINKS[:200])) == {0, 1, 2, 3}

    def test_custom_distribution(self):
        model = DelayModel.stochastic(2, probabilities=[0.0, 0.0, 1.0])
        assert set(model.delay_for(random.Random(0), self.LINKS[:50])) == {2}

    def test_zero_model(self):
        model = DelayModel(FIXED, 0)
        assert list(model.delay_for(random.Random(0), [(1, 2), (2, 1)])) == [0, 0]

    def test_per_edge_cap_applies(self):
        # link 1-2 is capped at 1 below tau_bar = 3; link 2-3 is not
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        sim = simulate_averaging(
            g, build_weights(g), {i: float(i) for i in g.nodes}, {i: 1.0 for i in g.nodes},
            DelayModel(STOCHASTIC, 3, bounds={(1, 2): 1}), seed=4,
        )
        delays = {(1, 2): set(), (2, 1): set(), (2, 3): set(), (3, 2): set()}
        for _ in range(100):
            sim.step()
            for deliver, batch in sim.mailbox._pending.items():
                for src, dst, sent, *_ in batch:
                    delays[(src, dst)].add(deliver - sent)
        assert delays[(1, 2)] | delays[(2, 1)] <= {0, 1}
        assert max(delays[(2, 3)] | delays[(3, 2)]) == 3

    @pytest.mark.parametrize("probabilities", [None, (1, 1, 1, 1)], ids=["uniform", "weighted"])
    def test_a_backward_bound_key_caps_both_directions(self, probabilities):
        model = DelayModel(STOCHASTIC, 3, probabilities=probabilities, bounds={(2, 1): 1})
        assert model.bounds == {(1, 2): 1}
        links = [(1, 2), (2, 1), (2, 3), (3, 2)] * 250
        delays = list(model.delay_for(random.Random(0), links))
        assert set(delays[0::4]) == set(delays[1::4]) == {0, 1}
        assert set(delays[2::4]) == set(delays[3::4]) == {0, 1, 2, 3}

    def test_caps_at_or_above_tau_bar_draw_the_plain_stream(self):
        plain = DelayModel.stochastic(2)
        capped = DelayModel(STOCHASTIC, 2, bounds={(1, 2): 2, (3, 2): 5})
        links = [(1, 2), (2, 1), (2, 3)] * 100
        assert capped.delay_for(random.Random(1), links) == plain.delay_for(
            random.Random(1), links
        )

    def test_fixed_delay_above_its_edge_cap_is_rejected(self):
        DelayModel(FIXED, 3, {(1, 2): 1, (2, 1): 1}, bounds={(1, 2): 1})
        with pytest.raises(ConfigurationError, match=r"fixed delay 3 on \(2, 1\) exceeds"):
            DelayModel(FIXED, 3, {(1, 2): 1, (2, 1): 3}, bounds={(1, 2): 1})

    @pytest.mark.parametrize("tau_bar", [*range(6), 254, 255, 1000])
    def test_uniform_draws_are_the_randint_stream(self, tau_bar):
        # up to 254 one getrandbits call per batch pass; 255 and above one per draw
        model = DelayModel.stochastic(tau_bar)
        assert_batch_is_the_stream(
            model, self.LINKS, tau_bar,
            lambda reference: [reference.randint(0, tau_bar) for _ in self.LINKS],
        )

    @pytest.mark.parametrize(
        "probabilities",
        [[0.1, 0.3, 0.3, 0.3], [0, 0, 0, 1], [1, 2, 3], [0.5, 0.0, 2.5, 1e-3, 7.0, 0.25]],
    )
    def test_weighted_draws_are_the_choices_stream(self, probabilities):
        tau_bar = len(probabilities) - 1
        model = DelayModel.stochastic(tau_bar, probabilities)
        support = range(tau_bar + 1)
        assert_batch_is_the_stream(
            model, self.LINKS, tau_bar,
            lambda reference: [
                reference.choices(support, weights=probabilities)[0] for _ in self.LINKS
            ],
        )

    def test_fixed_delays_are_looked_up_and_draw_nothing(self):
        model = DelayModel(FIXED, 3, {(1, 2): 3, (2, 1): 1, (2, 3): 2})
        links = [(1, 2, "payload"), (2, 3), (3, 2), (2, 1), (1, 2)]
        assert_batch_is_the_stream(model, links, 0, lambda reference: [3, 2, 0, 1, 3])

    def test_uniform_batches_are_the_randint_stream_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=150)
        @hypothesis.given(
            st.integers(0, 300), st.integers(0, 5000), st.integers(0, 2**64 - 1)
        )
        def check(tau_bar, count, seed):
            links = [(1, 2)] * count
            assert_batch_is_the_stream(
                DelayModel.stochastic(tau_bar), links, seed,
                lambda reference: [reference.randint(0, tau_bar) for _ in links],
            )

        check()


def count_traffic(box: Mailbox) -> list[int]:
    """Wrap ``box``'s own ``post`` and ``due``; the list counts [posted, delivered]."""
    counts = [0, 0]
    post, due = box.post, box.due

    def counted_post(env, deliver_step):
        counts[0] += 1
        post(env, deliver_step)

    def counted_due(step):
        out = due(step)
        counts[1] += len(out)
        return out

    box.post, box.due = counted_post, counted_due
    return counts


class TestMailbox:
    def test_delivers_once_in_order(self):
        box = Mailbox()
        counts = count_traffic(box)
        e1 = Envelope(src=1, dst=2, send_step=0, payload_r=1.0, payload_s=1.0)
        e2 = Envelope(src=3, dst=2, send_step=0, payload_r=2.0, payload_s=1.0)
        box.post(e1, 2)
        box.post(e2, 2)
        assert box.due(0) == []
        assert box.due(2) == [e1, e2]
        assert box.due(2) == []
        assert counts == [2, 2]

    def test_pending_mass(self):
        box = Mailbox()
        box.post(Envelope(src=1, dst=2, send_step=0, payload_r=1.5, payload_s=0.5), 1)
        box.post(Envelope(src=2, dst=1, send_step=0, payload_r=-0.5, payload_s=0.25), 3)
        assert box.pending_mass() == (1.0, 0.75)


class TestConservationAndDelivery:
    def test_every_step_conserves_mass(self, audit_log):
        rng = random.Random(77)
        for model_builder in (
            lambda g: DelayModel.fixed_random(g, 3, 5),
            lambda g: DelayModel.stochastic(3),
        ):
            g = Graph.random_connected(rng, 7)
            w = build_weights(g)
            r0 = {i: rng.uniform(-50, 50) for i in g.nodes}
            s0 = {i: rng.uniform(0.5, 2) for i in g.nodes}
            audit_log.clear()
            sim = simulate_averaging(g, w, r0, s0, model_builder(g), seed=1)
            for _ in range(300):
                sim.step()
                node_r = sum(m.r for m in sim.machines.values())
                flight_r, _ = sim.mailbox.pending_mass()
                assert node_r + flight_r == pytest.approx(sum(r0.values()), abs=1e-6)
            # the simulation audits every step internally, and once at construction
            assert [step for step, _ in audit_log] == list(range(301))
            assert sim.max_conservation_error <= 1e-9

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
        counts = count_traffic(sim.mailbox)
        sim.run(100)
        posted, delivered = counts
        pending = pending_count_scan(sim.mailbox._pending)
        assert delivered > 0
        assert posted == delivered + pending
        assert pending <= 3 * 2 * len(g.nodes)  # at most tau rounds in flight

    def test_audit_step_zero(self):
        g = Graph.cycle(4)
        w = build_weights(g)
        sim = simulate_averaging(
            g, w, {i: 10.0 for i in g.nodes}, {i: 1.0 for i in g.nodes},
            DelayModel(FIXED, 0),
        )
        assert sim.audit() is None
        assert sim.step_index == 0
        assert sim.mailbox.pending_mass() == (0.0, 0.0)
        assert sum(m.r for m in sim.machines.values()) == 40.0
        assert sim.max_conservation_error == 0.0

    def test_states_keyed_off_the_graph_nodes_rejected(self):
        g = path_graph(3)
        w = build_weights(g)
        sched = CheckpointSchedule(2, 0)
        states = {i: (1.0, 1.0) for i in g.nodes}
        Simulation(g, w, states, DelayModel(FIXED, 0), sched)
        for bad in (
            {i: states[i] for i in (1, 2)},  # node 3 missing
            {**states, 4: (1.0, 1.0)},  # not a graph node
        ):
            with pytest.raises(ConfigurationError, match="keyed by exactly the graph's nodes"):
                Simulation(g, w, bad, DelayModel(FIXED, 0), sched)


def _in_flight_case(tau_bar: int = 3) -> tuple[Simulation, float, float]:
    """Averaging on a 6-cycle, five steps in, with envelopes in flight; and its r, s totals."""
    g = Graph.cycle(6)
    r0 = {i: 40.0 * i - 100.0 for i in g.nodes}
    s0 = {i: 0.5 + 0.25 * i for i in g.nodes}
    sim = simulate_averaging(g, build_weights(g), r0, s0, DelayModel.stochastic(tau_bar), seed=3)
    sim.run(5)
    assert pending_count_scan(sim.mailbox._pending) > 0
    total_r = total_s = 0.0
    for i in g.nodes:
        total_r += r0[i]
        total_s += s0[i]
    return sim, total_r, total_s


def _skew_latest_envelope(sim: Simulation, field: int, delta: float) -> None:
    """Add ``delta`` to one payload field of the last envelope of the latest round."""
    batch = sim.mailbox._pending[max(sim.mailbox._pending)]
    env = list(batch[-1])
    env[field] += delta
    batch[-1] = tuple(env)


class TestAuditBites:
    @pytest.mark.parametrize("field", [3, 4], ids=["payload_r", "payload_s"])
    def test_leak_above_tolerance_fails_at_that_step(self, field):
        sim, total_r, total_s = _in_flight_case()
        total = total_r if field == 3 else total_s
        k = sim.step_index
        _skew_latest_envelope(sim, field, 2e-9 * max(1.0, abs(total)))
        with pytest.raises(InvariantError, match=rf"^mass leak at step {k + 1}: "):
            sim.step()

    @pytest.mark.parametrize("field", [3, 4], ids=["payload_r", "payload_s"])
    def test_leak_below_tolerance_passes_and_is_reported(self, field, audit_log):
        sim, total_r, total_s = _in_flight_case()
        total = total_r if field == 3 else total_s
        before = sim.max_conservation_error
        _skew_latest_envelope(sim, field, 0.5e-9 * max(1.0, abs(total)))
        sim.run(50)
        assert before < 1e-14
        assert sim.max_conservation_error == pytest.approx(0.5e-9, rel=1e-4)
        assert len(audit_log) == 56

    def test_envelope_posted_older_than_the_delay_bound(self):
        sim, _, _ = _in_flight_case(tau_bar=3)
        k = sim.step_index
        sim.mailbox.post((1, 2, k - 4, 0.0, 0.0, 0.0, 0.0), k + 4)
        with pytest.raises(InvariantError, match="outlived the delay bound"):
            sim.step()

    def test_envelope_held_past_the_delay_bound(self):
        sim, _, _ = _in_flight_case(tau_bar=3)
        k = sim.step_index
        sim.mailbox.post((1, 2, k, 0.0, 0.0, 0.0, 0.0), k + 9)
        sim.run(3)
        with pytest.raises(InvariantError, match="outlived the delay bound"):
            sim.step()


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        g = Graph.cycle(6)
        w = build_weights(g)
        runs = []
        for _ in range(2):
            result = run_cycle(
                g, w, table_problem(), DelayModel.stochastic(3),
                CheckpointSchedule(3, 3), 0.02, seed=123, record_steps=True,
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
            (DelayModel(FIXED, 0), 0),
        ):
            result = run_cycle(
                g, w, problem, model, CheckpointSchedule(3, 3), rho, seed=seed,
            )
            for i, (lo, hi) in problem.bounds.items():
                assert abs(result.commands[i] - oracle[i]) <= rho * (hi - lo)
            commands.append(result.commands)
        for first in commands:
            for second in commands:
                for i, (lo, hi) in problem.bounds.items():
                    assert abs(first[i] - second[i]) <= 2 * rho * (hi - lo)


class TestRunCycle:
    def test_two_node_loose_threshold(self):
        g = Graph.from_edges([1, 2], [(1, 2)])
        w = build_weights(g)
        problem = ApportionProblem(
            30.0, {1: (0.0, 20.0), 2: (10.0, 40.0)}, frozenset({1})
        )
        result = run_cycle(
            g, w, problem, DelayModel(FIXED, 0), CheckpointSchedule(1, 0), rho=100.0,
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

    def test_a_command_outside_its_budget_raises(self):
        with pytest.raises(
            InvariantError,
            match=r"^node 1: command 184\.47221263104555 is 1\.553 rho spans "
            r"from the closed form 200\.0$",
        ):
            two_unit_stopping_rule_cycle()

    def test_nontermination_ceiling(self):
        g = Graph.cycle(6)
        sim = Simulation(
            g, build_weights(g), init_states(table_problem()), DelayModel.stochastic(3),
            CheckpointSchedule(3, 3), 1e-15, seed=0,
        )
        with pytest.raises(NonTerminationError, match="within 90 steps"):
            sim.run_until_frozen(90)
        assert sim.step_index == 90

    @pytest.mark.parametrize("tau_bar", [0, 1, 3])
    def test_a_split_freeze_raises_before_the_cycle_ends(self, tau_bar):
        # a one-hop schedule on a six-node path of diameter 5: node 3 freezes
        # before a neighbour does, whose next share reaches it within tau_bar
        g = path_graph(6)
        problem = ApportionProblem(
            9000.0, {i: (0.0, 1000.0 * i) for i in g.nodes}, frozenset({1})
        )
        with pytest.raises(ProtocolError, match="frozen node 3 received traffic"):
            run_cycle(
                g, build_weights(g), problem, DelayModel.stochastic(tau_bar),
                CheckpointSchedule(1, tau_bar), 0.05, seed=0,
            )

    def test_post_freeze_window_gap_below_threshold(self, audit_log):
        g = Graph.cycle(6)
        w = build_weights(g)
        rho = 0.02
        result = run_cycle(
            g, w, table_problem(), DelayModel.stochastic(3),
            CheckpointSchedule(3, 3), rho, seed=5,
        )
        assert audit_log[-1][0] == result.steps
        hi, lo = window_extremes(audit_log, depth=3 + 1)[-1]  # tau_bar + 1
        assert hi - lo <= rho

    def test_window_extremes_tighten_at_checkpoints(self, audit_log):
        # the omniscient windowed max never rises and the min never falls
        # when sampled at the checkpoint instants
        g = Graph.cycle(6)
        w = build_weights(g)
        sched = CheckpointSchedule(3, 3)
        result = run_cycle(
            g, w, table_problem(), DelayModel.stochastic(3), sched, 0.005, seed=3,
        )
        instants = sorted({step for step, *_ in result.trace_rows})
        assert len(instants) >= 3
        assert [step for step, _ in audit_log] == list(range(result.steps + 1))
        extremes = window_extremes(audit_log, depth=3 + 1)  # tau_bar + 1
        sampled = [extremes[k] for k in instants]
        for (earlier_max, earlier_min), (later_max, later_min) in zip(sampled, sampled[1:]):
            assert later_max <= earlier_max + 1e-12
            assert later_min >= earlier_min - 1e-12

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
            for i, (lo, hi) in problem.bounds.items():
                assert abs(result.commands[i] - oracle[i]) <= rho * (hi - lo)
            totals[frozenset(pick)] = result.commands.total
        spread = max(totals.values()) - min(totals.values())
        assert spread <= 2 * rho * (8200.0 - 999.0)

    def test_one_states_map_seeds_repeated_runs(self):
        # the machines hold their own r and s, so a second run from the
        # same map starts where the first did and ends the same to the bit
        g = Graph.cycle(6)
        w = build_weights(g)
        states = init_states(table_problem())
        before = dict(states)
        runs = []
        for _ in range(2):
            sim = Simulation(
                g, w, states, DelayModel.stochastic(3), CheckpointSchedule(3, 3), 0.02, seed=4,
            )
            sim.run(20)
            runs.append([(m.r, m.s, m.k) for m in sim.machines.values()])
        assert states == before
        assert runs[0] == runs[1]
        assert runs[0] != [(*before[i], 0) for i in sorted(g.nodes)]

    def test_seeded_cycle_is_pinned_to_the_last_bit(self):
        _, g, problem = seeded_fleet(50, 50)
        result = run_cycle(
            g, build_weights(g), problem, DelayModel.stochastic(3),
            CheckpointSchedule(max(1, diameter(g)), 3), 0.02, seed=50,
        )
        assert (result.steps, result.theta) == (PINNED_STEPS, PINNED_THETA)
        assert result.max_conservation_error == PINNED_CONSERVATION_ERROR
        assert [result.commands[i] for i in g.nodes] == PINNED_COMMANDS

    @pytest.mark.parametrize("kind", sorted(PINNED_DRAW_BRANCHES))
    def test_seeded_draw_branch_cycle_is_pinned_to_the_last_bit(self, kind):
        if kind == "weighted":
            seed = 31
            _, g, problem = seeded_fleet(seed, 20)
            model = DelayModel.stochastic(3, [0.1, 0.2, 0.3, 0.4])
        else:
            seed = 32
            rng, g, problem = seeded_fleet(seed, 20)
            caps = {e: rng.randint(0, 2) for e in sorted(g.edges) if rng.random() < 0.5}
            assert min(caps.values()) == 0
            model = DelayModel(STOCHASTIC, 3, bounds=caps)
        result = run_cycle(
            g, build_weights(g), problem, model,
            CheckpointSchedule(max(1, diameter(g)), 3), 0.02, seed=seed,
        )
        steps, theta, conservation_error, commands = PINNED_DRAW_BRANCHES[kind]
        assert (result.steps, result.theta) == (steps, theta)
        assert result.max_conservation_error == conservation_error
        assert [result.commands[i] for i in g.nodes] == commands

    @pytest.mark.parametrize("kind", sorted(PINNED_AVERAGING))
    def test_seeded_averaging_is_pinned_to_the_last_bit(self, kind):
        rng = random.Random(2024)
        g = Graph.random_connected(rng, 9)
        r0 = {i: rng.uniform(-50, 50) for i in g.nodes}
        s0 = {i: rng.uniform(0.5, 2) for i in g.nodes}
        if kind == "stochastic":
            model = DelayModel.stochastic(3)
        else:
            model = DelayModel.fixed_random(g, 3, 17)
        sim = simulate_averaging(g, build_weights(g), r0, s0, model, seed=5)
        sim.run(300)
        ratios, conservation_error = PINNED_AVERAGING[kind]
        assert sim.ratios() == ratios
        assert sim.max_conservation_error == conservation_error


def _audit_case(seed: int, kind: str, terminating: bool) -> Simulation:
    """A seeded simulation on a random connected graph with some edges capped below tau_bar."""
    rng = random.Random(seed)
    tau = rng.randint(0, 3)
    g = Graph.random_connected(rng, rng.randint(2, 12))
    caps = {e: rng.randint(0, tau - 1) for e in sorted(g.edges) if tau and rng.random() < 0.4}
    fixed = probabilities = None
    if kind == "fixed":
        fixed = {}
        for a, b in sorted(g.edges):
            cap = caps.get((a, b), tau)
            fixed[(a, b)] = rng.randint(0, cap)
            fixed[(b, a)] = rng.randint(0, cap)
    elif kind == "weighted":
        probabilities = tuple(rng.random() for _ in range(tau + 1))
    model = DelayModel(FIXED if kind == "fixed" else STOCHASTIC, tau, fixed, probabilities, caps)
    w = build_weights(g)
    schedule = CheckpointSchedule(max(1, diameter(g)), tau)
    rho = 0.01 if terminating else 0.0
    states = {i: (rng.uniform(-50, 50), rng.uniform(0.5, 2)) for i in g.nodes}
    return Simulation(g, w, states, model, schedule, rho, seed=seed)


class TestAuditMatchesReference:
    @pytest.mark.parametrize("kind", ["fixed", "uniform", "weighted"])
    @pytest.mark.parametrize("terminating", [True, False], ids=["cycle", "averaging"])
    def test_every_step_matches_the_reference(self, kind, terminating):
        for seed in range(12):
            sim = _audit_case(seed, kind, terminating)
            for _ in range(150):
                now = sim.step_index
                assert sim.mailbox.oldest_age(now) == oldest_age_scan(sim.mailbox._pending, now)
                frozen = sum(m.frozen for m in sim.machines.values())
                assert sim._frozen == frozen
                if frozen == len(sim.machines):
                    break
                sim.step()


class TestTracedCallStructure:
    """The call counts of the targets ``perfbench/tracer.py`` patches.

    The tracer reads its per-layer metrics from these counts, so a hot-loop
    change keeps each target's name, owner and count. Retires with ROADMAP
    item 1, which re-maps the tracer to phases.
    """

    TARGETS = (
        (netsim.Simulation, "step"),
        (netsim.Simulation, "audit"),
        (netsim.DelayModel, "delay_for"),
        (netsim.Mailbox, "post"),
        (netsim.Mailbox, "due"),
        (netsim.Mailbox, "oldest_age"),
        (termination.NodeMachine, "emit"),
        (termination.NodeMachine, "advance"),
        (termination, "emit"),
        (termination, "absorb"),
        (termination, "epoch_update"),
        (termination, "checkpoint"),
    )

    def test_a_seeded_cycle_calls_each_target_per_node_message_or_step(self, monkeypatch):
        calls = {}
        for owner, name in self.TARGETS:
            key = f"{owner.__name__.rpartition('.')[2]}.{name}"
            calls[key] = 0

            def counted(*args, fn=getattr(owner, name), key=key, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        _, g, problem = seeded_fleet(3, 12)
        schedule = CheckpointSchedule(diameter(g), 3)
        result = run_cycle(
            g, build_weights(g), problem, DelayModel.stochastic(3), schedule, 0.01, seed=3,
        )
        n, steps, theta = len(g.nodes), result.steps, result.theta
        # several checkpoints, and a step count that is no multiple of the
        # epoch length 4, so the count per epoch rounds down
        assert (n, len(g.edges), schedule.checkpoint_len, theta, steps) == (12, 13, 27, 5, 135)
        assert calls == {
            "Simulation.step": steps,
            "Simulation.audit": steps + 1,  # and once at construction
            "DelayModel.delay_for": steps,
            "Mailbox.post": steps * 2 * len(g.edges),  # every node sends every step
            "Mailbox.due": steps,
            "Mailbox.oldest_age": steps,
            "NodeMachine.emit": n * steps,
            "NodeMachine.advance": n * steps,
            # all nodes freeze at the last step, so every node is live until then
            "termination.emit": n * steps,
            "termination.absorb": n * steps,
            "termination.epoch_update": n * (steps // schedule.epoch_len),
            "termination.checkpoint": n * theta,
        }


class TestNaiveBaseline:
    @pytest.mark.parametrize("kind", sorted(PINNED_NAIVE))
    def test_seeded_baseline_is_pinned_to_the_last_bit(self, kind):
        rng = random.Random(2025)
        g = Graph.random_connected(rng, 9)
        initial = {i: rng.uniform(0, 1000) for i in g.nodes}
        if kind == "stochastic":
            model = DelayModel.stochastic(3)
        else:
            model = DelayModel.fixed_random(g, 3, 11)
        assert run_naive_averaging(g, initial, model, steps=300, seed=6) == PINNED_NAIVE[kind]

    def test_zero_delays_exact_average(self):
        g = Graph.cycle(5)
        initial = {1: 100.0, 2: 200.0, 3: 300.0, 4: 600.0, 5: 800.0}
        final = run_naive_averaging(g, initial, DelayModel(FIXED, 0), steps=300)
        for v in final.values():
            assert v == pytest.approx(400.0, abs=1e-6)

    def test_zero_caps_bind_in_the_baseline_too(self):
        g = Graph.cycle(5)
        initial = {1: 100.0, 2: 200.0, 3: 300.0, 4: 600.0, 5: 800.0}
        capped = DelayModel(STOCHASTIC, 3, bounds={e: 0 for e in g.edges})
        final = run_naive_averaging(g, initial, capped, steps=300, seed=3)
        assert final == run_naive_averaging(g, initial, DelayModel(FIXED, 0), steps=300)

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


def two_unit_stopping_rule_cycle():
    """``run_cycle`` on the two-unit instance whose check raises ``InvariantError``.

    Demand at the fleet's ceiling puts both units at hi; the stopping rule
    freezes with unit 1 at 184.47 W, 1.553 rho spans below 200 W.
    """
    problem = ApportionProblem(300.0, {1: (0.0, 200.0), 2: (0.0, 100.0)}, frozenset({2}))
    model = DelayModel(FIXED, 3, fixed_delays={(1, 2): 2, (2, 1): 3})
    g = path_graph(2)
    return run_cycle(g, build_weights(g), problem, model, CheckpointSchedule(1, 3), 0.05)


def six_node_cycle(record_steps=False):
    g = Graph.cycle(6)
    return run_cycle(
        g, build_weights(g), table_problem(), DelayModel.stochastic(3),
        CheckpointSchedule(3, 3), 0.02, seed=0, record_steps=record_steps,
    )


def never_freezing_loop():
    """``run_until_frozen`` on a threshold no cycle meets; raises ``NonTerminationError``."""
    g = Graph.cycle(6)
    sim = Simulation(
        g, build_weights(g), init_states(table_problem()), DelayModel.stochastic(3),
        CheckpointSchedule(3, 3), 1e-15, seed=0,
    )
    sim.run_until_frozen(90)


class TestCollectorPaused:
    """The loop runs without the cyclic collector, and leaves it as it found it."""

    def test_a_pause_restores_the_state_it_found(self, collector_was):
        with pytest.raises(KeyError):
            with netsim.collector_paused():
                assert not gc.isenabled()
                with netsim.collector_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
                raise KeyError
        assert gc.isenabled() is collector_was

    @pytest.mark.parametrize(
        "run, error",
        [
            (six_node_cycle, None),
            (two_unit_stopping_rule_cycle, InvariantError),
            (never_freezing_loop, NonTerminationError),
        ],
        ids=["returns", "invariant-error", "non-termination"],
    )
    def test_a_cycle_leaves_the_collector_as_it_found_it(self, collector_was, run, error):
        if error is None:
            run()
        else:
            with pytest.raises(error):
                run()
        assert gc.isenabled() is collector_was

    def test_no_collection_runs_inside_a_large_cycle(self, monkeypatch):
        # with the collector on in the loop, this 200-unit cycle collects 5 times
        _, g, problem = seeded_fleet(0, 200)
        sim = Simulation(
            g, build_weights(g), init_states(problem), DelayModel.stochastic(3),
            CheckpointSchedule(max(1, diameter(g)), 3), 0.02, seed=0,
        )
        in_step = []
        collections = []
        step = Simulation.step

        def counted_step(self):
            in_step.append(self.step_index)
            try:
                step(self)
            finally:
                in_step.pop()

        def count(phase, info):
            if phase == "start" and in_step:
                collections.append((in_step[0], info["generation"]))

        monkeypatch.setattr(Simulation, "step", counted_step)
        assert gc.isenabled()
        gc.callbacks.append(count)
        try:
            sim.run_until_frozen(1000 * sim.machines[1]._checkpoint_len)
        finally:
            gc.callbacks.remove(count)
        assert sim.step_index == 195
        assert collections == []

    @pytest.mark.parametrize("record_steps", [False, True], ids=["plain", "verbose"])
    def test_a_cycle_leaves_no_cyclic_garbage(self, record_steps):
        assert cyclic_garbage(lambda: six_node_cycle(record_steps)) == 0

    def test_averaging_leaves_no_cyclic_garbage(self):
        g = Graph.cycle(6)
        r0 = {i: float(i) for i in g.nodes}
        s0 = dict.fromkeys(g.nodes, 1.0)
        sim = simulate_averaging(g, build_weights(g), r0, s0, DelayModel.stochastic(3))
        assert cyclic_garbage(lambda: sim.run(200)) == 0
