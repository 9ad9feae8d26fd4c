"""Generated dispatch instants: every cycle keeps the paper's invariants.

``run_instant`` is given a connected graph of 1 to 30 units with capacity
windows, a demand anywhere in the feasible range (both ends included), a
delay bound from 0 to 3 with per-edge caps below it, and a uniform,
weighted or fixed delay model. It must end in a ``CycleResult`` or a
``ConfigurationError``, and a result must conserve mass, freeze every node
at one checkpoint and keep every command inside its window.

The two agreement invariants (the commands' total within rho of the
demand's span, each command within rho of the closed form) are not
asserted here: the stopping rule can certify a small gap while the
quotients still oscillate under periodic delays, which
``test_stopping_rule_certifies_a_gap_the_quotients_do_not_have`` pins.
"""

import pytest

from lisnet.apportioning import ApportionProblem, closed_form_oracle, ordered_sum
from lisnet.errors import ConfigurationError
from lisnet.netsim import FIXED, STOCHASTIC, DelayModel
from lisnet.scenario import run_instant
from lisnet.topology import Graph, edge_key
from reference import path_graph

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DETERMINISTIC = hypothesis.settings(derandomize=True, deadline=None, database=None)


@st.composite
def instants(draw):
    n = draw(st.integers(1, 30))
    nodes = range(1, n + 1)
    # a random recursive spanning tree keeps the graph connected
    edges = {(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)}
    if n > 1:
        pairs = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
        edges |= {edge_key(a, b) for a, b in draw(st.lists(pairs, max_size=n))}
    graph = Graph.from_edges(nodes, edges)

    windows = {}
    for i in nodes:
        lo = draw(st.floats(0.0, 1000.0))
        windows[i] = (lo, lo + draw(st.floats(1.0, 2000.0)))
    total_min = ordered_sum(lo for lo, _ in windows.values())
    total_max = ordered_sum(hi for _, hi in windows.values())
    demand = draw(
        st.sampled_from((total_min, total_max))
        | st.floats(total_min, total_max)
    )
    circulation = draw(st.sets(st.sampled_from(list(nodes)), min_size=1))
    problem = ApportionProblem(demand, windows, frozenset(circulation))

    tau_bar = draw(st.integers(0, 3))
    caps = {}
    if tau_bar:
        for edge in sorted(graph.edges):
            if draw(st.booleans()):
                caps[edge] = draw(st.integers(0, tau_bar - 1))
    kind = draw(st.sampled_from(("uniform", "probabilities", FIXED)))
    if kind == FIXED:
        fixed = {}
        for a, b in sorted(graph.edges):
            cap = caps.get((a, b), tau_bar)
            fixed[(a, b)] = draw(st.integers(0, cap))
            fixed[(b, a)] = draw(st.integers(0, cap))
        model = DelayModel(FIXED, tau_bar, fixed_delays=fixed, bounds=caps)
    else:
        probabilities = None
        if kind == "probabilities":
            weights = st.lists(st.floats(0.0, 1.0), min_size=tau_bar + 1, max_size=tau_bar + 1)
            probabilities = tuple(draw(weights.filter(any)))  # a positive total
        model = DelayModel(STOCHASTIC, tau_bar, probabilities=probabilities, bounds=caps)

    rho = draw(st.floats(0.005, 0.5))
    seed = draw(st.integers(0, 2**32 - 1))
    return graph, problem, model, rho, seed


@hypothesis.settings(DETERMINISTIC, max_examples=100)
@hypothesis.given(instants())
def test_generated_instant_conserves_freezes_at_once_and_stays_in_windows(instant):
    graph, problem, model, rho, seed = instant
    try:
        result = run_instant(graph, problem, model, rho, seed=seed)
    except ConfigurationError:
        return
    assert result.max_conservation_error <= 1e-9
    frozen = [row for row in result.trace_rows if row[8]]
    assert sorted(row[1] for row in frozen) == list(graph.nodes)
    assert {row[0] for row in frozen} == {result.steps}
    assert {row[7] for row in frozen} == {result.theta}
    for i, (lo, hi) in problem.bounds.items():
        assert lo <= result.commands[i] <= hi


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the stopping rule certifies a gap below rho while the quotients "
    "still oscillate under periodic delays",
)
def test_stopping_rule_certifies_a_gap_the_quotients_do_not_have():
    # demand at the fleet's ceiling: the closed form puts both units at hi.
    # The run freezes at theta 5 after 35 steps with unit 1 0.078 of its
    # span below the closed form and the total 1.035 rho spans short
    problem = ApportionProblem(300.0, {1: (0.0, 200.0), 2: (0.0, 100.0)}, frozenset({2}))
    model = DelayModel(FIXED, 3, fixed_delays={(1, 2): 2, (2, 1): 3})
    rho = 0.05
    result = run_instant(path_graph(2), problem, model, rho)
    oracle = closed_form_oracle(problem)
    assert abs(result.commands.total - problem.rho_d) <= rho * problem.total_span
    for i in problem.bounds:
        assert abs(result.commands[i] - oracle[i]) <= rho * problem.span(i)
