"""Generated dispatch instants: every cycle keeps the paper's invariants.

``run_instant`` is given a connected graph of 1 to 30 units with capacity
windows, a demand anywhere in the feasible range (both ends included), a
delay bound from 0 to 3 with per-edge caps below it, and a uniform,
weighted or fixed delay model. It must end in a ``CycleResult`` or a
``ConfigurationError``, and a result must conserve mass, freeze every node
at one checkpoint and keep every command inside its window.

The two agreement invariants (the commands' total within rho of the
demand's span, each command within rho of the closed form) do not hold
yet: the stopping rule can certify a small gap while shares still in
flight carry quotients outside it, and ``run_cycle`` then raises
``InvariantError`` for the node it leaves too far from the closed form.
``small_instants`` aims at that defect with 2 to 4 units. Its two
properties, the agreement at the end of a cycle and the limit inside every
checkpoint's tested extremes, and the two named instants below are strict
xfails until the rule is mended.
"""

import pytest

from lisnet.apportioning import ApportionProblem, init_states, ordered_sum
from lisnet.errors import ConfigurationError, InvariantError
from lisnet.netsim import FIXED, STOCHASTIC, DelayModel
from lisnet.scenario import run_instant
from lisnet.topology import Graph, edge_key
from reference import path_graph

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DETERMINISTIC = hypothesis.settings(derandomize=True, deadline=None, database=None)


def draw_graph(draw, n):
    """A connected graph on units 1 to n."""
    nodes = range(1, n + 1)
    # a random recursive spanning tree keeps the graph connected
    edges = {(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)}
    if n > 1:
        pairs = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
        edges |= {edge_key(a, b) for a, b in draw(st.lists(pairs, max_size=n))}
    return Graph.from_edges(nodes, edges)


def draw_problem(draw, nodes):
    """Capacity windows, a demand anywhere in range (both ends included), any circulation."""
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
    return ApportionProblem(demand, windows, frozenset(circulation))


@st.composite
def instants(draw):
    graph = draw_graph(draw, draw(st.integers(1, 30)))
    problem = draw_problem(draw, graph.nodes)

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
    raises=InvariantError,
    reason="the stopping rule certifies a gap below rho while the quotients "
    "still oscillate under periodic delays",
)
def test_stopping_rule_certifies_a_gap_the_quotients_do_not_have():
    # demand at the fleet's ceiling: the closed form puts both units at hi.
    # The run freezes at theta 5 after 35 steps with unit 1 0.078 of its
    # span below the closed form and the total 1.035 rho spans short
    problem = ApportionProblem(300.0, {1: (0.0, 200.0), 2: (0.0, 100.0)}, frozenset({2}))
    model = DelayModel(FIXED, 3, fixed_delays={(1, 2): 2, (2, 1): 3})
    run_instant(path_graph(2), problem, model, 0.05)


@st.composite
def small_instants(draw):
    """2 to 4 connected units, where today's stopping rule is unsound.

    Demand at either end of the range or inside it, any circulation set,
    fixed or uniform delays with tau_bar from 1 to 3 and no caps, and rho
    from 0.005 to 0.2.
    """
    graph = draw_graph(draw, draw(st.integers(2, 4)))
    problem = draw_problem(draw, graph.nodes)

    # sampled_from leans to its first values: the defect shows mostly on two
    # units, under fixed delays, at tau_bar 3
    tau_bar = draw(st.sampled_from((3, 2, 1)))
    if draw(st.sampled_from((FIXED, STOCHASTIC))) == FIXED:
        fixed = {}
        for a, b in sorted(graph.edges):
            fixed[(a, b)] = draw(st.integers(0, tau_bar))
            fixed[(b, a)] = draw(st.integers(0, tau_bar))
        model = DelayModel(FIXED, tau_bar, fixed_delays=fixed)
    else:
        model = DelayModel.stochastic(tau_bar)

    rho = draw(st.floats(0.005, 0.2))
    seed = draw(st.integers(0, 2**32 - 1))
    return graph, problem, model, rho, seed


STOPPING_RULE_DEFECT = (
    "at a reseed the extremes restart from each node's current quotient, "
    "though shares still in flight carry older quotients outside them"
)


# About 1 in 125 of these instants breaks an invariant under today's rule
# (48 of 6,000 random draws), so 600 examples all pass with odds near 1%;
# this seed's first counterexample is about the 180th
@hypothesis.settings(
    DETERMINISTIC,
    max_examples=600,
    phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate],
    report_multiple_bugs=False,
)
@hypothesis.given(small_instants())
def small_instant_agrees_with_the_closed_form(instant):
    graph, problem, model, rho, seed = instant
    run_instant(graph, problem, model, rho, seed=seed)


@pytest.mark.xfail(strict=True, raises=InvariantError, reason=STOPPING_RULE_DEFECT)
def test_small_instant_agrees_with_the_closed_form():
    # called from a plain test, so that a counterexample ends the test as its
    # own exception: for a failing @given test item, Hypothesis's pytest
    # plugin also drafts a source patch, and where libcst is installed that
    # import warns, which aborts a -W error session
    small_instant_agrees_with_the_closed_form()


@pytest.mark.xfail(strict=True, raises=InvariantError, reason=STOPPING_RULE_DEFECT)
def test_stopping_rule_misses_quotients_in_flight_at_a_reseed():
    # demand at the ceiling, uniform delays: the run freezes at theta 2
    # after 10 steps with unit 1 16.46 rho spans from the closed form and
    # the total 3.45 rho total spans off
    windows = {1: (492.11950817731133, 866.4809802947459),
               2: (368.09794932262344, 1779.3073531457685)}
    problem = ApportionProblem(2645.788333440514, windows, frozenset({1, 2}))
    run_instant(path_graph(2), problem, DelayModel.stochastic(2), 0.005, seed=1826482775)


# The settings of the agreement property above. The limit leaves a tested
# [y, z] about 36 times as often as the commands leave their budgets, so the
# first counterexample comes within a few examples rather than about 180
@hypothesis.settings(
    DETERMINISTIC,
    max_examples=600,
    phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate],
    report_multiple_bugs=False,
)
@hypothesis.given(small_instants())
def small_instant_keeps_the_limit_inside_every_checkpoint(instant):
    graph, problem, model, rho, seed = instant
    states = init_states(problem).values()
    limit = ordered_sum(r for r, _ in states) / ordered_sum(s for _, s in states)
    tol = 1e-12 * max(1.0, abs(limit))
    result = run_instant(graph, problem, model, rho, seed=seed)
    for step, node, _, _, _, z, y, theta, _ in result.trace_rows:
        assert y - tol <= limit <= z + tol, (step, node, theta, y, limit, z)


# a checkpoint that loses the limit ends in AssertionError; a cycle whose
# commands also leave their budgets ends in run_cycle's InvariantError first
@pytest.mark.xfail(
    strict=True, raises=(AssertionError, InvariantError), reason=STOPPING_RULE_DEFECT
)
def test_small_instant_keeps_the_limit_inside_every_checkpoint():
    # called from a plain test for the reason given above
    small_instant_keeps_the_limit_inside_every_checkpoint()
