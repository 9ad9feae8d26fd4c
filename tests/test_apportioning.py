import math
import random

import pytest

from lisnet.apportioning import (
    ApportionProblem,
    closed_form_oracle,
    init_states,
    ordered_sum,
    reference_command,
)
from lisnet.errors import FeasibilityError, InvariantError

TABLE_BOUNDS = {
    1: (0.0, 1500.0),
    2: (999.0, 1000.0),  # renewable pinned at 1 kW with a 1 W floor offset
    3: (0.0, 1000.0),
    4: (0.0, 1200.0),
    5: (0.0, 1500.0),
    6: (0.0, 2000.0),
}


class TestProblemValidation:
    def test_accepts_feasible(self):
        p = ApportionProblem(7000.0, TABLE_BOUNDS, frozenset({2}))
        assert p.p == 1
        assert p.total_min == 999.0
        assert p.total_max == 8200.0

    def test_rejects_demand_above_capacity(self):
        with pytest.raises(FeasibilityError):
            ApportionProblem(9000.0, TABLE_BOUNDS, frozenset({2}))

    def test_rejects_demand_below_floor(self):
        with pytest.raises(FeasibilityError):
            ApportionProblem(500.0, TABLE_BOUNDS, frozenset({2}))

    def test_rejects_zero_width_window(self):
        with pytest.raises(FeasibilityError):
            ApportionProblem(50.0, {1: (0.0, 100.0), 2: (30.0, 30.0)}, frozenset({1}))

    def test_rejects_unknown_circulation_node(self):
        with pytest.raises(FeasibilityError):
            ApportionProblem(50.0, {1: (0.0, 100.0)}, frozenset({9}))

    def test_rejects_empty_circulation(self):
        with pytest.raises(FeasibilityError):
            ApportionProblem(50.0, {1: (0.0, 100.0)}, frozenset())

    def test_rejects_a_problem_without_nodes(self):
        with pytest.raises(FeasibilityError, match="no participating nodes"):
            ApportionProblem(0.0, {}, frozenset({1}))

    @pytest.mark.parametrize("demand", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_demand(self, demand):
        with pytest.raises(FeasibilityError, match="demand must be finite"):
            ApportionProblem(demand, {1: (0.0, 100.0)}, frozenset({1}))

    @pytest.mark.parametrize(
        "window", [(-math.inf, 100.0), (0.0, math.inf), (math.nan, 100.0), (0.0, math.nan)]
    )
    def test_rejects_non_finite_bounds(self, window):
        with pytest.raises(FeasibilityError, match="node 2: bounds must be finite"):
            ApportionProblem(50.0, {1: (0.0, 100.0), 2: window}, frozenset({1}))

    def test_rejects_a_collective_span_lost_to_rounding(self):
        # each window is one ulp wide, yet the summed floors and ceilings round
        # to one value, so the closed form's fraction would be 0 / 0
        bounds = {
            1: (235.44577058503512, 235.44577058503515),
            2: (2724.2140097339084, 2724.214009733909),
            3: (6516.822180366255, 6516.822180366256),
        }
        with pytest.raises(FeasibilityError, match="the windows sum to no span at 9476.48 W"):
            ApportionProblem(9476.4819606852, bounds, frozenset({1}))

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ({1: (0.0, 1e308), 2: (0.0, 1e308)}, r"\[0, inf\]"),
            ({1: (-1e308, 0.0), 2: (-1e308, 0.0)}, r"\[-inf, 0\]"),
            ({1: (-1e308, 0.0), 2: (0.0, 1e308)}, r"\[-1e\+308, 1e\+308\]"),
        ],
        ids=["ceilings", "floors", "span"],
    )
    def test_rejects_windows_whose_sums_overflow(self, bounds, message):
        # each window is finite, but the summed ceilings, the summed floors or
        # the span between them overflow, and the fraction would be 0 or nan
        with pytest.raises(FeasibilityError, match=f"sum to no finite span: {message}"):
            ApportionProblem(-1.0, bounds, frozenset({1}))


class TestInitStates:
    def test_single_circulation_node(self):
        p = ApportionProblem(7000.0, TABLE_BOUNDS, frozenset({2}))
        states = init_states(p)
        assert states[2] == (pytest.approx(7000.0 - 999.0), pytest.approx(1.0))
        for i in (1, 3, 4, 5, 6):
            assert states[i] == (0.0, TABLE_BOUNDS[i][1])

    def test_zero_demand_zero_floors(self):
        bounds = {i: (0.0, 100.0 * i) for i in (1, 2, 3)}
        p = ApportionProblem(0.0, bounds, frozenset({1}))
        states = init_states(p)
        assert all(r == 0.0 for r, _ in states.values())
        oracle = closed_form_oracle(p)
        assert all(oracle[i] == 0.0 for i in bounds)

    def test_demand_split_across_circulation_set(self):
        bounds = {1: (0.0, 10.0), 2: (0.0, 10.0), 3: (0.0, 10.0)}
        p = ApportionProblem(12.0, bounds, frozenset({1, 3}))
        states = init_states(p)
        assert states[1][0] == pytest.approx(6.0)
        assert states[3][0] == pytest.approx(6.0)
        assert states[2][0] == 0.0
        assert sum(r for r, _ in states.values()) == pytest.approx(12.0)


def test_ordered_sum_adds_left_to_right():
    # sum() gives 1.0 here from Python 3.12 on, where it compensates
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum(x for x in (0.1, 0.2, 0.3)) == (0.1 + 0.2) + 0.3


class TestReferenceCommand:
    def test_endpoints(self):
        p = ApportionProblem(7000.0, TABLE_BOUNDS, frozenset({2}))
        assert reference_command(p, 0.0, 1.0, 6) == 0.0
        assert reference_command(p, 1.0, 1.0, 6) == 2000.0

    def test_clamps_overshoot(self):
        p = ApportionProblem(7000.0, TABLE_BOUNDS, frozenset({2}))
        assert reference_command(p, 1.2, 1.0, 6) == 2000.0
        assert reference_command(p, -0.3, 1.0, 6) == 0.0

    def test_three_node_example(self):
        bounds = {1: (0.0, 1000.0), 2: (0.0, 2000.0), 3: (0.0, 3000.0)}
        p = ApportionProblem(3000.0, bounds, frozenset({1}))
        q = 0.5  # 3000 / 6000
        assert reference_command(p, q, 1.0, 1) == pytest.approx(500.0)
        assert reference_command(p, q, 1.0, 2) == pytest.approx(1000.0)
        assert reference_command(p, q, 1.0, 3) == pytest.approx(1500.0)

    def test_zero_frozen_denominator_faults(self):
        p = ApportionProblem(10.0, {1: (0.0, 20.0)}, frozenset({1}))
        with pytest.raises(InvariantError):
            reference_command(p, 1.0, 0.0, 1)


class TestClosedFormOracle:
    def test_table_fleet_with_renewable_at_peak(self):
        p = ApportionProblem(7000.0, TABLE_BOUNDS, frozenset({2}))
        oracle = closed_form_oracle(p)
        # independent computation of the same split
        q = (7000.0 - 999.0) / (8200.0 - 999.0)
        for i, (lo, hi) in TABLE_BOUNDS.items():
            assert oracle[i] == pytest.approx(lo + q * (hi - lo), abs=1e-12)
        assert oracle.total == pytest.approx(7000.0, abs=1e-9)
        # non-renewables share about 6 kW in proportion to capacity
        assert oracle[1] == pytest.approx(1250.0, abs=0.2)
        assert oracle[3] == pytest.approx(833.3, abs=0.2)
        assert oracle[4] == pytest.approx(1000.0, abs=0.2)
        assert oracle[5] == pytest.approx(1250.0, abs=0.2)
        assert oracle[6] == pytest.approx(1666.7, abs=0.2)

    def test_upper_boundary(self):
        bounds = {1: (10.0, 50.0), 2: (0.0, 30.0)}
        p = ApportionProblem(80.0, bounds, frozenset({1}))
        oracle = closed_form_oracle(p)
        assert oracle[1] == 50.0
        assert oracle[2] == 30.0

    def test_lower_boundary(self):
        bounds = {1: (10.0, 50.0), 2: (5.0, 30.0)}
        p = ApportionProblem(15.0, bounds, frozenset({2}))
        oracle = closed_form_oracle(p)
        assert oracle[1] == 10.0
        assert oracle[2] == 5.0

    def test_independent_of_circulation_choice(self):
        rng = random.Random(5)
        bounds = {i: (rng.uniform(0, 50), rng.uniform(60, 200)) for i in range(1, 6)}
        lo = sum(b[0] for b in bounds.values())
        hi = sum(b[1] for b in bounds.values())
        demand = 0.6 * lo + 0.4 * hi
        base = closed_form_oracle(ApportionProblem(demand, bounds, frozenset({1})))
        for pick in [{2}, {4}, {1, 5}, set(bounds)]:
            other = closed_form_oracle(ApportionProblem(demand, bounds, frozenset(pick)))
            assert all(other[i] == pytest.approx(base[i]) for i in bounds)
