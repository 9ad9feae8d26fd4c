import gc
import math
from dataclasses import replace

import pytest

from lisnet.apportioning import closed_form_oracle, ApportionProblem
from lisnet.cli import default_config
from lisnet.errors import ConfigurationError
from lisnet.netsim import DelayModel
from lisnet.scenario import (
    Infeasible,
    LisUnit,
    PowerProfile,
    Scenario,
    bounds_at,
    day_instants,
    plan_instant,
    run_day,
    run_instant,
    solve_instant,
    track,
)
from lisnet.topology import Graph
from reference import cyclic_garbage


def sunny_day() -> PowerProfile:
    """The built-in day's renewable profile, unit 2's."""
    return default_config().fleet[1].profile


def res_unit(uid=2):
    return LisUnit(uid=uid, kind="res", profile=sunny_day())


class TestPowerProfile:
    def test_sunny_day_shape(self):
        p = sunny_day()
        assert p.power_at(0.0) == 0.0
        assert p.power_at(1.5) == pytest.approx(500.0)
        assert p.power_at(3.0) == 1000.0
        assert p.power_at(4.0) == 1000.0
        assert p.power_at(6.5) == pytest.approx(500.0)
        assert p.power_at(8.0) == 0.0

    def test_outside_domain_rejected(self):
        with pytest.raises(ConfigurationError):
            sunny_day().power_at(9.0)

    def test_must_increase(self):
        with pytest.raises(ConfigurationError):
            PowerProfile(((0.0, 1.0), (0.0, 2.0)))

    def test_a_one_point_profile_is_rejected(self):
        with pytest.raises(ConfigurationError, match="profile needs at least two points"):
            PowerProfile(((4.0, 100.0),))

    def test_every_point_reads_its_own_power(self):
        # the first and the last hour included: every hour has a segment
        p = PowerProfile(((1.0, 10.0), (2.0, 30.0), (4.0, 20.0)))
        assert [p.power_at(t) for t, _ in p.points] == [10.0, 30.0, 20.0]


class TestBoundsAt:
    def test_res_at_plateau(self):
        assert bounds_at(res_unit(), 4.0, epsilon=1.0) == (999.0, 1000.0)

    def test_res_mid_ramp(self):
        assert bounds_at(res_unit(), 1.5, epsilon=1.0) == (499.0, 500.0)

    def test_res_with_nothing_available_sits_out(self):
        assert bounds_at(res_unit(), 0.0, epsilon=1.0) is None
        assert bounds_at(res_unit(), 8.0, epsilon=1.0) is None

    def test_res_floor_clamped_at_zero(self):
        unit = res_unit()
        lo, hi = bounds_at(unit, 0.0015, epsilon=1.0)  # tiny ramp power
        assert hi == pytest.approx(0.5)
        assert lo == 0.0

    def test_non_res_static(self):
        unit = LisUnit(uid=6, kind="non_res", pi_min=0.0, pi_max=2000.0)
        assert bounds_at(unit, 0.0, epsilon=1.0) == (0.0, 2000.0)
        assert bounds_at(unit, 7.3, epsilon=1.0) == (0.0, 2000.0)


class TestTrack:
    def test_instant(self):
        unit = LisUnit(uid=1, kind="non_res", pi_min=0.0, pi_max=2000.0)
        assert track(unit, 1200.0, dt_seconds=60.0) == 1200.0

    def test_first_order_step(self):
        unit = LisUnit(
            uid=1, kind="non_res", pi_min=0.0, pi_max=2000.0,
            tracking="lag", lag_seconds=10.0,
        )
        out = track(unit, 1000.0, dt_seconds=10.0, previous=0.0)
        assert out == pytest.approx(1000.0 * (1 - math.exp(-1)), abs=0.01)

    def test_tracker_accumulates(self):
        unit = LisUnit(
            uid=1, kind="non_res", pi_min=0.0, pi_max=2000.0,
            tracking="lag", lag_seconds=10.0,
        )
        output = 0.0
        for _ in range(20):
            output = track(unit, 1000.0, dt_seconds=10.0, previous=output)
        assert output == pytest.approx(1000.0, rel=1e-6)

    def test_floor_command_passes_through(self):
        unit = LisUnit(uid=1, kind="non_res", pi_min=100.0, pi_max=2000.0)
        assert track(unit, 100.0, dt_seconds=60.0) == 100.0


class TestUnitValidation:
    def test_non_res_needs_bounds(self):
        with pytest.raises(ConfigurationError):
            LisUnit(uid=1, kind="non_res")

    def test_res_needs_profile(self):
        with pytest.raises(ConfigurationError):
            LisUnit(uid=1, kind="res")

    def test_lag_needs_time_constant(self):
        with pytest.raises(ConfigurationError):
            LisUnit(uid=1, kind="non_res", pi_min=0.0, pi_max=1.0, tracking="lag")


class TestScenarioDispatch:
    def test_demand_profiles(self):
        config = default_config()
        assert plan_instant(config, 3.3).demand == 7000.0
        shaped = replace(config, demand=PowerProfile(((0.0, 5000.0), (8.0, 9000.0))))
        assert plan_instant(shaped, 4.0).demand == pytest.approx(7000.0)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ConfigurationError, match="epsilon must be finite and positive"):
            replace(default_config(), epsilon=0.0)

    def test_dispatch_period_covers_a_consensus_iteration(self):
        # tau_bar 0 and no diameter bound: the first checkpoint is at step 1
        fits = replace(
            default_config(), consensus_period=2.0, dispatch_period=2.0,
            delay=DelayModel.stochastic(0), diameter_bound=None,
        )
        with pytest.raises(ConfigurationError, match="at least one consensus iteration"):
            replace(fits, dispatch_period=1.5)

    @pytest.mark.parametrize(
        "changes, step, budget",
        [
            ({"diameter_bound": 10**9}, 4000000003, 60.0),
            ({"delay": DelayModel.stochastic(40)}, 163, 60.0),
            ({"dispatch_period": 14.0}, 15, 14.0),
            ({"diameter_bound": None, "dispatch_period": 6.0}, 7, 6.0),
        ],
        ids=["diameter-1e9", "tau-bar-40", "bound-3", "no-bound"],
    )
    def test_a_first_checkpoint_past_the_budget_is_rejected(self, changes, step, budget):
        # the first checkpoint is at max(1, D) * (1 + tau_bar) + tau_bar steps
        with pytest.raises(
            ConfigurationError,
            match=rf"^the first checkpoint, at step {step}, lies past the dispatch "
            rf"budget of {budget} steps$",
        ):
            replace(default_config(), **changes)

    @pytest.mark.parametrize(
        "changes",
        [{"dispatch_period": 15.0}, {"diameter_bound": None, "dispatch_period": 7.0}],
        ids=["bound-3", "no-bound"],
    )
    def test_a_first_checkpoint_at_the_budget_loads(self, changes):
        scenario = replace(default_config(), **changes)
        assert scenario.dispatch_period == changes["dispatch_period"]

    def test_a_cycle_of_exactly_the_budget_is_not_an_overrun(self):
        # the seed-0 default day: a 60 s dispatch period covers 60 steps of
        # 1 s, so a theta-4 cycle of 60 steps fits and one of 76 overruns
        day = run_day(default_config())
        fits = [rec for rec in day.records if rec.iterations == 60]
        over = [rec for rec in day.records if rec.budget_exceeded]
        assert len(fits) == 28 and {rec.theta for rec in fits} == {4}
        assert not any(rec.budget_exceeded for rec in fits)
        assert [rec.iterations for rec in over] == [76, 76]
        assert day.budget_exceeded_count == 2


class TestPlanInstant:
    def test_a_fleet_without_capacity_is_infeasible(self):
        # two renewables: nothing to offer at hour 0, 2 kW at the plateau
        fleet = (res_unit(1), res_unit(2))
        scenario = Scenario(
            fleet=fleet, graph=Graph.from_edges([1, 2], [(1, 2)]),
            demand=1999.0, consensus_period=1.0, dispatch_period=60.0, epsilon=1.0,
            delay=DelayModel.stochastic(3),
            rho=0.02, seed=0, circulation=frozenset({1}), diameter_bound=None,
            start_hours=None, end_hours=None,
        )
        assert plan_instant(scenario, 0.0) == Infeasible(0.0, 1999.0, (), "no unit offers capacity")
        assert not isinstance(plan_instant(scenario, 4.0), Infeasible)

    def test_windows_that_sum_to_no_span_are_infeasible(self):
        # each window is one ulp wide, yet the summed floors and ceilings
        # round to one value, so the closed form's fraction would be 0 / 0
        windows = [
            (235.44577058503512, 235.44577058503515),
            (2724.2140097339084, 2724.214009733909),
            (6516.822180366255, 6516.822180366256),
        ]
        fleet = tuple(
            LisUnit(uid=i, kind="non_res", pi_min=lo, pi_max=hi)
            for i, (lo, hi) in enumerate(windows, start=1)
        )
        scenario = Scenario(
            fleet=fleet, graph=Graph.cycle(3),
            demand=9476.4819606852, consensus_period=1.0, dispatch_period=60.0,
            epsilon=1.0, delay=DelayModel.stochastic(3),
            rho=0.02, seed=0, circulation=frozenset({1}), diameter_bound=None,
            start_hours=None, end_hours=None,
        )
        plan = plan_instant(scenario, 0.0)
        assert plan == Infeasible(
            0.0, 9476.4819606852, (1, 2, 3), "the windows sum to no span at 9476.48 W"
        )


class TestRunInstant:
    @pytest.mark.parametrize(
        "bound, theta, steps", [(None, 3, 45), (3, 3, 45), (6, 2, 54)]
    )
    def test_a_diameter_bound_above_the_graph_lengthens_the_checkpoint(
        self, bound, theta, steps
    ):
        # the full fleet's 6-cycle has diameter 3: L = D(1 + 3) + 3 is 15,
        # or 27 under a bound of 6
        config = default_config()
        t, seed = day_instants(config)[240]
        plan = plan_instant(config, t)
        result = run_instant(
            plan.graph, plan.problem, config.delay, config.rho, diameter_bound=bound, seed=seed,
        )
        assert (result.theta, result.steps) == (theta, steps)


class TestRunDay:
    def _short_day(self, record_steps=False, **kwargs):
        fields = dict(
            fleet=default_config().fleet,
            graph=Graph.cycle(6),
            demand=7000.0,
            consensus_period=1.0,
            dispatch_period=600.0,
            epsilon=1.0,
            delay=DelayModel.stochastic(3),
            rho=0.02,
            seed=0,
            circulation=frozenset({2}),
            diameter_bound=3,
            start_hours=None,
            end_hours=None,
        )
        fields.update(kwargs)
        return run_day(Scenario(**fields), record_steps=record_steps)

    def test_a_day_leaves_the_collector_as_it_found_it(self, collector_was):
        self._short_day()
        assert gc.isenabled() is collector_was

    @pytest.mark.parametrize("record_steps", [False, True], ids=["plain", "verbose"])
    def test_a_day_leaves_no_cyclic_garbage(self, record_steps):
        assert cyclic_garbage(lambda: self._short_day(record_steps)) == 0

    def test_demand_met_at_every_instant(self):
        day = self._short_day()
        assert len(day.records) == 49  # 8 h at 10 min spacing, both ends
        assert day.infeasible_count == 0
        for rec in day.records:
            assert abs(rec.total_delivered - 7000.0) <= 150.0

    def test_renewable_priority_band(self):
        day = self._short_day()
        profile = sunny_day()
        for rec in day.records:
            available = profile.power_at(rec.t_hours)
            if 2 in rec.participants:
                assert available - 1.0 <= rec.commands[2] <= available + 1e-9
            else:
                assert rec.commands[2] == 0.0

    def test_non_res_share_proportional_to_capacity(self):
        day = self._short_day()
        caps = {1: 1500.0, 3: 1000.0, 4: 1200.0, 5: 1500.0, 6: 2000.0}
        for rec in day.records:
            if len(rec.participants) < 6:
                continue
            quotients = [rec.commands[i] / caps[i] for i in caps]
            assert max(quotients) - min(quotients) <= 2 * 0.02

    def test_more_renewable_weakly_lowers_dispatchables(self):
        # oracle view across the morning ramp: the non-renewable share of a
        # fixed demand never increases as the renewable offer grows
        last = None
        for hours in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            bounds = {
                uid: bounds_at(unit, hours, epsilon=1.0)
                for uid, unit in ((u.uid, u) for u in default_config().fleet)
            }
            oracle = closed_form_oracle(
                ApportionProblem(7000.0, bounds, frozenset({2}))
            )
            non_res_total = oracle.total - oracle[2]
            if last is not None:
                assert non_res_total <= last + 1e-9
            last = non_res_total

    def test_degraded_graph_cycle_flagged_but_dispatched(self):
        day = self._short_day()
        first = day.records[0]  # renewable has zero to offer at hour 0
        assert first.participants == (1, 3, 4, 5, 6)
        assert first.feasible
        assert abs(first.total_delivered - 7000.0) <= 150.0
        # a five-node path both mixes slower and stretches the checkpoint
        # period, so this cycle cannot fit a 60 s dispatch slot
        tight = self._short_day(dispatch_period=60.0)
        assert tight.records[0].budget_exceeded
        assert tight.budget_exceeded_count == 2  # both zero-output endpoints
        assert abs(tight.records[0].total_delivered - 7000.0) <= 150.0

    def test_infeasible_instant_holds_previous_command(self):
        ramp = PowerProfile(((0.0, 7000.0), (4.0, 9000.0), (8.0, 7000.0)))
        day = self._short_day(demand=ramp, dispatch_period=1800.0)
        assert day.infeasible_count > 0
        held = None
        for rec in day.records:
            if not rec.feasible:
                assert rec.commands == held
            held = rec.commands
        # a held command lies far from the demand the fleet could not meet,
        # and the day's worst deviation leaves it out
        deviation = [abs(rec.total_delivered - rec.demand) for rec in day.records]
        feasible = [d for d, rec in zip(deviation, day.records) if rec.feasible]
        assert day.max_total_deviation == max(feasible) < max(deviation)

    def test_demand_circulation_falls_back_to_lowest_participant(self):
        # at hour 0 of the built-in day unit 2, its circulation node, sits out
        config = default_config()
        t, seed = day_instants(config)[0]
        plan, result = solve_instant(config, t, seed)
        assert plan.participants == (1, 3, 4, 5, 6)
        assert plan.problem.demand_set == {1}
        lowest = ApportionProblem(plan.demand, plan.problem.bounds, frozenset({1}))
        again = run_instant(
            plan.graph, lowest, config.delay, config.rho,
            diameter_bound=config.diameter_bound, seed=seed,
        )
        assert again.commands.commands == result.commands.commands
        assert (again.theta, again.steps) == (result.theta, result.steps) == (4, 76)
        assert result.commands.total == 7001.241940516251

    def test_lag_tracking_converges_within_day(self):
        fleet = tuple(
            LisUnit(uid=u.uid, kind=u.kind, pi_min=u.pi_min, pi_max=u.pi_max,
                    profile=u.profile, tracking="lag", lag_seconds=5.0)
            for u in default_config().fleet
        )
        day = self._short_day(fleet=fleet)
        # 600 s interval with a 5 s time constant: output reaches the command
        for rec in day.records[1:]:
            assert abs(rec.total_delivered - rec.total_command) <= 1.0

    def test_verbose_day_keeps_its_trace_as_written_bytes(self):
        # one joined bytes per feasible instant: a CSV line of about 138 B
        # kept as its own object costs 33 B more
        day = self._short_day(
            dispatch_period=60.0,
            start_hours=4.0,
            end_hours=4.05,
            record_steps=True,
        )
        feasible = [rec for rec in day.records if rec.feasible]
        assert len(day.records) == len(feasible) == len(day.trace_chunks) == 4
        for rec, chunk in zip(feasible, day.trace_chunks):
            assert type(chunk) is bytes and chunk.endswith(b"\n")
            # one row per participant per step, the starting state included
            assert chunk.count(b"\n") == (rec.iterations + 1) * len(rec.participants)
            assert all(line.startswith(b"%d," % rec.index) for line in chunk.splitlines())

    def test_fleet_graph_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            self._short_day(graph=Graph.cycle(5))
