"""Fleet scenarios: renewable availability, capacity windows, dispatch loop.

A fleet mixes renewable units, whose capacity window is pinned to the power
their tracker currently extracts (so the network must absorb everything
they have), and dispatchable units with static windows. ``plan_instant``
turns the fleet at one dispatch instant into an apportioning problem on the
participants' subgraph, or says why the instant is infeasible;
``run_instant`` solves such a problem with one consensus-and-terminate
cycle. The day runner does both at every instant and pushes the resulting
commands through each unit's tracking model.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from .apportioning import ApportionProblem
from .errors import ConfigurationError
from .netsim import CycleResult, DelayModel, run_cycle
from .termination import CheckpointSchedule
from .topology import Graph, build_weights, diameter

RES = "res"
NON_RES = "non_res"

TRACK_INSTANT = "instant"
TRACK_LAG = "lag"


@dataclass(frozen=True)
class PowerProfile:
    """Piecewise-linear watts-versus-hours curve."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ConfigurationError("profile needs at least two points")
        if not all(math.isfinite(t) and math.isfinite(w) for t, w in self.points):
            raise ConfigurationError("profile points must be finite")
        hours = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(hours, hours[1:])):
            raise ConfigurationError("profile hours must strictly increase")
        if any(w < 0 for _, w in self.points):
            raise ConfigurationError("profile power must be non-negative")

    @classmethod
    def sunny_day(cls) -> "PowerProfile":
        """Ramp to 1 kW over three hours, hold two, ramp back down by hour eight."""
        return cls(((0.0, 0.0), (3.0, 1000.0), (5.0, 1000.0), (8.0, 0.0)))

    @property
    def start(self) -> float:
        return self.points[0][0]

    @property
    def end(self) -> float:
        return self.points[-1][0]

    def power_at(self, t_hours: float) -> float:
        if not self.start <= t_hours <= self.end:
            raise ConfigurationError(
                f"time {t_hours} h outside profile domain "
                f"[{self.start}, {self.end}] h"
            )
        for (t0, w0), (t1, w1) in zip(self.points, self.points[1:]):
            if t_hours <= t1:
                return w0 + (w1 - w0) * (t_hours - t0) / (t1 - t0)
        return self.points[-1][1]


@dataclass(frozen=True)
class LisUnit:
    """One local inverter system: either renewable or dispatchable."""

    uid: int
    kind: str
    pi_min: float | None = None
    pi_max: float | None = None
    profile: PowerProfile | None = None
    tracking: str = TRACK_INSTANT
    lag_seconds: float | None = None

    def __post_init__(self):
        if self.kind == NON_RES:
            if self.pi_min is None or self.pi_max is None:
                raise ConfigurationError(f"unit {self.uid}: static bounds required")
            if not 0 <= self.pi_min < self.pi_max < math.inf:
                raise ConfigurationError(
                    f"unit {self.uid}: bounds [{self.pi_min}, {self.pi_max}] invalid"
                )
        elif self.kind == RES:
            if self.profile is None:
                raise ConfigurationError(f"unit {self.uid}: renewable needs a profile")
        else:
            raise ConfigurationError(f"unit {self.uid}: unknown kind {self.kind!r}")
        if self.tracking == TRACK_LAG:
            if self.lag_seconds is None or not 0 < self.lag_seconds < math.inf:
                raise ConfigurationError(
                    f"unit {self.uid}: lag tracking needs a finite positive time constant"
                )
        elif self.tracking != TRACK_INSTANT:
            raise ConfigurationError(
                f"unit {self.uid}: unknown tracking mode {self.tracking!r}"
            )


def bounds_at(
    unit: LisUnit, t_hours: float, epsilon: float
) -> tuple[float, float] | None:
    """Capacity window at time t, or None when a renewable has nothing to offer.

    A renewable's floor sits epsilon below its currently available power, so
    any feasible apportionment must take essentially all of it. A unit whose
    available power is zero cannot hold a non-degenerate window and sits the
    cycle out.
    """
    if unit.kind == NON_RES:
        return (unit.pi_min, unit.pi_max)
    p = unit.profile.power_at(t_hours)
    if p <= 0.0:
        return None
    return (max(p - epsilon, 0.0), p)


def track(unit: LisUnit, command: float, dt_seconds: float, previous: float = 0.0) -> float:
    """Power actually delivered after ``dt_seconds`` of following ``command``."""
    if unit.tracking == TRACK_INSTANT:
        return command
    alpha = 1.0 - math.exp(-dt_seconds / unit.lag_seconds)
    return previous + (command - previous) * alpha


class Tracker:
    """Holds one unit's delivered output across dispatch intervals."""

    def __init__(self, unit: LisUnit, initial: float = 0.0):
        self.unit = unit
        self.output = initial

    def step(self, command: float, dt_seconds: float) -> float:
        self.output = track(self.unit, command, dt_seconds, self.output)
        return self.output


@dataclass(frozen=True)
class DispatchSchedule:
    """Demand shape and timing for a day of repeated dispatch cycles."""

    demand: float | PowerProfile
    consensus_period: float = 1.0
    dispatch_period: float = 60.0
    epsilon: float = 1.0

    def __post_init__(self):
        for name in ("consensus_period", "dispatch_period", "epsilon"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be finite and positive")
        if self.dispatch_period < self.consensus_period:
            raise ConfigurationError(
                "dispatch period must cover at least one consensus iteration"
            )
        if not isinstance(self.demand, PowerProfile) and not math.isfinite(self.demand):
            raise ConfigurationError("demand must be finite")

    def demand_at(self, t_hours: float) -> float:
        if isinstance(self.demand, PowerProfile):
            return self.demand.power_at(t_hours)
        return float(self.demand)

    @property
    def iteration_budget(self) -> int:
        return int(self.dispatch_period / self.consensus_period)


@dataclass
class DispatchRecord:
    """Everything decided and delivered at one dispatch instant."""

    index: int
    t_hours: float
    feasible: bool
    participants: tuple[int, ...]
    demand: float
    commands: dict[int, float]
    delivered: dict[int, float]
    total_command: float
    total_delivered: float
    theta: int | None
    iterations: int | None
    budget_exceeded: bool


@dataclass
class DayResult:
    """Full-day dispatch trace plus run-wide audit summaries."""

    records: list[DispatchRecord]
    infeasible_count: int
    budget_exceeded_count: int
    max_conservation_error: float
    trace_rows: list[dict]


@dataclass(frozen=True)
class InstantPlan:
    """A feasible dispatch instant: its apportioning problem and subgraph."""

    t_hours: float
    demand: float
    participants: tuple[int, ...]
    problem: ApportionProblem
    graph: Graph


@dataclass(frozen=True)
class Infeasible:
    """A dispatch instant no cycle can serve, with the collective range."""

    t_hours: float
    demand: float
    participants: tuple[int, ...]
    lo: float
    hi: float
    reason: str


def plan_instant(
    fleet: Sequence[LisUnit],
    graph: Graph,
    dispatch: DispatchSchedule,
    t_hours: float,
    circulation: Iterable[int] | None,
) -> InstantPlan | Infeasible:
    """The consensus instance for one dispatch instant, or why there is none.

    Participants are the units whose window is open at ``t_hours``. The
    instant is infeasible when nobody participates, when the demand lies
    outside the participants' collective range, or when the participants do
    not form a connected subgraph. Demand circulates at the requested nodes
    that participate, or at the lowest participant when none does.
    """
    window = {}
    for unit in sorted(fleet, key=lambda u: u.uid):
        b = bounds_at(unit, t_hours, dispatch.epsilon)
        if b is not None:
            window[unit.uid] = b
    participants = tuple(window)
    demand = dispatch.demand_at(t_hours)
    lo = sum(b[0] for b in window.values())
    hi = sum(b[1] for b in window.values())
    infeasible = partial(Infeasible, t_hours, demand, participants, lo, hi)
    if not participants:
        return infeasible("no unit offers capacity")
    if not lo <= demand <= hi:
        return infeasible(f"demand {demand:g} W outside [{lo:g}, {hi:g}] W")
    subgraph = graph.induced(participants)
    if not subgraph.is_connected():
        return infeasible(f"participants {list(participants)} are not connected")
    circulating = set(circulation or ()) & set(participants) or {participants[0]}
    problem = ApportionProblem(demand, window, frozenset(circulating))
    return InstantPlan(t_hours, demand, participants, problem, subgraph)


def run_instant(
    graph: Graph,
    problem: ApportionProblem,
    delay_model: DelayModel,
    rho: float,
    *,
    diameter_bound: int | None = None,
    seed: int = 0,
    record: str = "none",
) -> CycleResult:
    """One cycle on ``graph``: equal-split weights, schedule from the diameter.

    The diameter is raised to ``diameter_bound`` when one is configured.
    """
    d_bound = diameter(graph)
    if diameter_bound is not None:
        d_bound = max(d_bound, diameter_bound)
    schedule = CheckpointSchedule(max(1, d_bound), delay_model.tau_bar)
    weights = build_weights(graph)
    return run_cycle(
        graph, weights, problem, delay_model, schedule, rho, seed=seed, record=record
    )


def day_instants(
    fleet: Sequence[LisUnit],
    dispatch: DispatchSchedule,
    start_hours: float | None = None,
    end_hours: float | None = None,
) -> list[float]:
    """Dispatch instants of a day, both ends included.

    The day defaults to the span every renewable profile covers.
    """
    profiles = [u.profile for u in fleet if u.kind == RES]
    if start_hours is None:
        start_hours = max(p.start for p in profiles) if profiles else 0.0
    if end_hours is None:
        end_hours = min(p.end for p in profiles) if profiles else start_hours
    if not -math.inf < start_hours <= end_hours < math.inf:
        raise ConfigurationError("day must be finite and end at or after its start")
    step_hours = dispatch.dispatch_period / 3600.0
    count = int(round((end_hours - start_hours) / step_hours)) + 1
    return [start_hours + index * step_hours for index in range(count)]


def run_day(
    fleet: Sequence[LisUnit],
    graph: Graph,
    schedule: DispatchSchedule,
    delay_model: DelayModel,
    rho: float,
    *,
    demand_nodes: frozenset[int] | set[int] | None = None,
    seed: int = 0,
    start_hours: float | None = None,
    end_hours: float | None = None,
    diameter_bound: int | None = None,
    record: str = "none",
) -> DayResult:
    """Repeated dispatch over a day: plan, solve, and track at each instant.

    Infeasible instants are flagged and the previous commands held. A cycle
    that needs more iterations than the dispatch period covers still runs
    to termination and dispatches its result, but the overrun is flagged on
    the record; this happens when a renewable sits a cycle out and the
    shrunken graph both slows mixing and lengthens the checkpoint period.
    """
    units = {u.uid: u for u in fleet}
    if set(units) != set(graph.nodes):
        raise ConfigurationError("fleet ids must match the graph's nodes")
    rng = random.Random(seed)
    trackers = {uid: Tracker(unit) for uid, unit in units.items()}
    records: list[DispatchRecord] = []
    trace_rows: list[dict] = []
    prev_commands = {uid: 0.0 for uid in units}
    worst_leak = 0.0
    for index, t in enumerate(day_instants(fleet, schedule, start_hours, end_hours)):
        cycle_seed = rng.randrange(2**32)
        plan = plan_instant(fleet, graph, schedule, t, demand_nodes)
        result: CycleResult | None = None
        if isinstance(plan, InstantPlan):
            result = run_instant(
                plan.graph,
                plan.problem,
                delay_model,
                rho,
                diameter_bound=diameter_bound,
                seed=cycle_seed,
                record=record,
            )
            commands = {uid: 0.0 for uid in units} | result.commands.commands
            worst_leak = max(worst_leak, result.max_conservation_error)
            trace_rows.extend({**row, "cycle": index} for row in result.trace_rows)
        else:
            commands = dict(prev_commands)
        overrun = result is not None and result.steps > schedule.iteration_budget
        delivered = {
            uid: trackers[uid].step(commands[uid], schedule.dispatch_period)
            for uid in sorted(units)
        }
        records.append(
            DispatchRecord(
                index=index,
                t_hours=t,
                feasible=result is not None,
                participants=plan.participants,
                demand=plan.demand,
                commands=commands,
                delivered=delivered,
                total_command=sum(commands.values()),
                total_delivered=sum(delivered.values()),
                theta=result.theta if result else None,
                iterations=result.steps if result else None,
                budget_exceeded=overrun,
            )
        )
        prev_commands = commands
    return DayResult(
        records=records,
        infeasible_count=sum(not rec.feasible for rec in records),
        budget_exceeded_count=sum(rec.budget_exceeded for rec in records),
        max_conservation_error=worst_leak,
        trace_rows=trace_rows,
    )


def six_lis_fleet() -> list[LisUnit]:
    """The canonical six-unit validation fleet: unit 2 renewable, rest static."""
    return [
        LisUnit(uid=1, kind=NON_RES, pi_min=0.0, pi_max=1500.0),
        LisUnit(uid=2, kind=RES, profile=PowerProfile.sunny_day()),
        LisUnit(uid=3, kind=NON_RES, pi_min=0.0, pi_max=1000.0),
        LisUnit(uid=4, kind=NON_RES, pi_min=0.0, pi_max=1200.0),
        LisUnit(uid=5, kind=NON_RES, pi_min=0.0, pi_max=1500.0),
        LisUnit(uid=6, kind=NON_RES, pi_min=0.0, pi_max=2000.0),
    ]
