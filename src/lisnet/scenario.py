"""Fleet scenarios: renewable availability, capacity windows, dispatch loop.

A fleet mixes renewable units, whose capacity window is pinned to the power
their tracker currently extracts (so the network must absorb everything
they have), and dispatchable units with static windows. A ``Scenario`` holds
the fleet, its graph and everything else one run needs. ``day_instants``
yields the day's dispatch instants, each with its cycle seed.
``plan_instant`` turns a scenario at one dispatch instant into an
apportioning problem on the participants' subgraph, or says why the instant
is infeasible; ``run_instant`` solves such a problem with one
consensus-and-terminate cycle, and ``solve_instant`` does both. The day
runner solves every instant and pushes the resulting commands through each
unit's tracking model.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Mapping

from .apportioning import ApportionProblem, ordered_sum
from .errors import ConfigurationError, FeasibilityError
from .netsim import CycleResult, DelayModel, run_cycle
from .termination import CheckpointSchedule
from .topology import Graph, build_weights, diameter

RES = "res"
NON_RES = "non_res"

TRACK_INSTANT = "instant"
TRACK_LAG = "lag"

TRACE_COLUMNS = (
    "cycle",
    "step",
    "node",
    "r",
    "s",
    "ratio",
    "z",
    "y",
    "theta",
    "frozen",
    "pi_star",
    "delivered_power",
)
TRACE_HEADER = "# lisnet-trace v1 columns=" + ",".join(TRACE_COLUMNS)
# "%.17g" prints a float with the 17 significant digits that round-trip it
_FROZEN_LINE = b"%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d,true,%.17g,%.17g\n"
_UNTRACKED_LINE = b"%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d,true,%.17g,\n"
_LIVE_LINE = b"%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d,false,,\n"


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
        # t_hours <= end, so the last segment breaks the loop at the latest
        for (t0, w0), (t1, w1) in zip(self.points, self.points[1:]):
            if t_hours <= t1:
                break
        return w0 + (w1 - w0) * (t_hours - t0) / (t1 - t0)


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
        # a field the unit's kind or tracking never reads is an error, not ignored
        if self.kind == NON_RES:
            if self.pi_min is None or self.pi_max is None:
                raise ConfigurationError(f"unit {self.uid}: static bounds required")
            if not 0 <= self.pi_min < self.pi_max < math.inf:
                raise ConfigurationError(
                    f"unit {self.uid}: bounds [{self.pi_min}, {self.pi_max}] invalid"
                )
            if self.profile is not None:
                raise ConfigurationError(f"unit {self.uid}: a non_res unit takes no profile")
        elif self.kind == RES:
            if self.profile is None:
                raise ConfigurationError(f"unit {self.uid}: renewable needs a profile")
            if self.pi_min is not None or self.pi_max is not None:
                raise ConfigurationError(
                    f"unit {self.uid}: a res unit takes no pi_min or pi_max; "
                    "its window follows its profile"
                )
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
        elif self.lag_seconds is not None:
            raise ConfigurationError(f"unit {self.uid}: lag_seconds needs tracking: lag")


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


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs: the fleet on its graph, the day, the cycle settings.

    Every check that ties two fields together is made here, so a value built
    with ``dataclasses.replace`` is held to the same rules as one read from a
    document. Units iterate once per ``consensus_period`` and take a command
    once per ``dispatch_period``, in seconds. ``start_hours`` and
    ``end_hours`` left as None take the span every renewable profile
    covers, and the day must lie inside each of them and a demand shape.
    """

    fleet: tuple[LisUnit, ...]
    graph: Graph
    demand: float | PowerProfile
    consensus_period: float
    dispatch_period: float
    epsilon: float
    delay: DelayModel
    rho: float
    seed: int
    circulation: frozenset[int]
    diameter_bound: int | None
    start_hours: float | None
    end_hours: float | None

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
        if not 0 < self.rho < math.inf:
            raise ConfigurationError("rho must be finite and positive")
        if self.diameter_bound is not None and self.diameter_bound < 1:
            raise ConfigurationError(f"diameter must be at least 1, got {self.diameter_bound}")
        if sorted(u.uid for u in self.fleet) != sorted(self.graph.nodes):
            raise ConfigurationError("fleet ids must match graph nodes exactly")
        if not self.circulation:
            raise ConfigurationError("demand circulation must name at least one node")
        missing = self.circulation - set(self.graph.nodes)
        if missing:
            raise ConfigurationError(
                f"demand circulation nodes {sorted(missing)} are not in the graph"
            )
        start, end = self.day
        if not -math.inf < start <= end < math.inf:
            raise ConfigurationError("day must be finite and end at or after its start")
        profiles = [(f"unit {u.uid}'s profile", u.profile) for u in self.fleet if u.kind == RES]
        if isinstance(self.demand, PowerProfile):
            profiles.append(("the demand shape", self.demand))
        for what, p in profiles:
            if not p.start <= start <= end <= p.end:
                raise ConfigurationError(
                    f"day [{start}, {end}] h lies outside {what} [{p.start}, {p.end}] h"
                )
        step_hours = self.dispatch_period / 3600.0  # as day_instants steps the day
        if not step_hours > 0.0 or math.isinf((end - start) / step_hours):
            raise ConfigurationError(
                f"day [{start}, {end}] h cannot be counted in dispatch periods of "
                f"{self.dispatch_period!r} s"
            )
        # every cycle runs at least to its first checkpoint, and its schedule's
        # diameter is at least D, so no cycle of such a scenario fits its budget
        first_checkpoint = CheckpointSchedule(
            self.diameter_bound or 1, self.delay.tau_bar
        ).checkpoint_len
        budget = self.dispatch_period / self.consensus_period
        if first_checkpoint > budget:
            raise ConfigurationError(
                f"the first checkpoint, at step {first_checkpoint}, lies past the "
                f"dispatch budget of {budget!r} steps"
            )

    @property
    def day(self) -> tuple[float, float]:
        """The first and last hour of the day, with the profiles' span as default."""
        profiles = [u.profile for u in self.fleet if u.kind == RES]
        start = self.start_hours
        if start is None:
            start = max(p.start for p in profiles) if profiles else 0.0
        end = self.end_hours
        if end is None:
            end = min(p.end for p in profiles) if profiles else start
        return start, end


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
    """Full-day dispatch trace plus run-wide audit summaries.

    ``max_total_deviation`` is the largest |delivered - demand| over feasible
    instants, or None. ``trace_chunks`` hold each feasible instant's
    ``instant_rows``, in order, ready to write.
    """

    records: list[DispatchRecord]
    infeasible_count: int
    budget_exceeded_count: int
    max_total_deviation: float | None
    max_conservation_error: float
    trace_chunks: list[bytes]


@dataclass(frozen=True)
class InstantPlan:
    """A feasible dispatch instant: its apportioning problem and subgraph."""

    demand: float
    participants: tuple[int, ...]
    problem: ApportionProblem
    graph: Graph


@dataclass(frozen=True)
class Infeasible:
    """A dispatch instant no cycle can serve, and why."""

    t_hours: float
    demand: float
    participants: tuple[int, ...]
    reason: str


def plan_instant(scenario: Scenario, t_hours: float) -> InstantPlan | Infeasible:
    """The consensus instance for one dispatch instant, or why there is none.

    Participants are the units whose window is open at ``t_hours``. The
    instant is infeasible when nobody participates, when their windows make
    no ``ApportionProblem`` (whose ``FeasibilityError`` is the reason), or
    when they do not form a connected subgraph. Demand circulates at the
    requested nodes that participate, or at the lowest participant if none.
    """
    window = {
        unit.uid: b for unit in sorted(scenario.fleet, key=lambda u: u.uid)
        if (b := bounds_at(unit, t_hours, scenario.epsilon)) is not None
    }
    participants = tuple(window)
    demand = scenario.demand
    demand = demand.power_at(t_hours) if isinstance(demand, PowerProfile) else float(demand)
    infeasible = partial(Infeasible, t_hours, demand, participants)
    if not participants:
        return infeasible("no unit offers capacity")
    circulating = scenario.circulation.intersection(participants) or frozenset(participants[:1])
    try:
        problem = ApportionProblem(demand, window, circulating)
    except FeasibilityError as exc:
        return infeasible(str(exc))
    subgraph = scenario.graph.induced(participants)
    if not subgraph.is_connected():
        return infeasible(f"participants {list(participants)} are not connected")
    return InstantPlan(demand, participants, problem, subgraph)


def run_instant(
    graph: Graph,
    problem: ApportionProblem,
    delay_model: DelayModel,
    rho: float,
    *,
    diameter_bound: int | None = None,
    seed: int = 0,
    record_steps: bool = False,
) -> CycleResult:
    """One cycle on ``graph``: equal-split weights, schedule from the diameter.

    ``diameter_bound`` is the known bound D; the schedule uses the larger
    of D and the graph's own diameter.
    """
    d_bound = diameter(graph)
    if diameter_bound is not None:
        d_bound = max(d_bound, diameter_bound)
    schedule = CheckpointSchedule(max(1, d_bound), delay_model.tau_bar)
    weights = build_weights(graph)
    return run_cycle(
        graph, weights, problem, delay_model, schedule, rho,
        seed=seed, record_steps=record_steps,
    )


def instant_rows(
    index: int,
    cycle_rows: Iterable[tuple],
    commands: Mapping[int, float],
    delivered: Mapping[int, float | None],
) -> bytes:
    """One instant's trace rows as ``TRACE_COLUMNS`` CSV lines, joined.

    Each of the cycle's ``CycleResult.trace_rows`` gets the instant's index
    in front; a frozen row also gets its node's command and delivered power,
    and a live row leaves those two cells empty. A delivered power of None
    (not known to the caller) leaves its cell empty too. The lines come back
    as one ``bytes``: a verbose day holds one object per instant, not per row.
    """
    lines = []
    append = lines.append
    for step, node, r, s, ratio, z, y, theta, frozen in cycle_rows:
        if not frozen:
            append(_LIVE_LINE % (index, step, node, r, s, ratio, z, y, theta))
        elif (power := delivered[node]) is None:
            append(_UNTRACKED_LINE % (
                index, step, node, r, s, ratio, z, y, theta, commands[node]
            ))
        else:
            append(_FROZEN_LINE % (
                index, step, node, r, s, ratio, z, y, theta, commands[node], power
            ))
    return b"".join(lines)


def _day_grid(scenario: Scenario) -> tuple[float, float, int]:
    """The day's first hour, its dispatch period in hours, and its instant count."""
    start, end = scenario.day
    step_hours = scenario.dispatch_period / 3600.0
    return start, step_hours, math.floor((end - start) / step_hours + 1e-9) + 1


def day_instants(scenario: Scenario) -> Iterator[tuple[float, int]]:
    """The day's dispatch instants as ``(t_hours, cycle_seed)``, yielded in order.

    The day's start, then one instant per dispatch period up to the last at
    or before its end; one that misses the end by float rounding, within
    1e-9 of a period, counts. Each seed is the next ``randrange(2**32)`` of
    ``Random(scenario.seed)``, feasible instant or not: the one seed source.
    """
    start, step_hours, count = _day_grid(scenario)
    rng = random.Random(scenario.seed)
    for index in range(count):
        yield start + index * step_hours, rng.randrange(2**32)


def instant_index(scenario: Scenario, t_hours: float) -> int:
    """The position in ``day_instants`` of the instant at ``t_hours``.

    An hour within 1e-9 of a period of an instant names it; any other hour
    is a ``ConfigurationError`` that names the nearest instants. No list is
    made: the search computes each hour it tests as ``day_instants`` does.
    """
    start, step_hours, count = _day_grid(scenario)

    def hour(index: int) -> float:
        return start + index * step_hours

    tolerance = 1e-9 * scenario.dispatch_period / 3600.0
    above = bisect_left(range(count), t_hours, key=hour)
    nearest = range(max(above - 1, 0), min(above + 1, count))
    for index in nearest:
        if abs(hour(index) - t_hours) <= tolerance:
            return index
    raise ConfigurationError(
        f"{t_hours!r} h is not a dispatch instant of the day; nearest instants: "
        + ", ".join(f"{hour(index)!r} h" for index in nearest)
    )


def solve_instant(
    scenario: Scenario, t_hours: float, cycle_seed: int, *, record_steps: bool = False
) -> tuple[InstantPlan | Infeasible, CycleResult | None]:
    """The plan at ``t_hours`` and, when it is feasible, its cycle's result."""
    plan = plan_instant(scenario, t_hours)
    if isinstance(plan, Infeasible):
        return plan, None
    return plan, run_instant(
        plan.graph, plan.problem, scenario.delay, scenario.rho,
        diameter_bound=scenario.diameter_bound, seed=cycle_seed, record_steps=record_steps,
    )


def run_day(scenario: Scenario, *, record_steps: bool = False) -> DayResult:
    """Repeated dispatch over a day: plan, solve, and track at each instant.

    Infeasible instants are flagged and the previous commands held. A cycle
    that needs more iterations than the dispatch period covers still runs
    to termination and dispatches its result, but the overrun is flagged on
    the record; this happens when a renewable sits a cycle out and the
    shrunken graph both slows mixing and lengthens the checkpoint period.
    """
    units = {u.uid: u for u in scenario.fleet}
    # a cycle fits when its steps take no longer than the dispatch period
    budget = scenario.dispatch_period / scenario.consensus_period
    records: list[DispatchRecord] = []
    trace_chunks: list[bytes] = []
    prev_commands = {uid: 0.0 for uid in units}
    prev_delivered = prev_commands
    worst_leak = 0.0
    for index, (t, cycle_seed) in enumerate(day_instants(scenario)):
        plan, result = solve_instant(scenario, t, cycle_seed, record_steps=record_steps)
        if result is not None:
            commands = {uid: 0.0 for uid in units} | result.commands.commands
            worst_leak = max(worst_leak, result.max_conservation_error)
        else:
            commands = dict(prev_commands)
        overrun = result is not None and result.steps > budget
        delivered = {
            uid: track(
                units[uid], commands[uid], scenario.dispatch_period, prev_delivered[uid]
            )
            for uid in sorted(units)
        }
        if result is not None:
            trace_chunks.append(instant_rows(index, result.trace_rows, commands, delivered))
        records.append(
            DispatchRecord(
                index=index,
                t_hours=t,
                feasible=result is not None,
                participants=plan.participants,
                demand=plan.demand,
                commands=commands,
                delivered=delivered,
                total_command=ordered_sum(commands.values()),
                total_delivered=ordered_sum(delivered.values()),
                theta=result.theta if result else None,
                iterations=result.steps if result else None,
                budget_exceeded=overrun,
            )
        )
        prev_commands = commands
        prev_delivered = delivered
    deviations = [abs(rec.total_delivered - rec.demand) for rec in records if rec.feasible]
    return DayResult(
        records=records,
        infeasible_count=sum(not rec.feasible for rec in records),
        budget_exceeded_count=sum(rec.budget_exceeded for rec in records),
        max_total_deviation=max(deviations, default=None),
        max_conservation_error=worst_leak,
        trace_chunks=trace_chunks,
    )

