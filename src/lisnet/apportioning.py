"""Apportioning problems and power reference commands.

A problem asks the fleet to supply ``rho_d`` watts collectively while each
unit stays inside its capacity window. The demand enters the network as the
numerator initial condition of the nodes in the demand-circulation set; the
capacity spans enter as the denominator initial conditions. Once the
network agrees on the quotient, every unit reads off its own command
locally. The closed form below computes the same answer centrally and is
the ground truth the distributed run is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .consensus import ConsensusState
from .errors import FeasibilityError, InvariantError

Bounds = tuple[float, float]


@dataclass(frozen=True)
class ApportionProblem:
    """Demand, per-node capacity windows, and the demand-circulation set."""

    rho_d: float
    bounds: Mapping[int, Bounds]
    demand_set: frozenset[int]

    def __post_init__(self):
        if not self.bounds:
            raise FeasibilityError("problem has no participating nodes")
        if not math.isfinite(self.rho_d):
            raise FeasibilityError("demand must be finite")
        for i, (lo, hi) in self.bounds.items():
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise FeasibilityError(f"node {i}: bounds must be finite")
            if not lo < hi:
                raise FeasibilityError(
                    f"node {i}: capacity window [{lo}, {hi}] has no width"
                )
        if not self.demand_set:
            raise FeasibilityError("demand-circulation set is empty")
        unknown = self.demand_set - set(self.bounds)
        if unknown:
            raise FeasibilityError(
                f"demand-circulation nodes {sorted(unknown)} are not in the problem"
            )
        if not self.total_min <= self.rho_d <= self.total_max:
            raise FeasibilityError(
                f"demand {self.rho_d} outside feasible range "
                f"[{self.total_min}, {self.total_max}]"
            )

    @property
    def p(self) -> int:
        return len(self.demand_set)

    @property
    def total_min(self) -> float:
        return sum(lo for lo, _ in self.bounds.values())

    @property
    def total_max(self) -> float:
        return sum(hi for _, hi in self.bounds.values())

    def span(self, i: int) -> float:
        lo, hi = self.bounds[i]
        return hi - lo

    @property
    def total_span(self) -> float:
        return self.total_max - self.total_min


@dataclass(frozen=True)
class ReferenceCommand:
    """Per-node power reference commands, in watts."""

    commands: Mapping[int, float]

    def __getitem__(self, node: int) -> float:
        return self.commands[node]

    @property
    def total(self) -> float:
        return sum(self.commands.values())


def init_states(problem: ApportionProblem) -> dict[int, ConsensusState]:
    """Initial consensus states for a feasible problem.

    Demand-circulation nodes start their numerator at an equal slice of the
    demand less their own floor; everyone else starts at minus their floor.
    Denominators start at the capacity span, which the problem guarantees to
    be strictly positive.
    """
    share = problem.rho_d / problem.p
    states = {}
    for i, (lo, hi) in sorted(problem.bounds.items()):
        r0 = (share - lo) if i in problem.demand_set else -lo
        states[i] = ConsensusState(node=i, r=r0, s=hi - lo)
    return states


def reference_command(
    problem: ApportionProblem, r_star: float, s_star: float, node: int
) -> float:
    """Command for ``node`` from its frozen quotient, clamped to its window.

    Early stopping can leave the quotient marginally outside [0, 1];
    clamping keeps the command inside the hardware's capacity window at the
    cost of aggregate error already covered by the stopping threshold.
    """
    if s_star == 0.0:
        raise InvariantError(f"node {node}: frozen denominator is zero")
    q = r_star / s_star
    q = min(max(q, 0.0), 1.0)
    lo, hi = problem.bounds[node]
    return lo + q * (hi - lo)


def closed_form_oracle(problem: ApportionProblem) -> ReferenceCommand:
    """Exact apportionment, independent of any consensus run.

    Every node moves the same fraction of the way through its capacity
    window, the fraction being the demand overshoot above the collective
    floor divided by the collective span.
    """
    denom = problem.total_span
    if denom == 0.0:
        raise FeasibilityError("fleet has zero collective span")
    q = (problem.rho_d - problem.total_min) / denom
    commands = {}
    for i, (lo, hi) in sorted(problem.bounds.items()):
        commands[i] = lo + q * (hi - lo)
    return ReferenceCommand(commands)
