"""Delay-tolerant consensus apportioning for fleets of local inverter systems.

The package splits into a protocol layer (topology, consensus, termination,
apportioning), a deterministic lockstep simulator (netsim), the fleet and
dispatch modeling (scenario), and a command-line front end (cli).
"""

from .apportioning import (
    ApportionProblem,
    ReferenceCommand,
    closed_form_oracle,
    init_states,
    reference_command,
)
from .consensus import ConsensusState, Envelope, absorb, emit
from .errors import (
    ConfigurationError,
    FeasibilityError,
    InvariantError,
    LisnetError,
    NonTerminationError,
    ProtocolError,
)
from .netsim import (
    AuditReport,
    CycleResult,
    DelayModel,
    Mailbox,
    Simulation,
    run_cycle,
    run_naive_averaging,
    simulate_averaging,
)
from .scenario import (
    DispatchSchedule,
    Infeasible,
    InstantPlan,
    LisUnit,
    PowerProfile,
    bounds_at,
    day_instants,
    plan_instant,
    run_day,
    run_instant,
    six_lis_fleet,
    track,
)
from .termination import (
    CheckpointEvent,
    CheckpointSchedule,
    NodeMachine,
    TerminationState,
    checkpoint,
    epoch_update,
)
from .topology import Graph, WeightMatrix, build_weights, diameter

__version__ = "0.1.0"

__all__ = [
    "ApportionProblem",
    "AuditReport",
    "CheckpointEvent",
    "CheckpointSchedule",
    "ConfigurationError",
    "ConsensusState",
    "CycleResult",
    "DelayModel",
    "DispatchSchedule",
    "Envelope",
    "FeasibilityError",
    "Graph",
    "Infeasible",
    "InstantPlan",
    "InvariantError",
    "LisnetError",
    "LisUnit",
    "Mailbox",
    "NodeMachine",
    "NonTerminationError",
    "PowerProfile",
    "ProtocolError",
    "ReferenceCommand",
    "Simulation",
    "TerminationState",
    "WeightMatrix",
    "absorb",
    "bounds_at",
    "build_weights",
    "checkpoint",
    "closed_form_oracle",
    "day_instants",
    "diameter",
    "emit",
    "epoch_update",
    "init_states",
    "plan_instant",
    "reference_command",
    "run_cycle",
    "run_day",
    "run_instant",
    "run_naive_averaging",
    "simulate_averaging",
    "six_lis_fleet",
    "track",
]
