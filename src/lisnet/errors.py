"""Exception types shared across the package."""


class LisnetError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigurationError(LisnetError, ValueError):
    """A scenario, graph, or parameter set is malformed or unusable."""


class FeasibilityError(ConfigurationError):
    """An apportioning problem cannot be satisfied within the given bounds."""


class ProtocolError(LisnetError, RuntimeError):
    """A node was driven outside its message or schedule contract."""


class InvariantError(LisnetError, RuntimeError):
    """A runtime invariant (finiteness, positivity, conservation, delay bound) broke."""


class NonTerminationError(LisnetError, RuntimeError):
    """A run exceeded its step ceiling without every node freezing."""
