"""Exception types shared across the package."""


class ChampBribeError(Exception):
    """Base class for all package-specific errors."""


class InstanceError(ChampBribeError, ValueError):
    """Malformed instance data (invariant violation, bad schema, bad field)."""


class PlanError(ChampBribeError, ValueError):
    """A bribe plan does not fit the instance it is applied to."""


class ModelError(ChampBribeError, ValueError):
    """Malformed LP/MILP model, or a model outside the solver's contract."""


class CapExceededError(ChampBribeError, RuntimeError):
    """An input exceeds a configured size or work cap of a brute-force, DP or MILP routine."""


class ReductionError(ChampBribeError, ValueError):
    """An instance violates the preconditions of a reduction."""


class SolverError(ChampBribeError, RuntimeError):
    """Internal solver failure (e.g. a restricted LP that must be feasible is not)."""
