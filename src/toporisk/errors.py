"""Exception types shared across the package."""


class TopoRiskError(Exception):
    """Base class for all package errors."""


class ConfigError(TopoRiskError):
    """A run configuration is malformed or violates the documented schema."""


class NotPositiveDefiniteError(TopoRiskError):
    """The constrained stiffness matrix is not positive definite.

    Usually means the structure is unsupported (empty fixed DOF set) or
    densities fell below the interpolation floor.
    """


class ScenarioFormatError(TopoRiskError):
    """A scenario CSV file is malformed (bad header, duplicates, bad index)."""


class InfeasibleError(TopoRiskError):
    """The augmented Lagrangian loop could not reduce the constraint violation."""
