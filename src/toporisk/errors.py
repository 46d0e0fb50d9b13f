"""Exception types shared across the package, and the type checks of the
small settings values (`Material`, `MMAConfig`, `AugLagConfig`, the
continuation schedule) that raise the standard ones."""
from __future__ import annotations

import math
import numbers
from dataclasses import fields


class TopoRiskError(Exception):
    """Base class for all package errors."""


class ConfigError(TopoRiskError):
    """A run configuration is malformed or violates the documented schema."""


class NotPositiveDefiniteError(TopoRiskError):
    """The constrained stiffness matrix is not positive definite.

    Usually means the structure is unsupported (empty fixed DOF set) or
    densities fell below the interpolation floor.
    """


class ScenarioFormatError(ConfigError):
    """A scenario CSV file cannot be read or is malformed (bad header,
    duplicates, bad value or index)."""


class InfeasibleError(TopoRiskError):
    """The augmented Lagrangian loop could not reduce the constraint violation."""


def check_number(name: str, value, integer: bool = False) -> None:
    """Raise TypeError naming `name` unless `value` is a real number, or an
    integer if `integer` (a bool is neither), and ValueError if it is not
    finite."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{name} must be {'an integer' if integer else 'a number'}, "
                        f"got {value!r}")
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def check_fields(instance) -> None:
    """`check_number` on every field of a dataclass of numbers; a field
    annotated `int` must hold an integer."""
    for f in fields(instance):
        check_number(f.name, getattr(instance, f.name), integer=f.type in ("int", int))
