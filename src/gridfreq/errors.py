"""Exception hierarchy shared across the package, and the record checks that
every module runs on outside input, raising ValidationError naming the field."""

import math
import numbers

import numpy as np

__all__ = ["GridFreqError", "ValidationError", "InjectionOverflow", "NumericalError",
           "SimulationDiverged"]


class GridFreqError(Exception):
    """Base class for all gridfreq errors."""


class ValidationError(GridFreqError):
    """Structurally invalid input: bad network, config, or document."""


class InjectionOverflow(ValidationError):
    """Disturbances on one bus sum to a non-finite injection.  ``bus`` is the
    model's bus index; ``label``, if given, names the bus in the message."""

    def __init__(self, bus, label=None):
        super().__init__(f"disturbances on bus {bus if label is None else label} "
                         "sum to a non-finite injection")
        self.bus = bus


class NumericalError(GridFreqError):
    """A numerical procedure failed (unstable matrix, non-convergence, ...).

    ``point``, when set, is the index of the failing item of a stacked
    evaluation."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class SimulationDiverged(NumericalError):
    """Time integration produced non-finite values.

    Carries the last finite time and state so callers can inspect how far
    the run got before blowing up.
    """

    def __init__(self, message, time, state):
        super().__init__(message)
        self.time = time
        self.state = state


def _is_finite(value) -> bool:
    """True for a real number that a float holds finitely; False for a bool,
    NaN, an infinity, an int past the float range and anything that is not a
    number."""
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _is_integer(value) -> bool:
    """True for an int, numpy's included, and False for a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def _require(condition, message):
    if not condition:
        raise ValidationError(message)


def _finite(value, field: str) -> float:
    """A real number (not a string or boolean) as a finite float; errors name the field."""
    _require(isinstance(value, numbers.Real) and not isinstance(value, bool),
             f"{field}: must be a number")
    _require(_is_finite(value), f"{field}: must be finite")
    return float(value)


def _integer(value, field: str) -> int:
    _require(_is_integer(value), f"{field}: must be an integer")
    return int(value)


def _records(values, kind, field: str) -> tuple:
    """The iterable ``values`` of ``kind`` records as a tuple; errors name field and value."""
    message = f"{field} must be {kind.__name__} records, got "
    try:
        values = tuple(values)
    except TypeError:
        raise ValidationError(message + repr(values)) from None
    for value in values:
        if not isinstance(value, kind):
            raise ValidationError(message + repr(value))
    return values
