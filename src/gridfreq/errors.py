"""Exception hierarchy shared across the package."""


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
