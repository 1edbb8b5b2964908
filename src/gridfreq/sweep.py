"""Parameter sweeps over controller gains, producing metric grids.

Grid points run in grid order, axis-1 major, so output files are
deterministic.  Every swept value is first checked by InverterConfig's own
rules, once per distinct config that carries it.  An h2 sweep then builds
its closed loops as stacks of points, writing the swept values into the
fleet's parameter arrays, and evaluates each stack in one H2 pass: only
the Schur factorisation, the trsyl solve and the products around it run
point by point.  Stacks
are cut into chunks under a fixed byte budget, so a large network's sweep
never holds all its points' matrices at once.  A nadir sweep builds and
runs one model per point, because the march dominates it.  A numerical
failure names its grid point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .analysis import _h2
from .control import InverterMode
from .dynamics import _loop_stack, _parameters, _rotation_null_vector, assemble_closed_loop
from .errors import NumericalError, ValidationError
from .sim import compute_metrics, simulate_deterministic

__all__ = ["SweepAxis", "SweepSpec", "run_sweep"]

AXIS_NAMES = ("delta", "nu", "r_r", "m_v")

# Working memory of one h2 chunk.  Its evaluation holds about sixteen
# state-sized (d x d) float matrices per point at once; bigger chunks raise the
# process's peak memory without running measurably faster.
CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class SweepAxis:
    name: str
    minimum: float
    maximum: float
    count: int
    spacing: str = "linear"

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.minimum, self.maximum, self.count)
        return np.linspace(self.minimum, self.maximum, self.count)


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[SweepAxis, ...]
    metric: str  # "h2" | "nadir"


def _swept(config, axes, point):
    """``config`` with the point's values on the parameters it carries,
    checked by InverterConfig's own rules."""
    return replace(config, **{axis.name: float(value) for axis, value in zip(axes, point)
                              if getattr(config, axis.name) is not None})


def _check_values(configs, axes, grids) -> None:
    """Check every swept value on each distinct config that carries it.

    Points are checked in grid order along the first row and column: the
    first invalid point of the grid lies there, so the error is the one a
    point-by-point walk would raise.
    """
    distinct = list(dict.fromkeys(configs))
    for index in np.ndindex(*(grid.size for grid in grids)):
        if np.count_nonzero(index) <= 1:
            point = [grid[i] for grid, i in zip(grids, index)]
            for config in distinct:
                _swept(config, axes, point)


def _named(error: NumericalError, index: int, axes, point) -> NumericalError:
    values = ", ".join(f"{axis.name}={float(value)!r}" for axis, value in zip(axes, point))
    return NumericalError(f"sweep point {index} ({values}): {error}")


def _h2_values(network, configs, noise, axes, points) -> list[float]:
    """Squared H2 norm at every point, inf where it is infinite, one stack per chunk."""
    base = _parameters(configs)
    carriers = {axis.name: [i for i, c in enumerate(configs)
                            if getattr(c, axis.name) is not None] for axis in axes}
    n = network.n_buses
    dim = 2 * n + sum(c.mode is InverterMode.IDROOP for c in configs)
    null_vector = _rotation_null_vector(n, dim)
    chunk = max(1, CHUNK_BYTES // (16 * 8 * dim * dim))
    values = []
    for start in range(0, len(points), chunk):
        block = points[start : start + chunk]
        params = {name: np.repeat(column, len(block), axis=0) for name, column in base.items()}
        for axis, column in zip(axes, block.T):
            params[axis.name][:, carriers[axis.name]] = column[:, None]
        loop = _loop_stack(network, configs, noise, params)
        try:
            results = _h2(loop["a"], loop["b"], loop["c"], null_vector)
        except NumericalError as exc:
            raise _named(exc, start + exc.point, axes, block[exc.point]) from None
        values += [r.value if r.is_finite else float("inf") for r in results]
    return values


def _nadir_values(network, configs, noise, axes, points, sim_config) -> list[float]:
    values = []
    for index, point in enumerate(points):
        model = assemble_closed_loop(network, [_swept(c, axes, point) for c in configs], noise)
        try:
            values.append(compute_metrics(simulate_deterministic(model, sim_config)).nadir)
        except NumericalError as exc:
            raise _named(exc, index, axes, point) from None
    return values


def run_sweep(network, configs, noise, spec: SweepSpec, sim_config=None) -> list[tuple]:
    """Evaluate the metric on the parameter grid.

    Returns rows (value_axis1, value_axis2 or None, metric), axis-1 major.
    A swept value applies to every config that carries the parameter:
    InverterConfig carries m_v, delta and nu only on modes that use them,
    and an r_r on a CP config is read by no law.  A sweep that touches no
    bus yields a constant grid.  Infinite H2 norms show up as float('inf').
    Every value is checked before any point is evaluated.
    """
    if spec.metric == "nadir":
        if sim_config is None or not sim_config.disturbances:
            raise ValidationError("nadir sweep needs a SimConfig with disturbances")

    axes = spec.axes
    grids = [axis.values() for axis in axes]
    points = np.array(list(product(*grids))).reshape(-1, len(axes))
    _check_values(configs, axes, grids)
    if spec.metric == "h2":
        values = _h2_values(network, configs, noise, axes, points)
    else:
        values = _nadir_values(network, configs, noise, axes, points, sim_config)
    return [(float(point[0]), float(point[1]) if len(point) == 2 else None, float(value))
            for point, value in zip(points, values)]
