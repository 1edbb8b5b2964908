"""Parameter sweeps over controller gains, producing metric grids.

Rows come out in grid order, axis-1 major, so output files are
deterministic.  A grid whose point bookkeeping would not fit in physical
memory is rejected before it is built, and every swept value is checked by
InverterConfig's own rules, once per distinct config that carries it.
Points that agree on every axis some config carries have the same closed
loop, so each distinct point is evaluated once, in the grid order of its
first occurrence, and its value is copied to the points that repeat it: a
droop fleet's delta x nu grid is one point.  An h2 sweep builds its closed
loops as stacks of distinct points, writing the swept values into the
fleet's parameter arrays, and evaluates each stack in one H2 pass: only the
Schur factorisation, the trsyl solve and the products around it run point
by point.  Stacks are cut into chunks under a fixed byte budget, so a large
network's sweep never holds all its points' matrices at once.  A nadir
sweep builds and runs one model per distinct point, because the march
dominates it.  A numerical failure names the first grid point where it
occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .analysis import _h2
from .control import InverterMode
from .dynamics import _loop_stack, _parameters, _rotation_null_vector, assemble_closed_loop
from .errors import NumericalError, ValidationError
from .sim import _physical_memory, compute_metrics, simulate_deterministic

__all__ = ["SweepAxis", "SweepSpec", "run_sweep"]

AXIS_NAMES = ("delta", "nu", "r_r", "m_v")

# Working memory of one h2 chunk.  Its evaluation holds about sixteen
# state-sized (d x d) float matrices per point at once; bigger chunks raise the
# process's peak memory without running measurably faster.
CHUNK_BYTES = 1 << 20

# Bytes a sweep holds per grid point outside the evaluation: the grid and
# the tuples it is built from, the key of each distinct point and its
# value, and the output row with its floats.  tracemalloc read a peak of
# 334-365 per point on 200,000-point grids whose points are all distinct.
POINT_BYTES = 512


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

    def __post_init__(self):
        names = [axis.name for axis in self.axes]
        for index, name in enumerate(names):
            if name in names[:index]:
                raise ValidationError(f"axes[{index}].name: {name!r} is already swept by "
                                      f"axes[{names.index(name)}]")


def _grids(axes) -> list[np.ndarray]:
    """Each axis's values.  A grid whose point bookkeeping needs more bytes
    than the machine's physical memory is rejected before any of it is
    built; an axis whose spacing leaves the float range (a linear step from
    -1e308 to 1e308 does) is rejected once it is spaced."""
    count = math.prod(axis.count for axis in axes)  # exact: JSON counts have no size limit
    memory = _physical_memory()
    if count * POINT_BYTES > memory:
        # float(count) raises past the float range; such counts show as inf
        shown = math.inf if count.bit_length() > 1023 else float(count)
        raise ValidationError(
            f"axes: {shown:.3g} grid points need {shown * POINT_BYTES:.3g} bytes of point "
            f"bookkeeping, more than the {memory:.3g} bytes of physical memory"
        )
    grids = []
    for index, axis in enumerate(axes):
        # geomspace may overflow at a bound that it then sets exactly; any
        # other overflow leaves a value that is not finite, named below
        with np.errstate(over="ignore", invalid="ignore"):
            grid = axis.values()
        if not np.isfinite(grid).all():
            raise ValidationError(f"axes[{index}]: {axis.spacing} spacing from "
                                  f"{axis.minimum:.3g} to {axis.maximum:.3g} overflows")
        grids.append(grid)
    return grids


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


def _named(error: NumericalError, index: int, axes, points) -> NumericalError:
    values = ", ".join(f"{axis.name}={float(value)!r}" for axis, value in zip(axes, points[index]))
    return NumericalError(f"sweep point {index} ({values}): {error}")


def _h2_values(network, configs, noise, axes, points, indices) -> list[float]:
    """Squared H2 norm at the grid points ``indices``, inf where it is
    infinite, one stack per chunk."""
    base = _parameters(configs)
    carriers = {axis.name: [i for i, c in enumerate(configs)
                            if getattr(c, axis.name) is not None] for axis in axes}
    n = network.n_buses
    dim = 2 * n + sum(c.mode is InverterMode.IDROOP for c in configs)
    null_vector = _rotation_null_vector(n, dim)
    chunk = max(1, CHUNK_BYTES // (16 * 8 * dim * dim))
    values = []
    for start in range(0, len(indices), chunk):
        block = points[indices[start : start + chunk]]
        params = {name: np.repeat(column, len(block), axis=0) for name, column in base.items()}
        for axis, column in zip(axes, block.T):
            params[axis.name][:, carriers[axis.name]] = column[:, None]
        loop = _loop_stack(network, configs, noise, params)
        try:
            results = _h2(loop["a"], loop["b"], loop["c"], null_vector)
        except NumericalError as exc:
            raise _named(exc, indices[start + exc.point], axes, points) from None
        values += [r.value if r.is_finite else float("inf") for r in results]
    return values


def _nadir_values(network, configs, noise, axes, points, indices, sim_config) -> list[float]:
    values = []
    for index in indices:
        model = assemble_closed_loop(network, [_swept(c, axes, points[index]) for c in configs],
                                     noise)
        try:
            values.append(compute_metrics(simulate_deterministic(model, sim_config)).nadir)
        except NumericalError as exc:
            raise _named(exc, index, axes, points) from None
    return values


def run_sweep(network, configs, noise, spec: SweepSpec, sim_config=None) -> list[tuple]:
    """Evaluate the metric on the parameter grid.

    Returns rows (value_axis1, value_axis2 or None, metric), axis-1 major.
    A swept value applies to every config that carries the parameter:
    InverterConfig carries m_v, delta and nu only on modes that use them,
    and an r_r on a CP config is read by no law.  A sweep that touches no
    bus yields a constant grid.  Infinite H2 norms show up as float('inf').
    The grid's size is bounded by physical memory, and every value is
    checked, before any point is evaluated.  Points with equal values on
    the axes some config carries have equal models, so each distinct point
    is evaluated once and its value is copied to the points that repeat it.
    """
    if spec.metric == "nadir":
        if sim_config is None or not sim_config.disturbances:
            raise ValidationError("nadir sweep needs a SimConfig with disturbances")

    axes = spec.axes
    grids = _grids(axes)
    points = np.array(list(product(*grids))).reshape(-1, len(axes))
    _check_values(configs, axes, grids)
    carried = [k for k, axis in enumerate(axes)
               if any(getattr(c, axis.name) is not None for c in configs)]
    first = {}  # carried values -> grid index of their first occurrence, in grid order
    owners = [first.setdefault(key.tobytes(), index)
              for index, key in enumerate(points[:, carried])]
    indices = list(first.values())
    if spec.metric == "h2":
        values = _h2_values(network, configs, noise, axes, points, indices)
    else:
        values = _nadir_values(network, configs, noise, axes, points, indices, sim_config)
    value_of = dict(zip(indices, values))
    return [(float(point[0]), float(point[1]) if len(point) == 2 else None, float(value_of[owner]))
            for point, owner in zip(points, owners)]
