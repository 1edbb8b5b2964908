"""Parameter sweeps over controller gains, producing metric grids.

Rows come out in grid order, axis-1 major, so output files are
deterministic.  A grid whose point bookkeeping would not fit in physical
memory is rejected before it is built.  A swept value goes on every config
whose mode's law reads it, checked by InverterConfig's own rules once per
distinct such config.  Points that agree on every axis some config's law
reads have the same closed loop, so each distinct point is evaluated once,
in the grid order of its first occurrence, and its value is copied to the
points that repeat it: a droop fleet's delta x nu grid is one point.  An h2
sweep builds its closed loops as stacks of distinct points, writing the
swept values into the fleet's parameter arrays, and evaluates each stack in
one H2 pass, which forms the products that cannot fail once per stack and
then solves its points in order.  Stacks are cut into chunks under a fixed
byte budget, so a large network's sweep never holds all its points'
matrices at once.  A nadir sweep builds and runs one model per distinct
point from the fleet it gated, because the march dominates it.  A numerical
failure names the first grid point where it occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .analysis import _h2
from .control import PARAMETERS, InverterMode, _fleet
from .dynamics import _assemble_closed_loop, _loop_matrices, _parameters, _rotation_null_vector
from .errors import NumericalError, ValidationError, _finite, _integer, _records, _require
from .sim import _physical_memory, compute_metrics, simulate_deterministic

__all__ = ["SweepAxis", "SweepSpec", "run_sweep"]

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
    """One or two axes over distinct parameters, and the metric.  Library and
    CLI specs pass the same checks, whose errors name the field as the JSON
    spec does (``axes[0].count: must be >= 2``).  Bounds are stored as floats."""

    axes: tuple[SweepAxis, ...]
    metric: str  # "h2" | "nadir"

    def __post_init__(self):
        given = _records(self.axes, SweepAxis, "axes")
        _require(1 <= len(given) <= 2, "sweep needs one or two axes")
        axes = []
        for index, axis in enumerate(given):
            where = f"axes[{index}]"
            _require(axis.name in PARAMETERS, f"{where}.name: unknown sweep axis "
                                              f"{axis.name!r}; expected one of {PARAMETERS}")
            count = _integer(axis.count, f"{where}.count")
            _require(count >= 2, f"{where}.count: must be >= 2")
            _require(axis.spacing in ("linear", "log"), f"{where}.spacing: must be linear or log")
            minimum, maximum = (_finite(value, f"{where}.{key}")
                                for key, value in (("min", axis.minimum), ("max", axis.maximum)))
            _require(axis.spacing == "linear" or (minimum > 0 and maximum > 0),
                     f"{where}: log spacing needs positive bounds")
            axes.append(SweepAxis(axis.name, minimum, maximum, count, axis.spacing))
        _require(self.metric in ("h2", "nadir"),
                 f"metric: unknown sweep metric {self.metric!r}; expected h2 or nadir")
        names = [axis.name for axis in axes]
        for index, name in enumerate(names):
            _require(name not in names[:index], f"axes[{index}].name: {name!r} is already swept "
                                                f"by axes[{names.index(name)}]")
        object.__setattr__(self, "axes", tuple(axes))


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
    """``config`` with the point's values on the parameters its mode's law
    reads, checked by InverterConfig's own rules."""
    return replace(config, **{axis.name: float(value) for axis, value in zip(axes, point)
                              if axis.name in config.mode.parameters})


def _check_values(configs, axes, grids) -> None:
    """Check every swept value on each distinct config that carries it.

    Points are checked in grid order along the first row and column: the
    first invalid point of the grid lies there, so the error is the one a
    point-by-point walk would raise.
    """
    distinct = list(dict.fromkeys(configs))
    head = [grid[0] for grid in grids]
    points = [[*head[:-1], value] for value in grids[-1]]  # the first row
    if len(grids) == 2:
        points += [[value, head[1]] for value in grids[0][1:]]  # the rest of the first column
    for point in points:
        for config in distinct:
            _swept(config, axes, point)


def _named(error: NumericalError, index: int, axes, points) -> NumericalError:
    values = ", ".join(f"{axis.name}={float(value)!r}" for axis, value in zip(axes, points[index]))
    return NumericalError(f"sweep point {index} ({values}): {error}")


def _h2_values(network, fleet, axes, points, indices) -> list[float]:
    """Squared H2 norm at the grid points ``indices``, inf where it is
    infinite, one stack per chunk.  ``fleet`` is the fleet gate's result."""
    configs, noise, inertia, damping, rg_inv = fleet
    modes = [c.mode for c in configs]
    base = _parameters(configs)
    carriers = {axis.name: [i for i, c in enumerate(configs) if axis.name in c.mode.parameters]
                for axis in axes}
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
        loop = _loop_matrices(network.laplacian, inertia, damping + rg_inv, modes, params, noise)
        try:
            results = _h2(loop["a"], loop["b"], loop["c"], null_vector)
        except NumericalError as exc:
            raise _named(exc, indices[start + exc.point], axes, points) from None
        values += [r.value if r.is_finite else float("inf") for r in results]
    return values


def _nadir_values(network, fleet, axes, points, indices, sim_config) -> list[float]:
    """Frequency nadir at the grid points ``indices``, one model and run per
    point.  ``fleet`` is the fleet gate's result; a point swaps in its configs."""
    values = []
    for index in indices:
        swept = tuple(_swept(c, axes, points[index]) for c in fleet[0])
        model = _assemble_closed_loop(network, (swept, *fleet[1:]))
        try:
            values.append(compute_metrics(simulate_deterministic(model, sim_config)).nadir)
        except NumericalError as exc:
            raise _named(exc, index, axes, points) from None
    return values


def run_sweep(network, configs, noise, spec: SweepSpec, sim_config=None) -> list[tuple]:
    """Evaluate the metric on the parameter grid.

    Returns rows (value_axis1, value_axis2 or None, metric), axis-1 major.
    A swept value goes on every config whose mode's law reads it, so an r_r
    that a CP config carries is left as it is.  A sweep that touches no bus
    yields a constant grid.  Infinite H2 norms show up as float('inf').
    The grid's size is bounded by physical memory, and every value is
    checked, before any point is evaluated.  Points with equal values on
    the axes some config's law reads have equal models, so each distinct
    point is evaluated once and its value is copied to the points that
    repeat it.
    """
    if spec.metric == "nadir":
        if sim_config is None or not sim_config.disturbances:
            raise ValidationError("nadir sweep needs a SimConfig with disturbances; a network "
                                  "document lists them in its \"disturbances\" field")

    fleet = _fleet(network.buses, configs, noise)
    configs = fleet[0]
    axes = spec.axes
    grids = _grids(axes)
    points = np.array(list(product(*grids))).reshape(-1, len(axes))
    _check_values(configs, axes, grids)
    carried = [k for k, axis in enumerate(axes)
               if any(axis.name in c.mode.parameters for c in configs)]
    first = {}  # carried values -> grid index of their first occurrence, in grid order
    owners = [first.setdefault(key.tobytes(), index)
              for index, key in enumerate(points[:, carried])]
    indices = list(first.values())
    if spec.metric == "h2":
        values = _h2_values(network, fleet, axes, points, indices)
    else:
        values = _nadir_values(network, fleet, axes, points, indices, sim_config)
    value_of = dict(zip(indices, values))
    return [(float(point[0]), float(point[1]) if len(point) == 2 else None, float(value_of[owner]))
            for point, owner in zip(points, owners)]
