"""Parameter sweeps over controller gains, producing metric grids.

Grid points are evaluated one after another in grid order, axis-1 major,
so output files are deterministic.  Each point is a small dense solve;
a thread pool over the points measured slower than this serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import h2_frequency_weighted
from .dynamics import assemble_closed_loop
from .errors import ValidationError
from .sim import compute_metrics, simulate_deterministic

__all__ = ["SweepAxis", "SweepSpec", "run_sweep"]

AXIS_NAMES = ("delta", "nu", "r_r", "m_v")


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


def run_sweep(network, configs, noise, spec: SweepSpec, sim_config=None) -> list[tuple]:
    """Evaluate the metric on the parameter grid.

    Returns rows (value_axis1, value_axis2 or None, metric), axis-1 major.
    A swept value applies to every config that carries the parameter:
    InverterConfig carries m_v, delta and nu only on modes that use them,
    and an r_r on a CP config is read by no law.  A sweep that touches no
    bus yields a constant grid.  Infinite H2 norms show up as float('inf').
    """
    if spec.metric == "nadir":
        if sim_config is None or not sim_config.disturbances:
            raise ValidationError("nadir sweep needs a SimConfig with disturbances")

    grids = [axis.values() for axis in spec.axes]
    if len(grids) == 1:
        points = [(v,) for v in grids[0]]
    else:
        points = [(v1, v2) for v1 in grids[0] for v2 in grids[1]]

    def evaluate(point):
        swept = [replace(c, **{axis.name: float(value) for axis, value in zip(spec.axes, point)
                                if getattr(c, axis.name) is not None})
                 for c in configs]
        model = assemble_closed_loop(network, swept, noise)
        if spec.metric == "h2":
            result = h2_frequency_weighted(model)
            return result.value if result.is_finite else float("inf")
        trajectory = simulate_deterministic(model, sim_config)
        return compute_metrics(trajectory).nadir

    return [
        (float(point[0]), float(point[1]) if len(point) == 2 else None, float(evaluate(point)))
        for point in points
    ]
