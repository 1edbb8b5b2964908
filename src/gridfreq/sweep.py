"""Parameter sweeps over controller gains, producing metric grids.

Grid points are evaluated one after another in grid order, axis-1 major,
so output files are deterministic.  Each point is a small dense solve;
a thread pool over the points measured slower than this serial loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import h2_frequency_weighted
from .control import InverterMode
from .dynamics import assemble_closed_loop
from .errors import ValidationError
from .sim import compute_metrics, simulate_deterministic

__all__ = ["SweepAxis", "SweepSpec", "load_sweep_spec", "parse_sweep_spec", "run_sweep"]

AXIS_NAMES = ("delta", "nu", "r_r", "m_v")
# which modes a swept parameter applies to
_PARAM_MODES = {
    "delta": (InverterMode.IDROOP,),
    "nu": (InverterMode.IDROOP,),
    "r_r": (InverterMode.DC, InverterMode.VI, InverterMode.IDROOP),
    "m_v": (InverterMode.VI,),
}


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


def parse_sweep_spec(obj: dict) -> SweepSpec:
    axes = []
    raw_axes = obj.get("axes", [])
    if not 1 <= len(raw_axes) <= 2:
        raise ValidationError("sweep needs one or two axes")
    for raw in raw_axes:
        name = raw.get("name")
        if name not in AXIS_NAMES:
            raise ValidationError(f"unknown sweep axis {name!r}; expected one of {AXIS_NAMES}")
        count = int(raw.get("count", 0))
        if count < 2:
            raise ValidationError(f"axis {name}: count must be >= 2")
        spacing = raw.get("spacing", "linear")
        if spacing not in ("linear", "log"):
            raise ValidationError(f"axis {name}: spacing must be linear or log")
        minimum, maximum = float(raw["min"]), float(raw["max"])
        if spacing == "log" and (minimum <= 0 or maximum <= 0):
            raise ValidationError(f"axis {name}: log spacing needs positive bounds")
        axes.append(SweepAxis(name=name, minimum=minimum, maximum=maximum,
                              count=count, spacing=spacing))
    metric = obj.get("metric")
    if metric not in ("h2", "nadir"):
        raise ValidationError(f"unknown sweep metric {metric!r}; expected h2 or nadir")
    return SweepSpec(axes=tuple(axes), metric=metric)


def load_sweep_spec(path) -> SweepSpec:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return parse_sweep_spec(obj)


def _override(config, name: str, value: float):
    if config.mode in _PARAM_MODES[name]:
        return replace(config, **{name: float(value)})
    return config


def run_sweep(network, configs, noise, spec: SweepSpec, sim_config=None) -> list[tuple]:
    """Evaluate the metric on the parameter grid.

    Returns rows (value_axis1, value_axis2 or None, metric), axis-1 major.
    Swept parameters only apply to buses whose mode uses them; a sweep that
    touches no bus simply yields a constant grid.  Infinite H2 norms show
    up as float('inf').
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
        swept = list(configs)
        for axis, value in zip(spec.axes, point):
            swept = [_override(c, axis.name, value) for c in swept]
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
