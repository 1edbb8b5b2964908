"""Network document and sweep-spec ingestion (versioned JSON schema).

A document carries buses, lines, per-generator inverter configs, per-bus
noise gains and optional scheduled injection steps.  No command writes a
document, so there is no writer here.  Documents and sweep specs share one
JSON reader, and their schema errors name the field in the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .control import InverterConfig, InverterMode, NoiseGains
from .errors import ValidationError
from .network import Bus, Line, PowerNetwork, kron_reduce_network
from .sim import Disturbance
from .sweep import AXIS_NAMES, SweepAxis, SweepSpec

__all__ = [
    "NetworkDocument",
    "ReducedSystem",
    "SCHEMA_VERSION",
    "load_document",
    "load_sweep_spec",
    "parse_document",
    "parse_sweep_spec",
    "reduce_document",
]

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class NetworkDocument:
    schema_version: str
    network: PowerNetwork
    inverters: tuple[InverterConfig, ...]  # aligned with generator buses, in id order
    noise: tuple[NoiseGains, ...]  # aligned with all buses, in id order
    disturbances: tuple[Disturbance, ...]
    comment: str | None = None


@dataclass(frozen=True)
class ReducedSystem:
    """Generator-only system ready for dynamic analysis, with the map from
    original bus ids to reduced indices."""

    network: PowerNetwork
    configs: tuple[InverterConfig, ...]
    noise: tuple[NoiseGains, ...]
    disturbances: tuple[Disturbance, ...]
    id_map: dict[int, int]

    @property
    def bus_ids(self) -> list[int]:
        """Original document id of each reduced bus, in reduced order."""
        return sorted(self.id_map, key=self.id_map.get)


def _require(condition, message):
    if not condition:
        raise ValidationError(message)


def _finite(value, field: str) -> float:
    """A JSON number (not a string or boolean) as a finite float."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{field}: must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    _require(math.isfinite(number), f"{field}: must be finite")
    return number


def _integer(value, field: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{field}: must be an integer")
    return value


def _mode(value, field: str) -> InverterMode:
    modes = [m.value for m in InverterMode]
    _require(value in modes, f"{field}: unknown mode {value!r}; expected one of {modes}")
    return InverterMode(value)


_REQUIRED = object()


def _field(entry: dict, key: str, where: str, convert, default=_REQUIRED):
    """entry[key] through convert; an absent or null key takes the default."""
    if entry.get(key) is None:
        _require(default is not _REQUIRED, f"{where}.{key}: missing")
        return default
    return convert(entry[key], f"{where}.{key}")


def _entries(obj: dict, key: str):
    """Yield (path, entry) for each object in the list obj[key], which may be absent."""
    entries = obj.get(key, [])
    _require(isinstance(entries, list), f"{key}: must be a list")
    for k, entry in enumerate(entries):
        _require(isinstance(entry, dict), f"{key}[{k}]: must be an object")
        yield f"{key}[{k}]", entry


def parse_document(obj: dict) -> NetworkDocument:
    """Build a document from a decoded JSON object, validating as we go.

    Schema errors name the field, e.g. ``lines[0].susceptance: missing``.
    """
    _require(isinstance(obj, dict), "document root must be an object")
    version = obj.get("schema_version")
    _require(version == SCHEMA_VERSION, f"unsupported schema_version {version!r}")

    buses = [
        Bus(
            id=_field(entry, "id", where, _integer),
            kind=entry.get("kind", "generator"),
            inertia=_field(entry, "inertia", where, _finite, None),
            damping=_field(entry, "damping", where, _finite, 0.0),
            governor_droop=_field(entry, "governor_droop", where, _finite, None),
            injection=_field(entry, "injection", where, _finite, 0.0),
        )
        for where, entry in _entries(obj, "buses")
    ]
    lines = [
        Line(
            from_bus=_field(entry, "from", where, _integer),
            to_bus=_field(entry, "to", where, _integer),
            susceptance=_field(entry, "susceptance", where, _finite),
        )
        for where, entry in _entries(obj, "lines")
    ]
    network = PowerNetwork(buses=buses, lines=lines)
    network.laplacian  # validates the network, naming every violation

    generator_ids = set(network.generator_ids)
    by_bus: dict[int, InverterConfig] = {}
    for where, entry in _entries(obj, "inverters"):
        bus = _field(entry, "bus", where, _integer)
        _require(bus in generator_ids, f"inverter entry references non-generator bus {bus}")
        _require(bus not in by_bus, f"duplicate inverter entry for bus {bus}")
        kwargs = {key: _finite(entry[key], f"{where}.{key}")
                  for key in ("q0", "r_r", "m_v", "delta", "nu") if entry.get(key) is not None}
        by_bus[bus] = InverterConfig(mode=_field(entry, "mode", where, _mode), **kwargs)
    inverters = tuple(
        by_bus.get(bus_id, InverterConfig.constant_power(0.0))
        for bus_id in sorted(generator_ids)
    )

    noise_by_bus: dict[int, NoiseGains] = {}
    for where, entry in _entries(obj, "noise"):
        bus = _field(entry, "bus", where, _integer)
        _require(0 <= bus < network.n_buses, f"noise entry references unknown bus {bus}")
        _require(bus not in noise_by_bus, f"duplicate noise entry for bus {bus}")
        noise_by_bus[bus] = NoiseGains(
            **{key: _field(entry, key, where, _finite, 0.0) for key in ("k1", "k2", "k3")}
        )
    noise = tuple(noise_by_bus.get(i, NoiseGains()) for i in range(network.n_buses))

    disturbances = []
    for where, entry in _entries(obj, "disturbances"):
        bus = _field(entry, "bus", where, _integer)
        _require(bus in generator_ids, f"disturbance targets non-generator bus {bus}")
        disturbances.append(Disturbance(time=_field(entry, "time", where, _finite), bus=bus,
                                        delta_p=_field(entry, "delta_p", where, _finite)))

    return NetworkDocument(
        schema_version=version,
        network=network,
        inverters=inverters,
        noise=noise,
        disturbances=tuple(disturbances),
        comment=obj.get("comment"),
    )


def parse_sweep_spec(obj: dict) -> SweepSpec:
    """Build a sweep spec from a decoded JSON object; errors name the field,
    e.g. ``axes[0].min: missing``."""
    _require(isinstance(obj, dict), "sweep spec root must be an object")
    entries = list(_entries(obj, "axes"))
    _require(1 <= len(entries) <= 2, "sweep needs one or two axes")
    axes = []
    for where, entry in entries:
        name = entry.get("name")
        _require(name in AXIS_NAMES,
                 f"{where}.name: unknown sweep axis {name!r}; expected one of {AXIS_NAMES}")
        count = _field(entry, "count", where, _integer)
        _require(count >= 2, f"{where}.count: must be >= 2")
        spacing = entry.get("spacing", "linear")
        _require(spacing in ("linear", "log"), f"{where}.spacing: must be linear or log")
        minimum, maximum = (_field(entry, key, where, _finite) for key in ("min", "max"))
        _require(spacing == "linear" or (minimum > 0 and maximum > 0),
                 f"{where}: log spacing needs positive bounds")
        axes.append(SweepAxis(name=name, minimum=minimum, maximum=maximum,
                              count=count, spacing=spacing))
    metric = obj.get("metric")
    _require(metric in ("h2", "nadir"),
             f"metric: unknown sweep metric {metric!r}; expected h2 or nadir")
    return SweepSpec(axes=tuple(axes), metric=metric)


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past int's digit limit
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


def load_document(path) -> NetworkDocument:
    return parse_document(_read_json(path))


def load_sweep_spec(path) -> SweepSpec:
    return parse_sweep_spec(_read_json(path))


def reduce_document(doc: NetworkDocument) -> ReducedSystem:
    """Kron-reduce a document's network and re-index everything to it.

    Noise on a load bus has no channel in the reduced model and is rejected.
    """
    reduced, id_map = kron_reduce_network(doc.network)
    for bus in doc.network.buses:
        _require(bus.id in id_map or doc.noise[bus.id] == NoiseGains(),
                 f"noise on load bus {bus.id} is not supported; declare it on generator buses")
    noise = tuple(doc.noise[orig] for orig in sorted(id_map, key=id_map.get))
    disturbances = tuple(
        Disturbance(time=d.time, bus=id_map[d.bus], delta_p=d.delta_p)
        for d in doc.disturbances
    )
    return ReducedSystem(
        network=reduced,
        configs=doc.inverters,
        noise=noise,
        disturbances=disturbances,
        id_map=id_map,
    )
