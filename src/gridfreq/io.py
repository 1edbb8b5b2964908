"""Network document and sweep-spec ingestion (versioned JSON schema).

A document carries buses, lines, per-generator inverter configs, per-bus
noise gains and optional scheduled injection steps.  Its Kron reduction is a
document too, whose buses are all generators: reduced bus k is the loaded
document's bus ``network.generator_ids[k]``.  No command writes a document,
so there is no writer here.  Documents and sweep specs share one JSON
reader, and their schema errors name the field in the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .control import InverterConfig, NoiseGains, _mode
from .errors import ValidationError, _finite, _integer, _require
from .network import Bus, Line, PowerNetwork, kron_reduce_network
from .sim import Disturbance
from .sweep import SweepAxis, SweepSpec

__all__ = [
    "NetworkDocument",
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
    """A network with one inverter config per generator bus and one noise
    gain per bus, both in id order, and disturbances named by bus id."""

    network: PowerNetwork
    configs: tuple[InverterConfig, ...]
    noise: tuple[NoiseGains, ...]
    disturbances: tuple[Disturbance, ...]
    comment: str | None = None


_REQUIRED = object()


def _field(entry: dict, key: str, where: str, convert=lambda value, field: value,
           default=_REQUIRED):
    """entry[key] through convert (as it is by default); an absent or null key
    takes the default."""
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
            kind=_field(entry, "kind", where, default="generator"),
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
    configs = tuple(by_bus.get(bus_id, InverterConfig.constant_power(0.0))
                    for bus_id in sorted(generator_ids))

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
        network=network,
        configs=configs,
        noise=noise,
        disturbances=tuple(disturbances),
        comment=obj.get("comment"),
    )


def parse_sweep_spec(obj: dict) -> SweepSpec:
    """Map a decoded JSON object onto a :class:`SweepSpec`, which checks the
    sweep's rules.  Errors name the field, e.g. ``axes[0].min: missing``."""
    _require(isinstance(obj, dict), "sweep spec root must be an object")
    axes = tuple(
        SweepAxis(name=entry.get("name"),
                  count=_field(entry, "count", where),
                  minimum=_field(entry, "min", where),
                  maximum=_field(entry, "max", where),
                  spacing=entry.get("spacing", "linear"))
        for where, entry in _entries(obj, "axes")
    )
    return SweepSpec(axes=axes, metric=obj.get("metric"))


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, or past int or depth limits
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


def load_document(path) -> NetworkDocument:
    return parse_document(_read_json(path))


def load_sweep_spec(path) -> SweepSpec:
    return parse_sweep_spec(_read_json(path))


def reduce_document(doc: NetworkDocument) -> NetworkDocument:
    """The document of doc's Kron-reduced network: its bus k is doc's bus
    ``doc.network.generator_ids[k]``, whose config and noise it keeps, and
    its disturbances are re-indexed to match.  Reducing it again returns an
    equal document.

    Noise on a load bus has no channel in the reduced model and is rejected.
    """
    reduced, id_map = kron_reduce_network(doc.network)
    for bus in doc.network.buses:
        _require(bus.id in id_map or doc.noise[bus.id] == NoiseGains(),
                 f"noise on load bus {bus.id} is not supported; declare it on generator buses")
    return NetworkDocument(
        network=reduced,
        configs=doc.configs,
        noise=tuple(doc.noise[i] for i in doc.network.generator_ids),
        disturbances=tuple(replace(d, bus=id_map[d.bus]) for d in doc.disturbances),
        comment=doc.comment,
    )
