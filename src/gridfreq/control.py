"""Inverter configurations and the decentralized stability test.

Four operating modes are supported: constant power (CP), proportional droop
(DC), virtual inertia (VI, droop plus a frequency-derivative term), and the
dynamic droop law (IDROOP) whose internal first-order state filters both the
frequency and its derivative before they reach the grid.  The laws
themselves are written down once, as matrices, in :mod:`gridfreq.dynamics`.
Every public function that takes a fleet, one inverter config and one set of
noise gains per bus, checks it once through :func:`_fleet`, which names an
invalid bus as the network's own validation does; private cores take its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import NumericalError, ValidationError, _is_finite, _records, _require
from .network import Bus, _bus_violations

__all__ = [
    "InverterMode",
    "InverterConfig",
    "NoiseGains",
    "StabilityCondition",
    "StabilityCertificate",
    "check_decentralized_stability",
    "uniform_fleet",
]

# Condition values closer to zero than this are flagged "marginal"; the
# certificate requires strict positivity, so they fail either way.
MARGINAL_TOL = 1e-12


# Every per-bus parameter some inverter law reads, in the order sweep errors list them
PARAMETERS = ("delta", "nu", "r_r", "m_v")


class InverterMode(str, Enum):
    CP = "CP"
    DC = "DC"
    VI = "VI"
    IDROOP = "IDROOP"

    @property
    def parameters(self) -> tuple[str, ...]:
        """The parameters this mode's law reads."""
        return {"CP": (), "DC": ("r_r",), "VI": ("r_r", "m_v"),
                "IDROOP": ("r_r", "delta", "nu")}[self.value]


def _mode(value, field: str | None = None) -> InverterMode:
    try:
        return InverterMode(value)
    except ValueError:
        where = f"{field}: unknown mode" if field else "unknown inverter mode"
        raise ValidationError(f"{where} {value!r}; expected one of "
                              f"{[m.value for m in InverterMode]}") from None


@dataclass(frozen=True)
class InverterConfig:
    """Per-bus inverter mode and parameters.

    q0 is the power setpoint (pu).  r_r is the inverter droop (rad/s per pu,
    used by DC/VI/IDROOP).  m_v is the virtual inertia (s^2*pu, VI only).
    delta (1/s) and nu (s^2*pu) are the dynamic-droop filter gains (IDROOP
    only); nu weights the frequency-derivative input but, being filtered, is
    not itself an inertia.
    """

    mode: InverterMode
    q0: float = 0.0
    r_r: float | None = None
    m_v: float | None = None
    delta: float | None = None
    nu: float | None = None

    def __post_init__(self):
        mode = _mode(self.mode)
        object.__setattr__(self, "mode", mode)
        for name in ("q0", *PARAMETERS):  # q0 is required, the rest may be None
            value = getattr(self, name)
            if (value is not None or name == "q0") and not _is_finite(value):
                raise ValidationError(f"{mode.value} inverter {name} must be finite, got {value}")
        read = mode.parameters
        for name in read:  # r_r and delta must be > 0, m_v and nu >= 0
            value, strict = getattr(self, name), name in ("r_r", "delta")
            if value is None or not (value > 0 if strict else value >= 0):
                raise ValidationError(f"{mode.value} inverter requires {name} "
                                      f"{'>' if strict else '>='} 0")
            if name == "r_r" and not math.isfinite(1.0 / value):
                raise ValidationError(f"{mode.value} inverter r_r {value} has no finite inverse")
        for name in ("delta", "nu", "m_v"):  # a CP unit may carry an r_r that no law reads
            if name not in read and getattr(self, name) is not None:
                raise ValidationError(f"{name} is meaningless for mode {mode.value}")

    @classmethod
    def constant_power(cls, q0=0.0):
        return cls(mode=InverterMode.CP, q0=q0)

    @classmethod
    def droop(cls, q0=0.0, r_r=15.0):
        return cls(mode=InverterMode.DC, q0=q0, r_r=r_r)

    @classmethod
    def virtual_inertia(cls, q0=0.0, r_r=15.0, m_v=0.15):
        return cls(mode=InverterMode.VI, q0=q0, r_r=r_r, m_v=m_v)

    @classmethod
    def idroop(cls, q0=0.0, r_r=15.0, delta=6.0, nu=0.9):
        return cls(mode=InverterMode.IDROOP, q0=q0, r_r=r_r, delta=delta, nu=nu)

    @property
    def droop_active(self) -> bool:
        """True when the steady-state output responds to frequency (1/r_r)."""
        return self.mode is not InverterMode.CP


@dataclass(frozen=True)
class NoiseGains:
    """Per-bus noise intensities: k1 injection, k2 frequency measurement,
    k3 frequency-derivative measurement (all finite and >= 0)."""

    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0

    def __post_init__(self):
        for name in ("k1", "k2", "k3"):
            value = getattr(self, name)
            if not (_is_finite(value) and value >= 0):
                raise ValidationError(f"noise gain {name} must be finite and >= 0, got {value}")


def uniform_fleet(n: int, mode, **params) -> list[InverterConfig]:
    """Build n identical inverter configs, for tests and examples; no sweep uses it."""
    cfg = InverterConfig(mode=mode, **params)
    return [replace(cfg) for _ in range(n)]


def _fleet(buses, configs, noise=None):
    """A fleet's configs and noise gains as tuples (no noise is zero gains) and
    its buses' inertia, damping and 1/r_g as arrays, read once a public call.
    Configs, buses and noise must be records of their kind, every bus a
    generator that keeps the network's bus rules, one of each per bus."""
    configs = _records(configs, InverterConfig, "configs")
    buses = _records(buses, Bus, "buses")
    _require(all(b.is_generator for b in buses), "dynamic analysis requires an "
             "all-generator network; Kron-reduce load buses first")
    violations = [v for bus in buses for v in _bus_violations(bus)]
    _require(not violations, "invalid network: " + "; ".join(violations))
    _require(len(configs) == len(buses), "need one inverter config per bus: "
             f"{len(configs)} configs for {len(buses)} buses")
    noise = _records((NoiseGains(),) * len(buses) if noise is None else noise, NoiseGains, "noise")
    _require(len(noise) == len(buses), f"need one NoiseGains per bus, got {len(noise)}")
    return (configs, noise, np.array([b.inertia for b in buses], dtype=float),
            np.array([b.damping for b in buses], dtype=float),
            1.0 / np.array([b.governor_droop for b in buses], dtype=float))


@dataclass(frozen=True)
class StabilityCondition:
    """Stability test for one bus.

    condition1 = nu / (delta*(nu + 1/r_r)) and condition2 =
    (D + 1/r_g) + nu*(1/r_r)/(nu + 1/r_r) must both be strictly positive.
    t_value is the matching diagonal weight of the Lyapunov cross term,
    1/(delta*(nu + 1/r_r)).
    """

    bus: int
    applies: bool
    condition1: float | None
    condition2: float | None
    t_value: float | None
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class StabilityCertificate:
    conditions: tuple[StabilityCondition, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)


def check_decentralized_stability(configs, buses) -> StabilityCertificate:
    """Evaluate the per-bus sufficient stability condition for dynamic droop.

    Buses not running IDROOP cannot violate the condition and are reported
    as vacuously passing with a note; the certificate only covers the
    IDROOP part of a mixed fleet.  A unit whose values overflow raises NumericalError.
    """
    configs, _, _, damping, rg_inv = _fleet(buses, configs)
    rows = []
    for bus, cfg, d in zip(buses, configs, (damping + rg_inv).tolist()):
        if cfg.mode is not InverterMode.IDROOP:
            rows.append(
                StabilityCondition(
                    bus=bus.id, applies=False, condition1=None, condition2=None,
                    t_value=None, passed=True,
                    note=f"not IDROOP ({cfg.mode.value}); condition does not apply",
                )
            )
            continue
        rr_inv = 1.0 / cfg.r_r
        denom = cfg.delta * (cfg.nu + rr_inv)
        unit = f"IDROOP inverter with r_r {cfg.r_r}, delta {cfg.delta}, nu {cfg.nu}"
        if denom == 0.0:
            raise NumericalError(f"{unit}: delta * (nu + 1/r_r) = 0.0 has no finite inverse")
        condition1 = cfg.nu / denom
        condition2 = d + cfg.nu * rr_inv / (cfg.nu + rr_inv)
        t_value = 1.0 / denom
        for name, value in (("condition1", condition1), ("condition2", condition2),
                            ("t_value", t_value)):
            if not math.isfinite(value):
                raise NumericalError(f"{unit}: stability {name} is not finite ({value})")
        passed = condition1 > 0.0 and condition2 > 0.0
        note = ""
        if abs(condition1) < MARGINAL_TOL or abs(condition2) < MARGINAL_TOL:
            note = "marginal: a condition value is indistinguishable from zero"
            passed = False
        rows.append(
            StabilityCondition(
                bus=bus.id, applies=True, condition1=condition1,
                condition2=condition2, t_value=t_value, passed=passed, note=note,
            )
        )
    return StabilityCertificate(conditions=tuple(rows))

