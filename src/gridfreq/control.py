"""Inverter configurations and the decentralized stability test.

Four operating modes are supported: constant power (CP), proportional droop
(DC), virtual inertia (VI, droop plus a frequency-derivative term), and the
dynamic droop law (IDROOP) whose internal first-order state filters both the
frequency and its derivative before they reach the grid.  The laws
themselves are written down once, as matrices, in :mod:`gridfreq.dynamics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import ValidationError

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


class InverterMode(str, Enum):
    CP = "CP"
    DC = "DC"
    VI = "VI"
    IDROOP = "IDROOP"


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
        object.__setattr__(self, "mode", InverterMode(self.mode))
        mode = self.mode
        if mode in (InverterMode.DC, InverterMode.VI, InverterMode.IDROOP):
            if self.r_r is None or self.r_r <= 0:
                raise ValidationError(f"{mode.value} inverter requires r_r > 0")
            if not math.isfinite(1.0 / self.r_r):
                raise ValidationError(f"{mode.value} inverter r_r {self.r_r} has no finite inverse")
        if mode is InverterMode.VI:
            if self.m_v is None or self.m_v < 0:
                raise ValidationError("VI inverter requires m_v >= 0")
        elif self.m_v is not None:
            raise ValidationError(f"m_v is meaningless for mode {mode.value}")
        if mode is InverterMode.IDROOP:
            if self.delta is None or self.delta <= 0:
                raise ValidationError("IDROOP inverter requires delta > 0")
            if self.nu is None or self.nu < 0:
                raise ValidationError("IDROOP inverter requires nu >= 0")
        elif self.delta is not None or self.nu is not None:
            raise ValidationError(f"delta/nu are meaningless for mode {mode.value}")

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
    k3 frequency-derivative measurement (all >= 0)."""

    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0

    def __post_init__(self):
        if self.k1 < 0 or self.k2 < 0 or self.k3 < 0:
            raise ValidationError("noise gains must be >= 0")


def uniform_fleet(n: int, mode, **params) -> list[InverterConfig]:
    """Build n identical inverter configs (convenience for tests and sweeps)."""
    cfg = InverterConfig(mode=InverterMode(mode), **params)
    return [replace(cfg) for _ in range(n)]


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
    passed: bool


def check_decentralized_stability(configs, buses) -> StabilityCertificate:
    """Evaluate the per-bus sufficient stability condition for dynamic droop.

    Buses not running IDROOP cannot violate the condition and are reported
    as vacuously passing with a note; the certificate only covers the
    IDROOP part of a mixed fleet.
    """
    rows = []
    for bus, cfg in zip(buses, configs):
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
        condition1 = cfg.nu / denom
        condition2 = (bus.damping + 1.0 / bus.governor_droop) + cfg.nu * rr_inv / (cfg.nu + rr_inv)
        passed = condition1 > 0.0 and condition2 > 0.0
        note = ""
        if abs(condition1) < MARGINAL_TOL or abs(condition2) < MARGINAL_TOL:
            note = "marginal: a condition value is indistinguishable from zero"
            passed = False
        rows.append(
            StabilityCondition(
                bus=bus.id, applies=True, condition1=condition1,
                condition2=condition2, t_value=1.0 / denom, passed=passed, note=note,
            )
        )
    return StabilityCertificate(conditions=tuple(rows), passed=all(r.passed for r in rows))

