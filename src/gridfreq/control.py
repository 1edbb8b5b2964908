"""Inverter control laws, the decentralized stability test, and Lyapunov diagnostics.

Four operating modes are supported: constant power (CP), proportional droop
(DC), virtual inertia (VI, droop plus a frequency-derivative term), and the
dynamic droop law (IDROOP) whose internal first-order state filters both the
frequency and its derivative before they reach the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ValidationError
from .network import PowerNetwork

__all__ = [
    "InverterMode",
    "InverterConfig",
    "NoiseGains",
    "StabilityCondition",
    "StabilityCertificate",
    "check_decentralized_stability",
    "idroop_step",
    "inverter_power",
    "lyapunov_diagnostics",
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


def inverter_power(config: InverterConfig, omega: float, omega_dot: float = 0.0,
                   x: float | None = None) -> float:
    """Commanded inverter power for one bus.

    CP holds the setpoint; DC subtracts omega/r_r; VI additionally subtracts
    m_v*omega_dot; IDROOP outputs q0 plus its internal state x (which must be
    supplied by the caller).
    """
    mode = config.mode
    if mode is InverterMode.CP:
        return config.q0
    if mode is InverterMode.DC:
        return config.q0 - omega / config.r_r
    if mode is InverterMode.VI:
        return config.q0 - omega / config.r_r - config.m_v * omega_dot
    if x is None:
        raise ValidationError("IDROOP inverter power needs the internal state x")
    return config.q0 + x


def idroop_step(config: InverterConfig, omega: float, omega_dot: float, x: float,
                noise: tuple[float, float] | None = None,
                gains: NoiseGains | None = None) -> float:
    """Time derivative of the dynamic-droop internal state.

    x_dot = delta*(-omega/r_r - x) - nu*omega_dot.  When ``noise`` is given as
    (w2, w2_dot) samples of the frequency-measurement noise and its derivative,
    the corresponding corruption -delta*k2*w2/r_r - nu*k3*w2_dot is included
    (``gains`` supplies k2, k3).
    """
    if config.mode is not InverterMode.IDROOP:
        raise ValidationError(f"idroop_step needs an IDROOP config, got {config.mode.value}")
    rate = config.delta * (-omega / config.r_r - x) - config.nu * omega_dot
    if noise is not None:
        if gains is None:
            raise ValidationError("noise samples supplied without their gains")
        w2, w2_dot = noise
        rate -= config.delta * gains.k2 * w2 / config.r_r
        rate -= config.nu * gains.k3 * w2_dot
    return rate


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

    def failing_buses(self) -> list[int]:
        return [c.bus for c in self.conditions if not c.passed]


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


def _idroop_arrays(configs):
    modes_ok = all(c.mode is InverterMode.IDROOP for c in configs)
    if not modes_ok:
        raise ValidationError("Lyapunov diagnostics require an all-IDROOP fleet")
    delta = np.array([c.delta for c in configs])
    nu = np.array([c.nu for c in configs])
    rr_inv = np.array([1.0 / c.r_r for c in configs])
    return delta, nu, rr_inv


def lyapunov_diagnostics(state, network: PowerNetwork, configs) -> tuple[float, float]:
    """Energy function V and its decay rate V_dot at a deviation state.

    ``state`` is (dtheta, domega, dx) about a synchronous equilibrium.  V is
    the angle-stretching energy plus kinetic energy plus a weighted norm of
    dx + nu*domega; V_dot is its derivative along the closed-loop flow.  When
    the decentralized stability test passes, V >= 0 and V_dot <= 0.
    """
    dtheta, domega, dx = (np.asarray(v, dtype=float) for v in state)
    delta, nu, rr_inv = _idroop_arrays(configs)
    m = np.array([b.inertia for b in network.buses])
    damping = np.array([b.damping + 1.0 / b.governor_droop for b in network.buses])
    lap = network.laplacian

    t_diag = 1.0 / (delta * (nu + rr_inv))
    shifted = dx + nu * domega
    v = 0.5 * (dtheta @ lap @ dtheta + domega @ (m * domega) + shifted @ (t_diag * shifted))
    # Chain rule along the closed loop with the cross term cancelled by the
    # choice of T: the x-quadratic weight is T*K_delta = 1/(nu + 1/r_r).
    # (Writing nu/(delta*(nu + 1/r_r)) here instead does not match the actual
    # derivative of V; checked against finite differences of V along the flow.)
    v_dot = -(domega @ ((damping + nu * rr_inv / (nu + rr_inv)) * domega))
    v_dot -= dx @ ((1.0 / (nu + rr_inv)) * dx)
    return float(v), float(v_dot)
