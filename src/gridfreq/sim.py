"""Time-domain integration of the closed loop and trajectory metrics.

Deterministic runs integrate the linear deviation dynamics with classical
fourth-order Runge-Kutta steps; because the system is linear and inputs are
frozen over each step, the whole update collapses into two precomputed
matrices, z+ = phi @ z + psi @ u.  The inputs enter as one drive psi @ u
computed before the march, so each step is z+ = phi @ z + drive[k].  The
step is taken in place: one BLAS matrix-vector product writes phi @ z into
the next row of the state array (``phi.dot(z, out=row)``) and drive[k] is
added into that row, so a step allocates no temporaries and copies nothing.
It is the same product and the same sum, in the same order, so the states
are bit for bit those of the plain recurrence.  A run that overflows is
caught by one scan for non-finite values after the march.

Stochastic runs add Euler-Maruyama noise increments into the same drive,
in place: Gaussian increments of variance dt per channel for w1 and w2,
and the difference quotient of the same w2 path for the derivative channel
w3 (the only discrete reading consistent with w3 = d/dt w2).  The variance
injected through w3 grows like 1/dt; that is the mechanism behind the
unbounded norm of derivative feedback and is deliberately not suppressed.

The inverter-power trace is the model's output q_r_dev = power @ z +
power_injection @ u, so the control laws are encoded in dynamics only.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import StateSpaceModel, SteadyState
from .errors import InjectionOverflow, NumericalError, SimulationDiverged, ValidationError

__all__ = [
    "Disturbance",
    "Metrics",
    "SimConfig",
    "Trajectory",
    "compute_metrics",
    "simulate_deterministic",
    "simulate_stochastic",
]


@dataclass(frozen=True)
class Disturbance:
    """Step change of the power injection at one bus, applied from the first
    grid point at or after ``time`` (no event-time interpolation)."""

    time: float
    bus: int
    delta_p: float


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    horizon: float = 30.0
    disturbances: tuple[Disturbance, ...] = field(default_factory=tuple)
    seed: int | None = None
    noise_enabled: bool = False

    def __post_init__(self):
        object.__setattr__(self, "disturbances", tuple(self.disturbances))
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt must be finite and > 0, got {self.dt}")
        if not (np.isfinite(self.horizon) and self.horizon >= self.dt):
            raise ValidationError(f"horizon must be finite and at least dt, got {self.horizon}")
        if self.seed is not None and self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        for dist in self.disturbances:
            if not 0.0 <= dist.time <= self.horizon:
                raise ValidationError(
                    f"disturbance at t={dist.time} outside [0, {self.horizon}]"
                )


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled deviation traces.

    theta_dev/omega_dev/q_r_dev are relative to the pre-disturbance steady
    state; x holds the absolute dynamic-droop states (columns follow
    ``idroop_buses``).
    """

    times: np.ndarray
    theta_dev: np.ndarray
    omega_dev: np.ndarray
    q_r_dev: np.ndarray
    x: np.ndarray
    idroop_buses: tuple[int, ...]
    states: np.ndarray
    base_omega0: float


@dataclass(frozen=True)
class Metrics:
    """nadir: signed extremal frequency deviation; settling_frequency: mean
    deviation over the final 10% of the horizon; peak_inverter_power: max
    |q_r deviation|; empirical_output_variance: time average of sum(dw_i^2)
    over the final 50% (the stationary-variance estimator)."""

    nadir: float
    settling_frequency: float
    peak_inverter_power: float
    empirical_output_variance: float


def _rk4_propagators(a: np.ndarray, injection: np.ndarray, dt: float):
    """Exact per-step maps of classical RK4 applied to dz = (A z + F u) dt
    with u frozen over the step: z+ = phi @ z + psi @ u."""
    dim = a.shape[0]
    ident = np.eye(dim)
    a1 = a * dt
    a2 = a1 @ a1
    a3 = a2 @ a1
    a4 = a3 @ a1
    phi = ident + a1 + a2 / 2.0 + a3 / 6.0 + a4 / 24.0
    psi = (ident * dt + a1 * dt / 2.0 + a2 * dt / 6.0 + a3 * dt / 24.0) @ injection
    return phi, psi


def _input_schedule(config: SimConfig, n_buses: int, times: np.ndarray) -> np.ndarray:
    """Per-sample injection vector; events snap to the first grid point at or
    after their nominal time."""
    u = np.zeros((times.size, n_buses))
    for dist in config.disturbances:
        if not 0 <= dist.bus < n_buses:
            raise ValidationError(f"disturbance bus {dist.bus} out of range")
        start = int(np.ceil(dist.time / config.dt - 1e-9))
        with np.errstate(over="ignore", invalid="ignore"):
            u[start:, dist.bus] += dist.delta_p
    finite = np.isfinite(u).all(axis=0)
    if not finite.all():
        raise InjectionOverflow(int(finite.argmin()))
    return u


def _extract_trajectory(model: StateSpaceModel, times, states, u) -> Trajectory:
    n = model.n_buses
    x_dev = states[:, 2 * n :]
    q_r = states @ model.power.T + u @ model.power_injection.T
    x_abs = x_dev + model.reference.x_star[None, :] if x_dev.shape[1] else x_dev
    return Trajectory(
        times=times,
        theta_dev=states[:, :n],
        omega_dev=states[:, n : 2 * n],
        q_r_dev=q_r,
        x=x_abs,
        idroop_buses=model.idroop_buses,
        states=states,
        base_omega0=model.reference.omega0,
    )


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _step_count(model: StateSpaceModel, config: SimConfig) -> int:
    """Steps of a run, rejecting runs that need more bytes at their peak than
    the machine's physical memory before anything run-length is allocated.

    Per step, the peak holds two state-sized and four bus-sized rows: a
    stochastic run's noise draws and increments, or the states, drive,
    inputs and power trace.  For a 500 s stochastic run of the bundled
    iDroop document that is 40.0 MB; tracemalloc read 40.8 MB, against
    12 MB of states.
    """
    n_steps = config.horizon / config.dt  # a float: inf past the float range
    size = (n_steps + 1) * (2 * model.n_states + 4 * model.n_buses) * 8
    memory = _physical_memory()
    if size > memory:
        raise ValidationError(
            f"{n_steps:.3g} steps (horizon / dt) need {size:.3g} bytes at the run's peak, "
            f"more than the {memory:.3g} bytes of physical memory"
        )
    return round(n_steps)


def _march(model, config, initial_state, noise_increments=None) -> Trajectory:
    n_steps = _step_count(model, config)
    times = np.arange(n_steps + 1) * config.dt
    u = _input_schedule(config, model.n_buses, times)

    dim = model.n_states
    z = np.zeros(dim) if initial_state is None else np.asarray(initial_state, dtype=float).copy()
    if z.shape != (dim,) or not np.all(np.isfinite(z)):
        raise ValidationError(f"initial state must be a finite vector of shape ({dim},)")
    with np.errstate(over="ignore", invalid="ignore"):
        phi, psi = _rk4_propagators(model.a, model.injection, config.dt)
        drive = u[:-1] @ psi.T
        if noise_increments is not None:
            drive = np.add(noise_increments, drive, out=noise_increments)
        states = np.empty((n_steps + 1, dim))
        states[0] = z
        for row, d in zip(states[1:], drive):
            phi.dot(z, out=row)
            row += d
            z = row
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        k = int(finite.argmin())  # first non-finite sample; k >= 1
        raise SimulationDiverged(
            f"simulation diverged at t={times[k]:.6g}", float(times[k - 1]), states[k - 1].copy()
        )
    return _extract_trajectory(model, times, states, u)


def simulate_deterministic(model: StateSpaceModel, config: SimConfig,
                           initial_state=None) -> Trajectory:
    """Integrate the noise-free closed loop under scheduled injection steps."""
    if config.noise_enabled:
        raise ValidationError("deterministic run requires noise_enabled=False")
    return _march(model, config, initial_state)


def simulate_stochastic(model: StateSpaceModel, config: SimConfig,
                        initial_state=None) -> Trajectory:
    """Integrate the closed loop driven by unit-intensity white noise.

    Requires a seed; identical (seed, config) pairs reproduce the trajectory
    exactly.  The w3 channel is driven by (dW2_k - dW2_{k-1}), the difference
    quotient of the same w2 sample path, times its per-step weight.
    """
    if not config.noise_enabled:
        raise ValidationError("stochastic run requires noise_enabled=True")
    if config.seed is None:
        raise ValidationError("stochastic run requires a seed")
    n_steps = _step_count(model, config)
    n = model.n_buses
    rng = np.random.default_rng(config.seed)
    scale = np.sqrt(config.dt)
    dw1 = rng.standard_normal((n_steps, n)) * scale
    dw2 = rng.standard_normal((n_steps, n)) * scale
    dw3 = np.diff(dw2, axis=0, prepend=0.0)
    increments = dw1 @ model.b_w1.T + dw2 @ model.b_w2.T + (dw3 / config.dt) @ model.b_w3.T
    del dw1, dw2, dw3  # free them before the march holds the drive and the states
    return _march(model, config, initial_state, noise_increments=increments)


def compute_metrics(trajectory: Trajectory, steady: SteadyState | None = None) -> Metrics:
    """Summarize a trajectory.

    The nadir is the frequency excursion in the direction of the disturbance
    (the post-event steady state, when supplied, fixes that direction;
    otherwise the settling mean does).
    """
    omega = trajectory.omega_dev
    n_samples = omega.shape[0]
    tail10 = omega[int(np.floor(0.9 * n_samples)) :]
    tail50 = omega[n_samples // 2 :]
    with np.errstate(over="ignore", invalid="ignore"):  # the sums may overflow; named below
        settling = float(tail10.mean()) if tail10.size else 0.0
        variance = float((tail50**2).sum(axis=1).mean()) if tail50.size else 0.0

    if steady is not None:
        direction = steady.omega0 - trajectory.base_omega0
    else:
        direction = settling
    if direction < 0:
        nadir = float(omega.min())
    elif direction > 0:
        nadir = float(omega.max())
    else:
        flat = omega.reshape(-1)
        nadir = float(flat[np.argmax(np.abs(flat))]) if flat.size else 0.0

    peak = float(np.abs(trajectory.q_r_dev).max()) if trajectory.q_r_dev.size else 0.0
    metrics = Metrics(
        nadir=nadir,
        settling_frequency=settling,
        peak_inverter_power=peak,
        empirical_output_variance=variance,
    )
    for name, value in asdict(metrics).items():
        if not np.isfinite(value):
            raise NumericalError(f"metric {name} is not finite ({value}); the run overflows it")
    return metrics
