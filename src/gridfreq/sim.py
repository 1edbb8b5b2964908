"""Time-domain integration of the closed loop and trajectory metrics.

Deterministic runs integrate the linear deviation dynamics with classical
fourth-order Runge-Kutta steps; because the system is linear and inputs are
frozen over each step, the whole update collapses into two precomputed
matrices, z+ = phi @ z + psi @ u.  The state array is allocated first and
its rows 1.. hold the drive psi @ u[k] until step k writes its state over
it: phi @ z goes into one small buffer (``phi.dot(z, out=product)``) and is
added into the row, so a step allocates and copies nothing, and the states
are bit for bit those of the plain recurrence.  A run holds its states and
no other array of its length; its times and inputs are read off its
SimConfig.  The inputs u are an event table of one row per disturbance
start, expanded one block of BLOCK_STEPS rows at a time; the drive and the
noise go in the same blocks.  Each block's drive is written, its rows
marched and scanned for non-finite states before the next block starts, so
a diverging run stops within one block of the step where it diverged.

Stochastic runs add Euler-Maruyama noise increments into the same drive:
Gaussian increments of variance dt per channel for w1 and w2 (all of dW1,
then all of dW2, block by block) and the difference quotient of the same w2
path for the derivative channel w3 (the only discrete reading consistent
with w3 = d/dt w2).  The variance injected through w3 grows like 1/dt; that
is the mechanism behind the unbounded norm of derivative feedback and is
deliberately not suppressed.

The inverter-power trace is the model's output q_r_dev = power @ z +
power_injection @ u, so the control laws are encoded in dynamics only.  A
run keeps its model and its config, and derives that trace and the
dynamic-droop states from its states, block by block, whenever the metrics
or a caller reads them.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import StateSpaceModel, SteadyState
from .errors import (InjectionOverflow, NumericalError, SimulationDiverged, ValidationError,
                     _is_finite, _is_integer, _records, _require)

__all__ = [
    "Disturbance",
    "Metrics",
    "SimConfig",
    "Trajectory",
    "compute_metrics",
    "simulate_deterministic",
    "simulate_stochastic",
]

BLOCK_STEPS = 1024  # rows of a block: its temporaries stay small next to the run's states


def _blocks(n_rows: int, start: int = 0):
    """Row slices of BLOCK_STEPS rows that cover rows start..n_rows-1.  The last
    one takes the rest, up to BLOCK_STEPS + 1 rows: numpy multiplies a single
    row by another BLAS routine, which can round differently."""
    stops = [*range(start + BLOCK_STEPS, n_rows - 1, BLOCK_STEPS), n_rows]
    return [slice(a, b) for a, b in zip([start, *stops], stops)]


@dataclass(frozen=True)
class Disturbance:
    """Step change of the power injection at one bus, applied from the first
    grid point at or after ``time`` (no event-time interpolation)."""

    time: float
    bus: int
    delta_p: float

    def __post_init__(self):
        _require(_is_integer(self.bus), f"disturbance bus must be an integer, got {self.bus!r}")
        for name, value in (("time", self.time), ("delta_p", self.delta_p)):
            _require(_is_finite(value), f"disturbance {name} must be finite, got {value}")


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    horizon: float = 30.0
    disturbances: tuple[Disturbance, ...] = field(default_factory=tuple)
    seed: int | None = None
    noise_enabled: bool = False

    def __post_init__(self):
        object.__setattr__(self, "disturbances",
                           _records(self.disturbances, Disturbance, "disturbances"))
        _require(_is_finite(self.dt) and self.dt > 0, f"dt must be finite and > 0, got {self.dt}")
        _require(_is_finite(self.horizon) and self.horizon >= self.dt,
                 f"horizon must be finite and at least dt, got {self.horizon}")
        if self.seed is not None:
            _require(_is_integer(self.seed), f"seed must be an integer, got {self.seed!r}")
            _require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        for dist in self.disturbances:
            _require(0.0 <= dist.time <= self.horizon,
                     f"disturbance at t={dist.time} outside [0, {self.horizon}]")


@dataclass(frozen=True)
class Trajectory:
    """A uniformly sampled run: its states, the model that made it and the
    config it ran.  Only ``states`` spans the run.

    ``times`` and the inputs u are read off the config: row k is at k * dt,
    and u is the event table that :func:`_input_events` builds from the
    disturbances.  theta_dev/omega_dev are views of the states, relative to
    the model's reference steady state.  q_r_dev = power @ z +
    power_injection @ u and x, the absolute dynamic-droop states (columns
    follow the model's ``idroop_buses``), are computed on each read and never
    cached; :meth:`blocks` yields both one block at a time.  x solves the
    reference steady state on its first read and raises where that fails.
    """

    states: np.ndarray
    model: StateSpaceModel
    config: SimConfig

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.states)) * self.config.dt

    @property
    def theta_dev(self) -> np.ndarray:
        return self.states[:, : self.model.n_buses]

    @property
    def omega_dev(self) -> np.ndarray:
        n = self.model.n_buses
        return self.states[:, n : 2 * n]

    @property
    def q_r_dev(self) -> np.ndarray:
        whole = np.empty((len(self.states), self.model.n_buses))
        for rows, q_r, _ in self.blocks():
            whole[rows] = q_r
        return whole

    @property
    def x(self) -> np.ndarray:
        # elementwise, so bit for bit the rows of blocks(), without their power trace
        return self.states[:, 2 * self.model.n_buses :] + self.model.reference.x_star

    def blocks(self):
        """Yield (rows, q_r_dev rows, x rows) for each block of the run.  A
        block's power trace is one product of its rows, so the last block
        takes up to BLOCK_STEPS + 1 rows, as the march's do."""
        model, x_star = self.model, self.model.reference.x_star
        events = _input_events(self.config, model.n_buses)
        for rows in _blocks(len(self.states)):
            states = self.states[rows]
            with np.errstate(over="ignore", invalid="ignore"):  # overflows are named by the metrics
                q_r = _inputs(*events, rows) @ model.power_injection.T
                q_r += states @ model.power.T
                x = states[:, 2 * model.n_buses :] + x_star
            yield rows, q_r, x


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


def _grid_row(time: float, dt: float) -> float:
    """First grid row at or after ``time``, 1e-9 steps forgiven; inf past the float range."""
    return float(np.ceil(time / dt - 1e-9))


def _input_events(config: SimConfig, n_buses: int):
    """The input schedule u of a run as an event table: the ascending grid rows
    at which a disturbance starts, row 0 first, and u's value from each on,
    adding the steps in the order given as ``u[start:, bus] += delta_p`` does."""
    for dist in config.disturbances:
        if not 0 <= dist.bus < n_buses:
            raise ValidationError(f"disturbance bus {dist.bus} out of range")
    starts = [int(_grid_row(dist.time, config.dt)) for dist in config.disturbances]
    rows = np.unique([0, *starts])
    inputs = np.zeros((rows.size, n_buses))
    with np.errstate(over="ignore", invalid="ignore"):
        for dist, start in zip(config.disturbances, starts):
            inputs[np.searchsorted(rows, start) :, dist.bus] += dist.delta_p
    finite = np.isfinite(inputs).all(axis=0)
    if not finite.all():
        raise InjectionOverflow(int(finite.argmin()))
    return rows, inputs


def _inputs(event_rows: np.ndarray, event_inputs: np.ndarray, rows: slice) -> np.ndarray:
    """Rows ``rows`` of the input schedule u, expanded from its event table."""
    index = np.searchsorted(event_rows, np.arange(rows.start, rows.stop), side="right")
    index -= 1
    return event_inputs[index]


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _step_count(model: StateSpaceModel, config: SimConfig) -> int:
    """Steps of a run, rejecting runs that need more bytes at their peak than
    the machine's physical memory before anything run-length is allocated.

    A run holds d floats a step, its states; its times and its inputs, a
    table of one row per disturbance start, are read off its config.  The
    count adds one float a step for the time grid that ``times`` builds on
    each read (the CSV reads it once), and compute_metrics half a float a
    step: the row sums of omega**2 over the last half.  Every other array, in
    the march and in whatever reads the run (the power trace and the
    dynamic-droop states, the metrics, the CSV rows), spans one block, and
    one block's temporaries add at most d + 4n floats a row: tracemalloc read
    d + 3n for the noise of the bundled iDroop document.  A 500 s stochastic
    run of that document and its metrics count 13.17 MB; tracemalloc read
    12.68 MB, against 12 MB of states.
    """
    n_steps = _grid_row(config.horizon, config.dt)
    d, n = model.n_states, model.n_buses
    size = ((n_steps + 1) * (d + 1) + (n_steps + 2) / 2 + (BLOCK_STEPS + 1) * (d + 4 * n)) * 8
    memory = _physical_memory()
    if size > memory:
        raise ValidationError(
            f"{n_steps:.3g} steps (horizon / dt) need {size:.3g} bytes at the run's peak, "
            f"more than the {memory:.3g} bytes of physical memory"
        )
    return int(n_steps)


def _write_noise(model, config, drive) -> None:
    """Write each step's increment dW1 @ B1' + dW2 @ B2' + (dW3 / dt) @ B3' into
    drive, block by block, with dW3_k = dW2_k - dW2_{k-1}."""
    n = model.n_buses
    rng = np.random.default_rng(config.seed)
    scale = np.sqrt(config.dt)
    blocks = _blocks(drive.shape[0])
    for blk in blocks:  # all of dW1 first, then all of dW2, as one draw of each would take them
        dw1 = rng.standard_normal((blk.stop - blk.start, n))
        dw1 *= scale
        np.matmul(dw1, model.b_w1.T, out=drive[blk])
    previous = np.zeros((1, n))
    for blk in blocks:
        dw2 = rng.standard_normal((blk.stop - blk.start, n))
        dw2 *= scale
        dw3 = np.diff(dw2, axis=0, prepend=previous)
        previous = dw2[-1:].copy()  # a view would hold the whole block until the next one
        drive[blk] += dw2 @ model.b_w2.T
        dw3 /= config.dt
        drive[blk] += dw3 @ model.b_w3.T


def _march(model, config, initial_state) -> Trajectory:
    n_steps = _step_count(model, config)
    n, dim = model.n_buses, model.n_states
    events = _input_events(config, n)

    z = np.zeros(dim) if initial_state is None else np.asarray(initial_state, dtype=float).copy()
    if z.shape != (dim,) or not np.all(np.isfinite(z)):
        raise ValidationError(f"initial state must be a finite vector of shape ({dim},)")
    states = np.empty((n_steps + 1, dim))
    states[0] = z
    drive = states[1:]  # each row holds its step's drive until the step writes the state there
    with np.errstate(over="ignore", invalid="ignore"):
        phi, psi = _rk4_propagators(model.a, model.injection, config.dt)
        if config.noise_enabled:
            _write_noise(model, config, drive)
        product = np.empty(dim)
        for blk in _blocks(n_steps):
            if config.noise_enabled:
                drive[blk] += _inputs(*events, blk) @ psi.T
            else:
                np.matmul(_inputs(*events, blk), psi.T, out=drive[blk])
            for row in drive[blk]:
                phi.dot(z, out=product)
                np.add(product, row, out=row)
                z = row
            finite = np.isfinite(drive[blk]).all(axis=1)
            if not finite.all():
                k = blk.start + 1 + int(finite.argmin())  # first non-finite sample; k >= 1
                raise SimulationDiverged(
                    f"simulation diverged at t={k * config.dt:.6g}", float((k - 1) * config.dt),
                    states[k - 1].copy())
    return Trajectory(states, model, config)


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
    return _march(model, config, initial_state)


def compute_metrics(trajectory: Trajectory, steady: SteadyState | None = None) -> Metrics:
    """Summarize a trajectory.

    The nadir is the frequency excursion in the direction of the disturbance
    (the post-event steady state, when supplied, fixes that direction;
    otherwise the settling mean does).
    """
    omega = trajectory.omega_dev
    n_samples = omega.shape[0]
    tail10 = omega[int(np.floor(0.9 * n_samples)) :]
    half = n_samples // 2
    tail50 = omega[half:]
    with np.errstate(over="ignore", invalid="ignore"):  # the sums may overflow; named below
        settling = float(tail10.mean()) if tail10.size else 0.0
        sums = np.empty(len(tail50))  # each row's sum of omega**2, and one mean over them all
        for blk in _blocks(n_samples, half):
            (omega[blk] ** 2).sum(axis=1, out=sums[blk.start - half : blk.stop - half])
        variance = float(sums.mean()) if tail50.size else 0.0

    if steady is not None:
        direction = steady.omega0 - trajectory.model.reference.omega0
    else:
        direction = settling
    if direction < 0:
        nadir = float(omega.min())
    elif direction > 0:
        nadir = float(omega.max())
    else:  # the first largest |omega|: each block's first, then the first of those
        peaks = np.array([omega[blk].flat[np.abs(omega[blk]).argmax()]
                          for blk in _blocks(n_samples)] if omega.size else [0.0])
        nadir = float(peaks[np.abs(peaks).argmax()])

    peaks = [np.abs(q_r).max() for _, q_r, _ in trajectory.blocks() if q_r.size]
    peak = float(np.max(peaks)) if peaks else 0.0
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
