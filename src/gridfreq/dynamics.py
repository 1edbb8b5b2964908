"""Closed-loop LTI assembly and synchronous steady states.

States are deviations about a synchronous steady state: per-bus angle and
frequency deviations, plus one internal state per dynamic-droop inverter.
The frequency-derivative feedback of VI and IDROOP units is eliminated by
substituting the swing equation, so the model stays in explicit standard
form (no descriptor mass matrix).  This module is the one place where
inverter configs become matrices: the state equation, the noise and
injection inputs, and the inverter-power output; modal subsystems are the
same loop on a stack of one-bus networks.  Public functions gate their fleet
once and private cores take the result.  Assembly and the steady state read
the cached Laplacian; a model keeps its gated fleet, solves its reference
steady state from it on first read, and is what analysis reads a fleet from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .control import PARAMETERS, InverterMode, _fleet
from .errors import NumericalError, ValidationError
from .network import PowerNetwork

__all__ = [
    "StateSpaceModel",
    "SteadyState",
    "assemble_closed_loop",
    "steady_state",
]


@dataclass(frozen=True)
class SteadyState:
    """Synchronous steady state of a fleet.

    theta_star is pinned so bus 0 sits at angle zero (the network only fixes
    angles up to a uniform shift).  x_star holds the dynamic-droop internal
    states (one per IDROOP bus, equal to -omega0/r_r).  The delta_q fields
    use the balance convention of the allocation problem: they are the power
    each resource absorbs from the imbalance
    delta_P = sum(p_in + q0) - sum(D_i * omega0), so
    delta_q_g_star = omega0 / r_g and sum(delta_q) = delta_P.  Note this is
    the negative of the change in injected power.
    """

    omega0: float
    theta_star: np.ndarray
    q_r_star: np.ndarray
    x_star: np.ndarray
    delta_q_g_star: np.ndarray
    delta_q_r_star: np.ndarray


@dataclass(frozen=True)
class StateSpaceModel:
    """Closed-loop model dz = A z dt + B w dt + F u dt, y = C z.

    z stacks (theta deviations, frequency deviations, idroop states); w
    stacks the three per-bus noise channels (w1 injection, w2 frequency
    measurement, w3 frequency-derivative measurement) and u is a per-bus
    power-injection disturbance.  The inverter-power deviation is
    q_r_dev = power @ z + power_injection @ u.  ``fleet`` is the gated fleet
    the model was built from; its noise gains are already in b.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    injection: np.ndarray
    power: np.ndarray
    power_injection: np.ndarray
    fleet: tuple
    network: PowerNetwork

    @cached_property
    def reference(self) -> SteadyState:
        """The steady state of ``network`` under ``fleet`` that the
        deviations are taken about, solved on first read."""
        return _steady_state(self.network, self.fleet)

    @property
    def n_buses(self) -> int:
        return self.network.n_buses

    @property
    def idroop_buses(self) -> tuple[int, ...]:
        """The IDROOP buses, in the order of their internal states."""
        return tuple(i for i, c in enumerate(self.fleet[0]) if c.mode is InverterMode.IDROOP)

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def b_w1(self) -> np.ndarray:
        return self.b[:, : self.n_buses]

    @property
    def b_w2(self) -> np.ndarray:
        return self.b[:, self.n_buses : 2 * self.n_buses]

    @property
    def b_w3(self) -> np.ndarray:
        return self.b[:, 2 * self.n_buses :]

    @property
    def derivative_noise_present(self) -> bool:
        """True when a bus couples k3 through a VI or IDROOP gain: w3 is then
        the derivative of w2 and the plain Gramian norm does not apply."""
        return bool(np.any(self.b_w3))

    @property
    def rotation_null_vector(self) -> np.ndarray:
        """Unit vector of the uniform-angle mode, always in the null space of A."""
        return _rotation_null_vector(self.n_buses, self.n_states)


def steady_state(network: PowerNetwork, configs) -> SteadyState:
    """Full synchronous steady state (frequency, angles, inverter outputs).
    omega0 is the net injection, setpoints q0 included, over the load damping
    plus every governor slope and droop-active inverter's 1/r_r (IDROOP too).
    Either sum past the float range is a ValidationError; angles past it,
    from injections too large for the lines that carry them, a NumericalError."""
    return _steady_state(network, _fleet(network.buses, configs))


def _steady_state(network: PowerNetwork, fleet) -> SteadyState:
    configs, _, _, d, rg_inv = fleet
    with np.errstate(over="ignore"):  # a sum past the float range is named below
        numerator = float(network.injections().sum() + sum(c.q0 for c in configs))
        denominator = float((d + rg_inv).sum())
    denominator += sum(1.0 / c.r_r for c in configs if c.droop_active)
    if not math.isfinite(numerator):
        raise ValidationError("bus injections and inverter setpoints q0 sum to a non-finite "
                              "net injection")
    if not math.isfinite(denominator):
        raise ValidationError("damping and droop slopes sum to a non-finite total damping")
    if denominator <= 0.0:
        raise ValidationError("zero total damping: no frequency-responsive element")
    omega0 = numerator / denominator
    rr_inv = np.array([1.0 / c.r_r if c.droop_active else 0.0 for c in configs])
    q0 = np.array([c.q0 for c in configs])

    q_r_star = q0 - rr_inv * omega0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite angles are named below
        rhs = network.injections() + q_r_star - (d + rg_inv) * omega0
        theta, *_ = np.linalg.lstsq(network.laplacian, rhs, rcond=None)
        theta = theta - theta[0]
    if not np.isfinite(theta).all():
        raise NumericalError("steady-state angles are not finite")

    x_star = np.array([-omega0 / c.r_r for c in configs if c.mode is InverterMode.IDROOP])
    return SteadyState(
        omega0=omega0,
        theta_star=theta,
        q_r_star=q_r_star,
        x_star=x_star,
        delta_q_g_star=omega0 * rg_inv,
        delta_q_r_star=omega0 * rr_inv,
    )


def _parameters(configs) -> dict[str, np.ndarray]:
    """Each of a fleet's PARAMETERS as a stack of one point, shape (1, n): the
    configs' own values, 0.0 where a config has none (sweeps write into it)."""
    return {name: np.array([[getattr(c, name) or 0.0 for c in configs]], dtype=float)
            for name in PARAMETERS}


def _diag(v: np.ndarray) -> np.ndarray:
    """np.diag of every vector along the last axis of a stack."""
    out = np.zeros(v.shape + v.shape[-1:])
    i = np.arange(v.shape[-1])
    out[..., i, i] = v
    return out


@np.errstate(over="ignore", invalid="ignore")
def _loop_matrices(laplacian, inertia, damping, modes, params, noise) -> dict:
    """A, B, C, F and the inverter-power output of a stack of closed loops.

    ``modes`` holds each bus's inverter mode and ``params`` maps each of
    :data:`PARAMETERS` to an array of shape (P, n): P points that share the
    modes and the noise, and the network unless ``laplacian`` is a
    (P, n, n) stack too.  Every returned matrix carries the same leading
    point axis.  ``damping`` is each bus's load damping plus its governor
    slope 1/r_g.  The deviation of the commanded inverter power is
    q_r_dev = power @ z + power_injection @ u: -omega/r_r for DC, that less
    m_v*omega_dot for VI (omega_dot read off the swing rows of A and F), the
    internal state x for IDROOP and zero for CP.  The keys are the matching
    :class:`StateSpaceModel` fields.  An entry that overflows (a huge
    susceptance over a tiny inertia) comes out non-finite without a warning;
    the Lyapunov solve and the march's divergence scan report it.
    """
    n = laplacian.shape[-1]
    r_r, m_v = params["r_r"], params["m_v"]
    lead = r_r.shape[:-1]
    static = np.array([mode in (InverterMode.DC, InverterMode.VI) for mode in modes], dtype=bool)
    static_rr_inv = np.divide(1.0, r_r, out=np.zeros(r_r.shape), where=static)
    m_hat = inertia + m_v
    d_hat = damping + static_rr_inv

    ids = np.array([i for i, mode in enumerate(modes) if mode is InverterMode.IDROOP], dtype=int)
    delta, nu = params["delta"][..., ids], params["nu"][..., ids]
    rr_inv_id = 1.0 / r_r[..., ids]
    m_id = m_hat[..., ids]
    k1, k2, k3 = (np.array([getattr(g, k) for g in noise]) for k in ("k1", "k2", "k3"))

    dim = 2 * n + ids.size
    w = slice(n, 2 * n)
    xs = 2 * n + np.arange(ids.size)
    a = np.zeros(lead + (dim, dim))
    a[..., :n, w] = np.eye(n)
    a[..., w, :n] = -laplacian / m_hat[..., :, None]
    a[..., w, w] = -_diag(d_hat / m_hat)
    a[..., n + ids, xs] = 1.0 / m_id
    # x_dot = -delta*(omega/r_r + x) - nu*omega_dot, with omega_dot
    # replaced by the swing equation of the inverter's bus.
    a[..., xs, :n] = nu[..., :, None] * laplacian[..., ids, :] / m_id[..., :, None]
    a[..., xs, n + ids] = -delta * rr_inv_id + nu * d_hat[..., ids] / m_id
    a[..., xs, xs] = -delta - nu / m_id

    injection = np.zeros(lead + (dim, n))
    injection[..., w, :] = _diag(1.0 / m_hat)
    injection[..., xs, ids] = -nu / m_id

    b = np.zeros(lead + (dim, 3 * n))
    b[..., :n] = injection * k1
    b[..., w, n : 2 * n] = _diag(-static_rr_inv * k2 / m_hat)
    b[..., w, 2 * n :] = _diag(-m_v * k3 / m_hat)
    b[..., xs, n + ids] = -delta * k2[ids] * rr_inv_id
    b[..., xs, 2 * n + ids] = -nu * k3[ids]

    c = np.zeros(lead + (n, dim))
    c[..., w] = np.eye(n)

    power = -m_v[..., :, None] * a[..., w, :]
    power[..., w] -= _diag(static_rr_inv)
    power[..., ids, xs] = 1.0
    return dict(a=a, b=b, c=c, injection=injection, power=power,
                power_injection=-m_v[..., :, None] * injection[..., w, :])


def _rotation_null_vector(n: int, dim: int) -> np.ndarray:
    v = np.zeros(dim)
    v[:n] = 1.0 / np.sqrt(n)
    return v


def assemble_closed_loop(network: PowerNetwork, configs,
                         noise=None) -> StateSpaceModel:
    """Build the deviation-coordinate closed loop for an arbitrary fleet mix.

    VI units fold their derivative feedback into an effective inertia
    m + m_v; IDROOP units contribute one extra state each, with the swing
    equation substituted into the state equation to eliminate the frequency
    derivative.  That substitution also routes the injection noise w1 into
    the IDROOP states (scaled by -nu/m), which is exactly how the controller
    sees the true frequency derivative.
    """
    return _assemble_closed_loop(network, _fleet(network.buses, configs, noise))


def _assemble_closed_loop(network: PowerNetwork, fleet) -> StateSpaceModel:
    configs, noise, m, d, rg_inv = fleet
    loop = _loop_matrices(network.laplacian, m, d + rg_inv, [c.mode for c in configs],
                          _parameters(configs), noise)
    return StateSpaceModel(
        **{key: value[0] for key, value in loop.items()},
        fleet=fleet,
        network=network,
    )
