"""Reference solvers for the tests, independent of gridfreq's own code paths.

The H2 references are meant for small systems (up to about 30 states): the
Kronecker solve builds a dense d^2 x d^2 system, and the quadrature solves
one d x d complex system per grid frequency.  The reference march is the
per-step time-domain loop that gridfreq's precomputed-drive march replaced.
"""

import numpy as np

from gridfreq import SimulationDiverged
from gridfreq.sim import _rk4_propagators


def kronecker_lyapunov(a, q):
    """Solve A^T X + X A + Q = 0 as the vectorized system
    (A^T kron I + I kron A^T) vec(X) = -vec(Q)."""
    d = a.shape[0]
    ident = np.eye(d)
    system = np.kron(a.T, ident) + np.kron(ident, a.T)
    x = np.linalg.solve(system, -q.reshape(-1)).reshape(d, d)
    return 0.5 * (x + x.T)


def effective_system(model):
    """(A, B_eff, C) of a closed-loop model with the uniform-angle mode
    projected out and w3 = s*w2 folded into B_eff = [B1 | B2 + A B3]."""
    d = model.n_states
    basis, _ = np.linalg.qr(np.column_stack([model.rotation_null_vector, np.eye(d)]))
    w = basis[:, 1:]  # orthonormal complement of the uniform-angle direction
    a, b, c = w.T @ model.a @ w, w.T @ model.b, model.c @ w
    n = model.n_buses
    return a, np.hstack([b[:, :n], b[:, n : 2 * n] + a @ b[:, 2 * n :]]), c


def gramian_h2(a, b_eff, c):
    """trace(B_eff^T X B_eff) with X from the Kronecker solve."""
    x = kronecker_lyapunov(a, c.T @ c)
    return float(np.trace(b_eff.T @ x @ b_eff))


def quadrature_h2(a, b_eff, c):
    """(1/pi) * integral over w > 0 of ||C (iwI - A)^-1 B_eff||_F^2.

    Trapezoid rule in u = ln(w), 400 points per decade over 1e-6..1e6
    rad/s; it converges fast for an integrand smooth in u that decays at
    both ends.  A flat strip below the grid and a 1/w^2 tail above it close
    the ends.
    """
    omegas = np.logspace(-6, 6, 12 * 400 + 1)
    ident = np.eye(a.shape[0])
    values = np.empty(omegas.size)
    for start in range(0, omegas.size, 500):
        w = omegas[start : start + 500]
        sol = np.linalg.solve(1j * w[:, None, None] * ident - a,
                              np.broadcast_to(b_eff, (w.size, *b_eff.shape)))
        values[start : start + 500] = np.sum(np.abs(c @ sol) ** 2, axis=(1, 2))
    body = np.trapezoid(values * omegas, np.log(omegas))
    return float(body + values[0] * omegas[0] + values[-1] * omegas[-1]) / np.pi


def noise_increments(model, config):
    """Euler-Maruyama state increments of a seeded run, built as the
    w3 difference quotient dW2_k - dW2_{k-1} written out row by row."""
    n_steps = int(round(config.horizon / config.dt))
    rng = np.random.default_rng(config.seed)
    scale = np.sqrt(config.dt)
    dw1 = rng.standard_normal((n_steps, model.n_buses)) * scale
    dw2 = rng.standard_normal((n_steps, model.n_buses)) * scale
    dw3 = np.empty_like(dw2)
    dw3[0] = dw2[0]
    dw3[1:] = dw2[1:] - dw2[:-1]
    return dw1 @ model.b_w1.T + dw2 @ model.b_w2.T + (dw3 / config.dt) @ model.b_w3.T


def reference_march(model, config, initial_state=None, increments=None):
    """States of a run stepped one sample at a time: phi @ z + psi @ u[k],
    then the noise increment, then a finiteness test of the new state.

    Raises SimulationDiverged at the first non-finite state, carrying the
    last finite time and state.
    """
    n_steps = int(round(config.horizon / config.dt))
    times = np.arange(n_steps + 1) * config.dt
    u = np.zeros((n_steps + 1, model.n_buses))
    for dist in config.disturbances:
        u[int(np.ceil(dist.time / config.dt - 1e-9)):, dist.bus] += dist.delta_p
    phi, psi = _rk4_propagators(model.a, model.injection, config.dt)
    z = np.zeros(model.n_states) if initial_state is None else np.array(initial_state, float)
    states = np.empty((n_steps + 1, model.n_states))
    states[0] = z
    for k in range(n_steps):
        z = phi @ z + psi @ u[k]
        if increments is not None:
            z = z + increments[k]
        if not np.all(np.isfinite(z)):
            raise SimulationDiverged(
                f"simulation diverged at t={times[k + 1]:.6g}", float(times[k]), states[k].copy()
            )
        states[k + 1] = z
    return states
