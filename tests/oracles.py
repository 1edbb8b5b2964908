"""Reference solvers for the tests, independent of gridfreq's own code paths.

The Lyapunov references are scipy's own Bartels-Stewart wrapper and a
Kronecker solve.  The H2 references are meant for small systems (up to
about 30 states): the Kronecker solve builds a dense d^2 x d^2 system, and
the quadrature solves one d x d complex system per grid frequency.  The
reference march is the per-step time-domain loop that gridfreq's
precomputed-drive march replaced, and ``input_schedule`` writes out the
inputs it steps.  It shares the march's propagators; ``rk4_step`` takes one
step from the four Butcher stages instead, and so shares no code with them.
The reference metrics summarise a whole trajectory with whole-array
reductions, as ``compute_metrics`` did before it went block by block.  The
sweep route evaluates a sweep one point at a time through the public
per-model functions, as sweeps ran before they were stacked and before
repeated points shared one evaluation.  The component finder is a plain
breadth-first search over adjacency sets.

The rest are written out here because no command or library path needs
them.  ``h2_closed_form`` is the squared H2 norm of n identical droop or
swing buses as a scalar formula, the reference for the norms of
homogeneous fleets.  ``inverter_power`` and ``idroop_step`` are the scalar
inverter laws that ``dynamics._loop_matrices`` encodes as matrices.  ``lyapunov_diagnostics``
is the paper's iDroop energy function V and its decay rate.
``laplacian_violations`` checks the invariants of a susceptance Laplacian,
such as Kron reduction's output.  ``document_to_obj`` and ``save_document``
write a document back as JSON, for the round-trip tests.
"""

import json
from collections import deque
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import scipy.linalg

from gridfreq import (
    InverterConfig,
    InverterMode,
    Metrics,
    NetworkDocument,
    NoiseGains,
    NumericalError,
    PowerNetwork,
    SCHEMA_VERSION,
    SimulationDiverged,
    ValidationError,
    assemble_closed_loop,
    compute_metrics,
    h2_frequency_weighted,
    simulate_deterministic,
)
from gridfreq.sim import _rk4_propagators


def kronecker_lyapunov(a, q):
    """Solve A^T X + X A + Q = 0 as the vectorized system
    (A^T kron I + I kron A^T) vec(X) = -vec(Q)."""
    d = a.shape[0]
    ident = np.eye(d)
    system = np.kron(a.T, ident) + np.kron(ident, a.T)
    x = np.linalg.solve(system, -q.reshape(-1)).reshape(d, d)
    return 0.5 * (x + x.T)


def scipy_lyapunov(a, q):
    """Solve A^T X + X A + Q = 0 with scipy.linalg.solve_continuous_lyapunov,
    symmetrized."""
    x = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
    return 0.5 * (x + x.T)


def effective_system(model):
    """(A, B_eff, C) of a closed-loop model with the uniform-angle mode
    projected out and w3 = s*w2 folded into B_eff = [B1 | B2 + A B3].

    The projection onto a QR-built orthonormal complement is independent of
    gridfreq, which shifts that mode to -1 instead of removing it."""
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


def h2_closed_form(kind, n, m, d, r_g, r_r=None, k1=0.0, k2=0.0):
    """Squared H2 norm of n identical buses of inertia m, damping d and
    governor droop r_g.  kind "DC": a droop inverter on every bus,
    n*(k1^2 + (k2/r_r)^2) / (2m*(d + 1/r_g + 1/r_r)); kind "SWING": no
    inverter response (1/r_r = k2 = 0), n*k1^2 / (2m*(d + 1/r_g))."""
    if kind == "SWING":
        return n * k1 * k1 / (2.0 * m * (d + 1.0 / r_g))
    assert kind == "DC", kind
    return n * (k1 * k1 + (k2 / r_r) ** 2) / (2.0 * m * (d + 1.0 / r_g + 1.0 / r_r))


def sweep_point_route(network, configs, noise, spec, sim_config=None):
    """The rows of a sweep, one point at a time: each point's values go on
    every config that carries the parameter, and the point's own model is
    assembled and solved (h2) or simulated under ``sim_config`` (nadir)."""
    rows = []
    for point in product(*(axis.values() for axis in spec.axes)):
        swept = [replace(c, **{axis.name: float(value) for axis, value in zip(spec.axes, point)
                               if getattr(c, axis.name) is not None})
                 for c in configs]
        model = assemble_closed_loop(network, swept, noise)
        if spec.metric == "nadir":
            value = compute_metrics(simulate_deterministic(model, sim_config)).nadir
        else:
            result = h2_frequency_weighted(model)
            value = result.value if result.is_finite else float("inf")
        rows.append((float(point[0]), float(point[1]) if len(point) == 2 else None, value))
    return rows


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


def input_schedule(model, config):
    """The per-sample inputs u that reference_march steps: each disturbance
    is added over the rest of the run, in the order given."""
    u = np.zeros((int(round(config.horizon / config.dt)) + 1, model.n_buses))
    for dist in config.disturbances:
        u[int(np.ceil(dist.time / config.dt - 1e-9)):, dist.bus] += dist.delta_p
    return u


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


def rk4_step(a, injection, z, u, dt):
    """One classical RK4 step of dz = (A z + F u) dt with u frozen over the
    step, from its four stage evaluations (Butcher tableau)."""
    def rate(y):
        return a @ y + injection @ u

    k1 = rate(z)
    k2 = rate(z + dt / 2 * k1)
    k3 = rate(z + dt / 2 * k2)
    k4 = rate(z + dt * k3)
    return z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def reference_metrics(trajectory, steady=None):
    """compute_metrics from whole-array reductions: the settling mean of the
    last 10% of omega, the mean row sum of omega**2 over the last 50%, the
    extremum of omega in the disturbance's direction and the largest |q_r|."""
    omega = trajectory.omega_dev
    n_samples = omega.shape[0]
    tail10 = omega[int(np.floor(0.9 * n_samples)) :]
    tail50 = omega[n_samples // 2 :]
    with np.errstate(over="ignore", invalid="ignore"):
        settling = float(tail10.mean()) if tail10.size else 0.0
        variance = float((tail50**2).sum(axis=1).mean()) if tail50.size else 0.0

    if steady is not None:
        direction = steady.omega0 - trajectory.model.reference.omega0
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
    for name, value in vars(metrics).items():
        if not np.isfinite(value):
            raise NumericalError(f"metric {name} is not finite ({value}); the run overflows it")
    return metrics


def components(n, edges):
    """Connected components of the undirected graph on nodes 0..n-1 with the
    given (i, j) edges, as sorted id lists ordered by their smallest id."""
    neighbours = [set() for _ in range(n)]
    for i, j in edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    seen = [False] * n
    found = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue, members = deque([start]), []
        while queue:
            node = queue.popleft()
            members.append(node)
            for other in neighbours[node]:
                if not seen[other]:
                    seen[other] = True
                    queue.append(other)
        found.append(sorted(members))
    return found


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


# Per-unit susceptances are O(1)-O(100), so an absolute row-sum tolerance
# of 1e-12 separates real violations from rounding.
ROW_SUM_TOL = 1e-12


def laplacian_violations(matrix: np.ndarray, row_sum_tol: float = ROW_SUM_TOL) -> list[str]:
    """Check the structural invariants of a susceptance Laplacian.

    Returns human-readable violations: asymmetry, nonzero row sums (absolute
    tolerance ``row_sum_tol``), positive off-diagonals, or indefiniteness.
    """
    lap = np.asarray(matrix, dtype=float)
    violations = []
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        return [f"matrix is not square: shape {lap.shape}"]
    if not np.allclose(lap, lap.T, rtol=0.0, atol=1e-12):
        violations.append("matrix is not symmetric")
    row_sums = lap.sum(axis=1)
    bad_rows = np.flatnonzero(np.abs(row_sums) > row_sum_tol)
    if bad_rows.size:
        violations.append(f"rows {bad_rows.tolist()} do not sum to zero")
    off = lap - np.diag(np.diag(lap))
    if np.any(off > 1e-12):
        violations.append("positive off-diagonal entries present")
    eigenvalues = np.linalg.eigvalsh(0.5 * (lap + lap.T))
    if eigenvalues.size and eigenvalues[0] < -1e-9:
        violations.append(f"matrix is not positive semidefinite (min eig {eigenvalues[0]:.3e})")
    return violations


def document_to_obj(doc: NetworkDocument) -> dict:
    """Render a document back to a JSON-ready object with stable key order."""
    obj: dict = {"schema_version": SCHEMA_VERSION}
    if doc.comment is not None:
        obj["comment"] = doc.comment
    obj["buses"] = []
    for bus in doc.network.buses:
        entry: dict = {"id": bus.id, "kind": bus.kind}
        if bus.inertia is not None:
            entry["inertia"] = bus.inertia
        entry["damping"] = bus.damping
        if bus.governor_droop is not None:
            entry["governor_droop"] = bus.governor_droop
        entry["injection"] = bus.injection
        obj["buses"].append(entry)
    obj["lines"] = [
        {"from": ln.from_bus, "to": ln.to_bus, "susceptance": ln.susceptance}
        for ln in doc.network.lines
    ]
    obj["inverters"] = []
    for bus_id, cfg in zip(sorted(doc.network.generator_ids), doc.inverters):
        entry = {"bus": bus_id, "mode": cfg.mode.value, "q0": cfg.q0}
        for key in ("r_r", "m_v", "delta", "nu"):
            value = getattr(cfg, key)
            if value is not None:
                entry[key] = value
        obj["inverters"].append(entry)
    obj["noise"] = [
        {"bus": i, "k1": g.k1, "k2": g.k2, "k3": g.k3} for i, g in enumerate(doc.noise)
    ]
    if doc.disturbances:
        obj["disturbances"] = [
            {"time": d.time, "bus": d.bus, "delta_p": d.delta_p} for d in doc.disturbances
        ]
    return obj


def save_document(doc: NetworkDocument, path) -> None:
    Path(path).write_text(json.dumps(document_to_obj(doc), indent=2) + "\n")
