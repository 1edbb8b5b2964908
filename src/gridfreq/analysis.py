"""H2 performance, modal decomposition, and steady-state optimal allocation.

Every squared H2 norm follows one exact route.  The derivative-measurement
channel is the derivative of the frequency-measurement channel, w3 = s*w2,
so the noise-to-frequency transfer function is
    G(s) = C (sI - A)^-1 [B1 | B2 + s*B3]
         = [C (sI - A)^-1 B1 | C (sI - A)^-1 (B2 + A B3) + C B3].
A nonzero direct term C B3 makes the norm infinite; its largest singular
value is reported as the limiting gain.  Otherwise the uniform-angle mode,
which is unobservable and sits on the imaginary axis, is shifted to -1 by a
rank-one update A - v v^T (Brauer, Duke Math. J. 19, 1952): A v = 0 and
C v = 0 leave C (sI - A)^-1 unchanged.  The norm is then
trace(B_eff^T X B_eff) with B_eff = [B1 | B2 + A B3] and X the observability
Gramian, solved exactly by the Bartels-Stewart algorithm.  The solver, the
only user of scipy, factors A once: its Hurwitz test reads the spectrum off
the real Schur form that LAPACK trsyl then solves on.  It rejects non-finite
input, state matrices with eigenvalues on or right of the imaginary axis
and solutions whose residual is not small.  The route also takes stacks of
closed loops, as a sweep or the modes of a homogeneous fleet build them:
the shift, the feedthrough and B_eff are formed once per stack, then each
point in turn is solved and judged, and the first failing point raises.
Modal, closed-form and optimality analyses read the fleet a model was
assembled from; none of them gates a fleet again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import InverterMode
from .dynamics import StateSpaceModel, _loop_matrices, _parameters
from .errors import NumericalError, ValidationError, _finite, _require

__all__ = [
    "H2Result",
    "ModalDecomposition",
    "OptimalAllocation",
    "OptimalityReport",
    "h2_fleet_closed_form",
    "h2_frequency_weighted",
    "h2_gramian",
    "modal_decompose",
    "mode_norms",
    "optimal_allocation",
    "solve_lyapunov",
    "verify_steady_state_optimality",
]

# Limiting gains below this are treated as roundoff, not true feedthrough.
FEEDTHROUGH_TOL = 1e-9


@dataclass(frozen=True)
class H2Result:
    """Squared H2 norm: a finite ``value``, or, where the norm is infinite,
    the high-frequency ``feedthrough_gain`` that certifies the divergence."""

    value: float | None = None
    feedthrough_gain: float | None = None

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    @property
    def kind(self) -> str:
        return "finite" if self.is_finite else "infinite"


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve A^T X + X A + Q = 0 by the Bartels-Stewart algorithm.

    A and Q are (d, d).  A and Q must be finite and A Hurwitz; eigenvalues
    on or right of the imaginary axis are rejected (shift structural zero
    modes away before calling), and so are a solution that overflows and
    one whose residual exceeds 1e-8 * ||Q||.  A is factored once: the
    Hurwitz test reads the spectrum off the real Schur form
    R = U^T A^T U that LAPACK trsyl then solves on.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or q.shape != a.shape:
        raise ValidationError(f"shape mismatch: A {a.shape}, Q {q.shape}")
    if not a.shape[0]:
        return np.empty(a.shape)
    if not (np.isfinite(a).all() and np.isfinite(q).all()):
        raise NumericalError("state or weight matrix has non-finite entries; the model overflows")
    import scipy.linalg  # imported here: commands with no Lyapunov solve never load it

    r, u = scipy.linalg.schur(a.T, output="real", check_finite=False)
    # LAPACK standardises each 2x2 block to equal diagonal entries, so the
    # diagonal of R holds the real part of every eigenvalue.
    worst = float(r.diagonal().max())
    if worst > 1e-12:
        raise NumericalError(
            f"state matrix has eigenvalues in the right half-plane (max Re = {worst:.3e})")
    if worst > -1e-12:
        raise NumericalError(
            f"state matrix has eigenvalues on the imaginary axis (max Re = {worst:.3e}): "
            "its slowest mode decays slower than 1e-12/s")
    # R Y + Y R^T = -scale * U^T Q U with Y = scale * U^T X U: trsyl scales
    # the right-hand side down where Y would overflow.  A perturbed solve
    # (info 1) is left to the residual guard.
    y, scale, _ = scipy.linalg.lapack.dtrsyl(r, r, u.T @ (-q @ u), tranb="T")
    with np.errstate(over="ignore", invalid="ignore"):
        x = u @ (y / scale) @ u.T
        x = 0.5 * (x + x.T)
        if not np.isfinite(x).all():
            raise NumericalError("Lyapunov solution overflows; system too ill-conditioned")
        residual = float(np.linalg.norm(a.T @ x + x @ a + q))
        bound = 1e-8 * max(float(np.linalg.norm(q)), 1e-30)
    if residual > bound:
        raise NumericalError(f"Lyapunov residual {residual:.3e} exceeds {bound:.3e}; "
                             "system too ill-conditioned")
    return x


def _h2(a, b, c, null_vector):
    """Squared H2 norm of (A, [B1 | B2 | B3], C) with w3 = s*w2.

    A (d, d), B (d, 3k) and C (n, d) give one :class:`H2Result`; stacks
    (P, d, d), (P, d, 3k) and (P, n, d) give a list of P.  B holds the
    three noise channels in equal column blocks.  ``null_vector`` holds one
    v per point, or one (d,) v for all: a unit v with A v = 0 and C v = 0
    marks the unobservable zero mode; A - v v^T moves it to -1 and realizes
    the same transfer function.  The shift leaves A B3 unchanged because
    v^T B3 = 0, and a zero v leaves every bit of A.  The products that
    cannot fail are formed once per stack; the points are then judged in
    order, each by the feedthrough, :func:`solve_lyapunov` and the norm,
    and the first failing point raises with its index as ``point``.
    """
    if np.ndim(a) == 2:
        return _h2(a[None], b[None], c[None], null_vector)[0]
    k = b.shape[-1] // 3
    a = a - null_vector[..., :, None] * null_vector[..., None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        feedthrough = c @ b[..., 2 * k :]
        b_eff = np.concatenate([b[..., :k], b[..., k : 2 * k] + a @ b[..., 2 * k :]], axis=-1)
        q = c.transpose(0, 2, 1) @ c
    results = []
    for point, block in enumerate(feedthrough):
        if not np.isfinite(block).all():
            raise NumericalError(
                "noise input matrix has non-finite entries; the model overflows", point)
        gain = float(np.linalg.norm(block, 2)) if block.any() else 0.0
        if gain > FEEDTHROUGH_TOL:
            results.append(H2Result(feedthrough_gain=gain))
            continue
        try:
            x = solve_lyapunov(a[point], q[point])
        except NumericalError as exc:
            raise NumericalError(str(exc), point) from None
        with np.errstate(over="ignore", invalid="ignore"):
            value = float((b_eff[point].T @ x @ b_eff[point]).trace())
        if not math.isfinite(value):
            raise NumericalError(
                f"squared H2 norm is not finite ({value}); the noise overflows it", point)
        results.append(H2Result(value=max(value, 0.0)))
    return results


def h2_gramian(model: StateSpaceModel) -> H2Result:
    """Squared H2 norm via the observability Gramian (needs k3 decoupled).

    Refuses models with derivative-measurement noise in the loop, because
    w3 is then the derivative of w2 rather than an independent channel;
    :func:`h2_frequency_weighted` runs the same route on those.
    """
    if model.derivative_noise_present:
        raise ValidationError(
            "model couples frequency-derivative noise (k3 with m_v or nu); "
            "the Gramian formula assumes independent channels - use "
            "h2_frequency_weighted instead"
        )
    return _h2(model.a, model.b, model.c, model.rotation_null_vector)


def h2_frequency_weighted(model: StateSpaceModel) -> H2Result:
    """Squared H2 norm with the derivative-noise channel folded into w2.

    Returns "infinite" with the limiting gain when C B3 is nonzero, and the
    exact finite value otherwise (see the module docstring).  Without
    derivative noise B3 is zero and this equals :func:`h2_gramian`.
    """
    return _h2(model.a, model.b, model.c, model.rotation_null_vector)


@dataclass(frozen=True)
class ModalDecomposition:
    """Orthonormal diagonalization of the network Laplacian and the stacked
    (A, B, C) of the per-mode subsystems it decouples a homogeneous fleet
    into, one per eigenvalue: 2 states for CP/DC/VI, 3 for IDROOP."""

    eigenvalues: np.ndarray
    transform: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def _uniform_fleet(model: StateSpaceModel):
    """Bus 0's inverter config, noise gains, inertia and damping plus 1/r_g,
    read off the model's gated fleet, after checking that every bus shares the
    inverter mode and, to 1e-12, every parameter of the closed loop; a
    heterogeneous fleet is rejected, naming the parameter."""
    configs, noise, inertia, damping, rg_inv = model.fleet
    modes = {c.mode for c in configs}
    if len(modes) != 1:
        raise ValidationError(f"heterogeneous inverter modes: {sorted(m.value for m in modes)}")
    shared = [("inertia", inertia), ("damping", damping),
              ("governor droop", [b.governor_droop for b in model.network.buses]),
              *((name, [getattr(g, name) for g in noise]) for name in ("k1", "k2", "k3")),
              *((name, [getattr(c, name) for c in configs]) for name in modes.pop().parameters)]
    for label, values in shared:
        values = np.array(values, dtype=float)
        if not np.allclose(values, values[0], rtol=1e-12, atol=1e-12):
            raise ValidationError(f"heterogeneous {label}: {values.tolist()}")
    return configs[0], noise[0], float(inertia[0]), float(damping[0] + rg_inv[0])


def h2_fleet_closed_form(model: StateSpaceModel) -> float:
    """Closed-form squared H2 norm of a model of a homogeneous all-DC or all-CP fleet.

    DC (droop on every bus): n*(k1^2 + (k2/r_r)^2) / (2m*(d + 1/r_g + 1/r_r)).
    CP (the swing equation alone): n*k1^2 / (2m*(d + 1/r_g)).
    Heterogeneous fleets and VI or IDROOP fleets have no closed form and
    are rejected.
    """
    config, gains, m, damping = _uniform_fleet(model)
    n, k1 = model.n_buses, gains.k1
    if config.mode is InverterMode.DC:
        damping += 1.0 / config.r_r
        return n * (k1 * k1 + (gains.k2 / config.r_r) ** 2) / (2.0 * m * damping)
    if config.mode is InverterMode.CP:
        return n * k1 * k1 / (2.0 * m * damping)
    raise ValidationError(f"no closed form for an all-{config.mode.value} fleet "
                          "(only DC and CP/swing)")


def modal_decompose(model: StateSpaceModel) -> ModalDecomposition:
    """Decouple the model of a homogeneous fleet into independent per-mode subsystems.

    The orthonormal transform diagonalizes the susceptance Laplacian, with
    the first column fixed to the uniform vector (the zero mode).  Every
    mode is the closed loop of one bus whose Laplacian is its eigenvalue,
    and all of them are built as one stack.  Requires identical parameters
    on every bus; heterogeneous input is rejected.
    """
    config, gains, inertia, damping = _uniform_fleet(model)
    eigenvalues, transform = np.linalg.eigh(model.network.laplacian)
    if abs(eigenvalues[0]) > 1e-9:
        raise NumericalError(f"smallest Laplacian eigenvalue {eigenvalues[0]:.3e} not ~0")
    eigenvalues[0] = 0.0
    transform[:, 0] = 1.0 / np.sqrt(model.n_buses)
    params = {name: np.broadcast_to(values, (len(eigenvalues), 1))
              for name, values in _parameters([config]).items()}
    loop = _loop_matrices(eigenvalues[:, None, None], np.array([inertia]), np.array([damping]),
                          [config.mode], params, [gains])
    return ModalDecomposition(eigenvalues=eigenvalues, transform=transform,
                              a=loop["a"], b=loop["b"], c=loop["c"])


def mode_norms(decomposition: ModalDecomposition) -> list[H2Result]:
    """Squared H2 norm of each decoupled mode; their sum equals the
    full-model norm because the modal transform is orthonormal.  The modes
    of |eigenvalue| < 1e-12 have their angle integrator shifted away.  All
    modes are solved as one stack, so a failing mode's index is the error's
    ``point``."""
    null_vectors = np.zeros(decomposition.a.shape[:-1])
    null_vectors[np.abs(decomposition.eigenvalues) < 1e-12, 0] = 1.0
    return _h2(decomposition.a, decomposition.b, decomposition.c, null_vectors)


def _coefficients(values, field: str) -> np.ndarray:
    return np.array([_finite(v, f"{field}[{i}]") for i, v in enumerate(values)], dtype=float)


@dataclass(frozen=True)
class OptimalAllocation:
    """Cost-minimizing split of an imbalance across resources: equal
    marginal cost alpha_i * dq_i = lambda_star on every participant."""

    delta_q_g: np.ndarray
    delta_q_r: np.ndarray
    lambda_star: float
    ss_cost: float


def optimal_allocation(delta_p: float, alpha_g, alpha_r) -> OptimalAllocation:
    """Minimize sum(alpha/2 * dq^2) subject to sum(dq) = delta_p.

    The stationarity conditions give dq_i = lambda / alpha_i with the
    multiplier lambda = delta_p / sum(1/alpha).  delta_p and every cost
    coefficient must be a finite number; errors name the entry.
    """
    delta_p = _finite(delta_p, "delta_p")
    alpha_g, alpha_r = _coefficients(alpha_g, "alpha_g"), _coefficients(alpha_r, "alpha_r")
    if alpha_g.size + alpha_r.size == 0:
        raise ValidationError("no participating resources")
    if np.any(alpha_g <= 0) or np.any(alpha_r <= 0):
        raise ValidationError("cost coefficients must be > 0")
    total_inverse = float((1.0 / alpha_g).sum() + (1.0 / alpha_r).sum())
    lam = delta_p / total_inverse
    dq_g = lam / alpha_g
    dq_r = lam / alpha_r
    with np.errstate(over="ignore"):  # a huge imbalance costs inf; no command prints it
        cost = float(0.5 * (alpha_g @ dq_g**2) + 0.5 * (alpha_r @ dq_r**2))
    return OptimalAllocation(delta_q_g=dq_g, delta_q_r=dq_r, lambda_star=float(lam), ss_cost=cost)


@dataclass(frozen=True)
class OptimalityReport:
    """Comparison of the closed-loop steady state with the cost-optimal
    allocation (they coincide exactly when droops equal cost coefficients)."""

    passed: bool
    lambda_star: float
    delta_p: float
    max_gap_g: float
    max_gap_r: float
    note: str = ""


def verify_steady_state_optimality(model: StateSpaceModel, alpha_g=None, alpha_r=None,
                                   tol: float = 1e-9) -> OptimalityReport:
    """Check that the model's steady state solves the dispatch problem of its fleet.

    By default the governed buses' and droop-active inverters' droops are the
    costs (the optimal tuning); passing different alphas, one per bus, exposes
    the gap.  The imbalance is delta_P = sum(p_in + q0) - sum(D_i*omega0), and
    optimal tuning makes the multiplier equal omega0.  ``tol`` must be finite and >= 0.
    """
    network, (configs, _, _, damping, rg_inv) = model.network, model.fleet
    _require(_finite(tol, "tol") >= 0, "tol: must be >= 0")
    ss = model.reference
    droop_ids = [i for i, c in enumerate(configs) if c.droop_active]
    governed = list(range(network.n_buses))
    if alpha_g is None:  # an ungoverned bus (r_g = inf) takes no share: omega0 * 0
        governed = np.flatnonzero(rg_inv).tolist()
        alpha_g = [network.buses[i].governor_droop for i in governed]
    if alpha_r is None:
        alpha_r = [configs[i].r_r for i in droop_ids]
    _require(len(alpha_g) == len(governed),
             f"need one alpha_g per bus ({network.n_buses}), got {len(alpha_g)}")
    _require(len(alpha_r) == len(droop_ids),
             f"need one alpha_r per droop-active bus ({len(droop_ids)}), got {len(alpha_r)}")

    delta_p = float(
        network.injections().sum() + sum(c.q0 for c in configs) - damping.sum() * ss.omega0
    )
    allocation = optimal_allocation(delta_p, alpha_g, alpha_r)
    gap_g = float(np.max(np.abs(allocation.delta_q_g - ss.delta_q_g_star[governed]),
                         initial=0.0))
    gap_r = float(
        np.max(np.abs(allocation.delta_q_r - ss.delta_q_r_star[droop_ids]), initial=0.0)
    )
    passed = gap_g <= tol and gap_r <= tol
    note = "" if passed else "steady-state deviations do not match the optimal allocation"
    return OptimalityReport(
        passed=passed,
        lambda_star=allocation.lambda_star,
        delta_p=delta_p,
        max_gap_g=gap_g,
        max_gap_r=gap_r,
        note=note,
    )
