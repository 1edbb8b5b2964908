"""Reference computations made apart from gridfreq, straight from document JSON.

Nothing here imports gridfreq.  The closed loop is written in descriptor
form E z' = A0 z + B0 w in relative-angle coordinates (angles measured from
the first bus), so the uniform-angle mode never appears and no hand
substitution of the swing equation is needed.  That is a different route to
the same transfer function than the program's, which is the point.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def doc_arrays(doc: dict) -> dict:
    """Per-bus and per-generator arrays of a document, in bus-id order."""
    buses = sorted(doc["buses"], key=lambda b: b["id"])
    n = len(buses)
    gen = np.array([b.get("kind", "generator") == "generator" for b in buses])
    lap = np.zeros((n, n))
    for ln in doc["lines"]:
        i, j, b = ln["from"], ln["to"], ln["susceptance"]
        lap[i, j] -= b
        lap[j, i] -= b
        lap[i, i] += b
        lap[j, j] += b
    inverters = {e["bus"]: e for e in doc.get("inverters", [])}
    noise = {e["bus"]: e for e in doc.get("noise", [])}
    gen_ids = [b["id"] for b in buses if gen[b["id"]]]
    return {
        "n": n,
        "gen": gen,
        "gen_ids": gen_ids,
        "lap": lap,
        "p": np.array([b.get("injection", 0.0) for b in buses]),
        "m": np.array([b.get("inertia") or 0.0 for b in buses]),
        "d": np.array([b.get("damping", 0.0) for b in buses]),
        "rg_inv": np.array([1.0 / b["governor_droop"] if gen[b["id"]] else 0.0 for b in buses]),
        "inv": [inverters.get(i, {"mode": "CP", "q0": 0.0}) for i in gen_ids],
        "k": np.array([[noise.get(i, {}).get(key, 0.0) for key in ("k1", "k2", "k3")]
                       for i in range(n)]),
    }


def _droop_inv(entry) -> float:
    return 0.0 if entry["mode"] == "CP" else 1.0 / entry["r_r"]


def sync_frequency(doc: dict, extra_injection: float = 0.0) -> float:
    """omega0 = (sum p + sum q0 + extra) / (sum_gen (D + 1/r_g) + sum 1/r_r)."""
    a = doc_arrays(doc)
    g = a["gen"]
    num = a["p"].sum() + sum(e.get("q0", 0.0) for e in a["inv"]) + extra_injection
    den = (a["d"][g] + a["rg_inv"][g]).sum() + sum(_droop_inv(e) for e in a["inv"])
    return float(num / den)


def dc_power_flow(doc: dict) -> np.ndarray:
    """Steady-state angles at the generator buses, from the unreduced network.

    Generator rows balance p + q0 - omega0/r_r - (D + 1/r_g) omega0 against
    the line flows; load rows balance their injection.  Angles are pinned to
    the first generator bus.
    """
    a = doc_arrays(doc)
    omega0 = sync_frequency(doc)
    rhs = a["p"].copy()
    for k, bus in enumerate(a["gen_ids"]):
        entry = a["inv"][k]
        rhs[bus] += entry.get("q0", 0.0) - omega0 * _droop_inv(entry)
        rhs[bus] -= (a["d"][bus] + a["rg_inv"][bus]) * omega0
    ref = a["gen_ids"][0]
    keep = [i for i in range(a["n"]) if i != ref]
    theta = np.zeros(a["n"])
    theta[keep] = np.linalg.solve(a["lap"][np.ix_(keep, keep)], rhs[keep])
    return theta[a["gen_ids"]]


def stability_rows(doc: dict) -> list:
    """(applies, condition1, condition2) per generator, in id order."""
    a = doc_arrays(doc)
    rows = []
    for k, bus in enumerate(a["gen_ids"]):
        e = a["inv"][k]
        if e["mode"] != "IDROOP":
            rows.append((False, None, None))
            continue
        rr_inv = 1.0 / e["r_r"]
        cond1 = e["nu"] / (e["delta"] * (e["nu"] + rr_inv))
        cond2 = a["d"][bus] + a["rg_inv"][bus] + e["nu"] * rr_inv / (e["nu"] + rr_inv)
        rows.append((True, cond1, cond2))
    return rows


def closed_loop(doc: dict) -> dict:
    """Closed loop of an all-generator document in relative-angle coordinates.

    State (phi, omega, x) with phi_i = theta_{i+1} - theta_0; inputs
    (w1, w2, w3) per bus; output omega.
    """
    a = doc_arrays(doc)
    if not a["gen"].all():
        raise ValueError("closed_loop needs an all-generator document")
    n = a["n"]
    inv = a["inv"]
    k1, k2, k3 = a["k"].T
    idroop = [i for i in range(n) if inv[i]["mode"] == "IDROOP"]
    nx = len(idroop)
    dim = (n - 1) + n + nx
    ph, om, xs = slice(0, n - 1), slice(n - 1, 2 * n - 1), slice(2 * n - 1, dim)
    e_mat = np.eye(dim)
    a0 = np.zeros((dim, dim))
    b0 = np.zeros((dim, 3 * n))
    # phi' = omega_{1:} - omega_0
    a0[ph, n - 1] = -1.0
    a0[ph, n:2 * n - 1] = np.eye(n - 1)
    for i in range(n):
        e = inv[i]
        mode = e["mode"]
        m_v = e.get("m_v", 0.0) if mode == "VI" else 0.0
        rr_inv = 1.0 / e["r_r"] if mode in ("DC", "VI") else 0.0
        row = n - 1 + i
        e_mat[row, row] = a["m"][i] + m_v
        a0[row, ph] = -a["lap"][i, 1:]
        a0[row, row] = -(a["d"][i] + a["rg_inv"][i] + rr_inv)
        b0[row, i] = k1[i]
        b0[row, n + i] = -rr_inv * k2[i]
        b0[row, 2 * n + i] = -m_v * k3[i]
    for j, i in enumerate(idroop):
        e = inv[i]
        row, om_i = 2 * n - 1 + j, n - 1 + i
        a0[om_i, row] = 1.0
        # x' + nu omega_i' = -delta (omega_i + k2 w2) / r_r - delta x - nu k3 w3
        e_mat[row, om_i] = e["nu"]
        a0[row, om_i] = -e["delta"] / e["r_r"]
        a0[row, row] = -e["delta"]
        b0[row, n + i] = -e["delta"] * k2[i] / e["r_r"]
        b0[row, 2 * n + i] = -e["nu"] * k3[i]
    a_mat = np.linalg.solve(e_mat, a0)
    b_mat = np.linalg.solve(e_mat, b0)
    c_mat = np.zeros((n, dim))
    c_mat[:, om] = np.eye(n)
    return {"a": a_mat, "b": b_mat, "c": c_mat, "n": n, "idroop": idroop}


def h2(sys_: dict, feedthrough_tol: float = 1e-9) -> dict:
    """Squared H2 norm with w3 = s w2 substituted: [B1 | B2 + A B3] plus the
    direct term C B3, by Bartels-Stewart on the observability Gramian."""
    a, b, c, n = sys_["a"], sys_["b"], sys_["c"], sys_["n"]
    b1, b2, b3 = b[:, :n], b[:, n:2 * n], b[:, 2 * n:]
    gain = float(np.linalg.norm(c @ b3, 2))
    if gain > feedthrough_tol:
        return {"kind": "infinite", "feedthrough_gain": gain}
    b_eff = np.hstack([b1, b2 + a @ b3])
    x = scipy.linalg.solve_continuous_lyapunov(a.T, -c.T @ c)
    return {"kind": "finite", "value": float(np.trace(b_eff.T @ x @ b_eff))}


def closed_form(mode: str, n: int, m: float, d: float, r_g: float, r_r: float = 0.0,
                k1: float = 0.0, k2: float = 0.0) -> float:
    """Homogeneous-fleet squared H2 norms.

    Droop:  n (k1^2 + (k2/r_r)^2) / (2 m (d + 1/r_g + 1/r_r)).
    Constant power (swing only):  n k1^2 / (2 m (d + 1/r_g)).
    """
    if mode == "DC":
        return n * (k1 ** 2 + (k2 / r_r) ** 2) / (2.0 * m * (d + 1.0 / r_g + 1.0 / r_r))
    if mode == "CP":
        return n * k1 ** 2 / (2.0 * m * (d + 1.0 / r_g))
    raise ValueError(f"no closed form for mode {mode}")


def spectral_abscissa(sys_: dict) -> float:
    return float(np.linalg.eigvals(sys_["a"]).real.max())


def rk4_map(a: np.ndarray, dt: float) -> np.ndarray:
    a1 = a * dt
    a2 = a1 @ a1
    a3 = a2 @ a1
    return np.eye(a.shape[0]) + a1 + a2 / 2.0 + a3 / 6.0 + a3 @ a1 / 24.0


def discrete_variance(sys_: dict, dt: float, horizon: float) -> dict:
    """Exact mean and standard deviation of the stationary-variance estimator
    of a seeded run: the time average of sum(omega^2) over the last half of
    ``horizon``, for the RK4 drift map with Euler-Maruyama increments
    B1 dW1 + B2 dW2 + B3 (dW2_k - dW2_{k-1}) / dt.

    The augmented state (z_k, dW2_{k-1}) follows s+ = F s + G xi with
    xi ~ N(0, dt I), so its stationary covariance P solves a discrete
    Lyapunov equation.  For a Gaussian process the estimator over K samples
    has variance (2/K) * sum over lags h of ||R_h||_F^2 with
    R_h = C F^h P C^T; the lag sum is one more discrete Lyapunov solve.
    """
    a, b, c, n = sys_["a"], sys_["b"], sys_["c"], sys_["n"]
    dim = a.shape[0]
    b1, b2, b3 = b[:, :n], b[:, n:2 * n], b[:, 2 * n:]
    f = np.zeros((dim + n, dim + n))
    f[:dim, :dim] = rk4_map(a, dt)
    f[:dim, dim:] = -b3 / dt
    g = np.zeros((dim + n, 2 * n))
    g[:dim, :n] = b1
    g[:dim, n:] = b2 + b3 / dt
    g[dim:, n:] = np.eye(n)
    p = scipy.linalg.solve_discrete_lyapunov(f, dt * g @ g.T)
    ca = np.hstack([c, np.zeros((n, n))])
    r0 = ca @ p @ ca.T
    y = scipy.linalg.solve_discrete_lyapunov(f, p @ ca.T @ ca @ p)
    lag_sum = float(np.sum(r0 * r0) + 2.0 * np.trace(ca @ f @ y @ f.T @ ca.T))
    n_samples = int(round(horizon / dt)) + 1
    k_tail = n_samples - n_samples // 2
    return {"mean": float(np.trace(r0)), "std": float(np.sqrt(2.0 * lag_sum / k_tail))}
