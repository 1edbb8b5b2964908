"""Checks of gridfreq's outputs against the oracle or against properties the
method must have.  Each returns a list of failure messages, empty when the
output passes, so one run can report every problem it finds.

Tolerances: values computed by the Gramian route are exact up to rounding
(RTOL_EXACT).  Values from the program's frequency-domain quadrature carry
its discretisation error, about 2e-7 relative on the bundled network, so
they are held to RTOL_QUADRATURE, which is looser than that error and still
rejects a value moved by 1e-4.
"""

from __future__ import annotations

import math

import numpy as np

RTOL_EXACT = 1e-9
RTOL_QUADRATURE = 1e-5
# Formulas evaluated in a different order by program and oracle.
RTOL_FORMULA = 1e-12
# Standard deviations of the variance estimator allowed on top of the
# discretisation bias; a 6-sigma miss has probability below 1e-8.
VARIANCE_SIGMAS = 6.0


def close(label: str, value, ref, rtol: float, atol: float = 0.0) -> list:
    if value is None or not math.isfinite(value) or abs(value - ref) > atol + rtol * abs(ref):
        return [f"{label}: {value!r} differs from reference {ref!r} (rtol {rtol:g}, atol {atol:g})"]
    return []


def h2_matches(label: str, kind: str, value, gain, ref: dict, rtol: float) -> list:
    """A program H2 result (kind, value, feedthrough gain) against the oracle's."""
    if kind != ref["kind"]:
        return [f"{label}: kind {kind!r}, oracle says {ref['kind']!r}"]
    if kind == "finite":
        return close(label, value, ref["value"], rtol)
    return close(f"{label} feedthrough gain", gain, ref["feedthrough_gain"], RTOL_FORMULA)


def droop_sweep(values, droop_ref: float) -> list:
    """The droop fleet ignores delta and nu, so its grid is constant."""
    values = np.asarray(values, dtype=float)
    spread = float(values.max() - values.min())
    out = []
    if spread > RTOL_FORMULA * abs(droop_ref):
        out.append(f"droop sweep not constant over delta x nu (spread {spread:.3e})")
    return out + close("droop sweep value", float(values[0]), droop_ref, RTOL_EXACT)


def idroop_sweep(values, refs, droop_ref: float) -> list:
    out = []
    for k, (value, ref) in enumerate(zip(values, refs)):
        out += close(f"iDroop sweep point {k}", value, ref, RTOL_QUADRATURE)
    if len(values) != len(refs):
        out.append(f"iDroop sweep has {len(values)} points, expected {len(refs)}")
    if not min(values) < droop_ref:
        out.append(f"no iDroop grid point below the droop norm {droop_ref:.6g}")
    return out


def modal_sum(sum_of_modes, full_value, ref_value) -> list:
    return (close("sum of modal norms vs full model", sum_of_modes, full_value, RTOL_QUADRATURE)
            + close("modal full-model norm", full_value, ref_value, RTOL_QUADRATURE))


def variance_band(label: str, estimates, h2_value: float, discrete: dict) -> list:
    """Empirical variances against the continuous H2 value.

    The band is the exact discretisation bias of the seeded recursion
    (|E_dt - H2|, from dt) plus VARIANCE_SIGMAS standard deviations of the
    estimator over the run's averaging window (from the horizon), applied to
    every seed alone and, narrowed by sqrt(seeds), to their mean.
    """
    bias = abs(discrete["mean"] - h2_value)
    one = bias + VARIANCE_SIGMAS * discrete["std"]
    out = []
    for k, v in enumerate(estimates):
        if not abs(v - h2_value) <= one:
            out.append(f"{label} seed {k}: variance {v:.6g} outside {h2_value:.6g} +- {one:.3g}")
    mean = float(np.mean(estimates))
    band = bias + VARIANCE_SIGMAS * discrete["std"] / math.sqrt(len(estimates))
    if not abs(mean - h2_value) <= band:
        out.append(f"{label}: mean variance {mean:.6g} outside {h2_value:.6g} +- {band:.3g}")
    return out


def nadir_order(nadirs: dict) -> list:
    """|VI| < |DC|, |IDROOP| < |DC| < |CP| for the same step."""
    a = {mode: abs(v) for mode, v in nadirs.items()}
    out = []
    if not a["VI"] < a["DC"]:
        out.append(f"nadir |VI| {a['VI']:.6g} not below |DC| {a['DC']:.6g}")
    if not a["IDROOP"] < a["DC"]:
        out.append(f"nadir |IDROOP| {a['IDROOP']:.6g} not below |DC| {a['DC']:.6g}")
    if not a["DC"] < a["CP"]:
        out.append(f"nadir |DC| {a['DC']:.6g} not below |CP| {a['CP']:.6g}")
    return out


def steady_state(label: str, out: dict, omega0_ref: float, theta_ref) -> list:
    theta = np.asarray(out["theta_star"], dtype=float)
    theta_ref = np.asarray(theta_ref, dtype=float)
    fails = close(f"{label} omega0", out["omega0"], omega0_ref, RTOL_FORMULA, atol=1e-15)
    if theta.shape != theta_ref.shape:
        return fails + [f"{label}: theta_star has {theta.size} entries, expected {theta_ref.size}"]
    scale = max(1.0, float(np.abs(theta_ref).max()))
    gap = float(np.abs(theta - theta_ref).max())
    if gap > 1e-9 * scale:
        fails.append(f"{label}: theta_star off the DC power flow by {gap:.3e}")
    if out["optimality"]["passed"] is not True:
        fails.append(f"{label}: optimality check did not pass")
    return fails


def stability(label: str, out: dict, rows_ref) -> list:
    conditions = out["conditions"]
    if len(conditions) != len(rows_ref):
        return [f"{label}: {len(conditions)} conditions for {len(rows_ref)} generators"]
    fails = []
    for k, (c, (applies, cond1, cond2)) in enumerate(zip(conditions, rows_ref)):
        if c["applies"] != applies:
            fails.append(f"{label} generator {k}: applies={c['applies']}, expected {applies}")
            continue
        if applies:
            fails += close(f"{label} generator {k} condition1", c["condition1"], cond1, RTOL_FORMULA)
            fails += close(f"{label} generator {k} condition2", c["condition2"], cond2, RTOL_FORMULA)
            if c["passed"] != (cond1 > 0 and cond2 > 0):
                fails.append(f"{label} generator {k}: passed flag disagrees with its conditions")
    passed = all(c["passed"] for c in conditions)
    if out["passed"] != passed:
        fails.append(f"{label}: certificate passed={out['passed']} but rows say {passed}")
    return fails


def parse_csv(text: str):
    """Header and float table of a trajectory CSV; None table if ragged."""
    lines = text.splitlines()
    header = lines[0].split(",")
    body = ",".join(lines[1:]).split(",") if len(lines) > 1 else []
    if len(body) != (len(lines) - 1) * len(header):
        return header, None
    return header, np.array(body, dtype=float).reshape(len(lines) - 1, len(header))


def trajectory(label: str, csv_text: str, metrics: dict, horizon: float, dt: float,
               n: int, n_idroop: int) -> list:
    """Shape of trajectory.csv, and metrics.json recomputed from its columns."""
    header, table = parse_csv(csv_text)
    cols = 1 + 3 * n + n_idroop
    rows = int(round(horizon / dt)) + 1
    if table is None:
        return [f"{label}: ragged CSV"]
    fails = []
    if len(header) != cols or table.shape[1] != cols:
        fails.append(f"{label}: {table.shape[1]} columns, expected {cols}")
    if table.shape[0] != rows:
        fails.append(f"{label}: {table.shape[0]} rows, expected {rows}")
    if fails:
        return fails
    omega = table[:, 1 + n:1 + 2 * n]
    q_r = table[:, 1 + 2 * n:1 + 3 * n]
    settling = float(omega[int(np.floor(0.9 * rows)):].mean())
    if settling < 0:
        nadir = float(omega.min())
    elif settling > 0:
        nadir = float(omega.max())
    else:
        flat = omega.reshape(-1)
        nadir = float(flat[np.argmax(np.abs(flat))])
    recomputed = {
        "nadir": nadir,
        "settling_frequency": settling,
        "peak_inverter_power": float(np.abs(q_r).max()),
        "empirical_output_variance": float((omega[rows // 2:] ** 2).sum(axis=1).mean()),
    }
    for key, value in recomputed.items():
        fails += close(f"{label} metrics.json {key}", metrics[key], value, RTOL_FORMULA,
                       atol=1e-15)
    return fails


def same(label: str, fingerprint, reference) -> list:
    if fingerprint != reference:
        return [f"{label}: output differs from the first round's"]
    return []
