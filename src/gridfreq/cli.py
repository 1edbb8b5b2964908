"""Command-line driver: file ingestion, dispatch, machine-readable output.

Every command reads a network document (JSON), prints JSON to stdout, and
optionally writes CSV/JSON artifacts under --out.  steady-state, stability
and simulate print the library's result records (SteadyState,
OptimalityReport, StabilityCondition, Metrics) field for field, in their
declared order, so the records alone define those outputs.  Exit codes:
0 success, 1 validation failure (including bad flags), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, is_dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import (
    h2_fleet_closed_form,
    h2_frequency_weighted,
    mode_norms,
    modal_decompose,
    verify_steady_state_optimality,
)
from .control import check_decentralized_stability
from .dynamics import assemble_closed_loop
from .errors import GridFreqError, InjectionOverflow, NumericalError, ValidationError
from .io import load_document, load_sweep_spec, reduce_document
from .sim import SimConfig, compute_metrics, simulate_deterministic, simulate_stochastic
from .sweep import run_sweep

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

TRAJECTORY_CSV = "trajectory.csv"
METRICS_JSON = "metrics.json"
SWEEP_CSV = "sweep.csv"


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _fmt(value) -> str:
    return repr(float(value))


def _finite_or_null(value: float) -> float | None:
    """A JSON-safe number: strict JSON has no Infinity, so a non-finite value is null."""
    return value if math.isfinite(value) else None


def _emit(obj, path: Path | None = None) -> None:
    """Print obj as JSON, and write it to path too when one is given.  A
    result record serialises as its fields, an array as a list."""
    text = json.dumps(obj, indent=2, default=lambda v: asdict(v) if is_dataclass(v) else v.tolist())
    if path is not None:
        path.write_text(text + "\n")
    print(text)


def _steady_state_cmd(args, system, bus_ids) -> int:
    model = assemble_closed_loop(system.network, system.configs)
    _emit({**asdict(model.reference), "optimality": verify_steady_state_optimality(model)})
    return EXIT_OK


def _write_trajectory_csv(path: Path, trajectory, bus_ids) -> None:
    header = (
        ["t"]
        + [f"theta_dev_{i}" for i in bus_ids]
        + [f"omega_dev_{i}" for i in bus_ids]
        + [f"q_r_dev_{i}" for i in bus_ids]
        + [f"x_{bus_ids[i]}" for i in trajectory.model.idroop_buses]
    )
    dt, x_star = trajectory.config.dt, trajectory.model.reference.x_star
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for rows, q_r in trajectory.blocks():  # a whole table copies the run
            # the times' own expression, k * dt, for this block's rows only
            table = np.hstack([np.arange(rows.start, rows.stop)[:, None] * dt,
                               trajectory.theta_dev[rows], trajectory.omega_dev[rows], q_r,
                               trajectory.states[rows, 2 * trajectory.model.n_buses :] + x_star])
            for row in table:  # one row of Python floats at a time
                fh.write(",".join(map(repr, row.tolist())) + "\n")


def _simulate_cmd(args, system, bus_ids) -> int:
    if args.stochastic and args.seed is None:
        raise ValidationError("--stochastic requires --seed")
    horizon = args.horizon if args.horizon is not None else 2000.0 if args.stochastic else 30.0
    config = SimConfig(dt=args.dt, horizon=horizon, disturbances=system.disturbances,
                       seed=args.seed, noise_enabled=args.stochastic)
    model = assemble_closed_loop(system.network, system.configs, system.noise)
    simulate = simulate_stochastic if args.stochastic else simulate_deterministic
    trajectory = simulate(model, config)
    metrics = compute_metrics(trajectory)

    args.out.mkdir(parents=True, exist_ok=True)
    _write_trajectory_csv(args.out / TRAJECTORY_CSV, trajectory, bus_ids)
    _emit(metrics, args.out / METRICS_JSON)
    return EXIT_OK


def _h2_value(result) -> dict:
    """The JSON field of an H2 result: its value, or the limiting gain when infinite."""
    if result.is_finite:
        return {"value": result.value}
    return {"feedthrough_gain": result.feedthrough_gain}


def _h2_cmd(args, system, bus_ids) -> int:
    model = assemble_closed_loop(system.network, system.configs, system.noise)
    result = h2_frequency_weighted(model)
    summary = {"kind": result.kind, "method": "gramian", **_h2_value(result)}

    if args.closed_form:
        reference = h2_fleet_closed_form(model)
        summary["closed_form"] = reference
        if result.is_finite:
            gap = abs(result.value - reference) / max(reference, 1e-30)
            summary["closed_form_relative_gap"] = gap
    _emit(summary)
    return EXIT_OK


def _stability_cmd(args, system, bus_ids) -> int:
    certificate = check_decentralized_stability(system.configs, system.network.buses)
    _emit({"passed": certificate.passed,
           "conditions": [replace(c, bus=bus_ids[c.bus]) for c in certificate.conditions]})
    return EXIT_OK


def _modal_cmd(args, system, bus_ids) -> int:
    model = assemble_closed_loop(system.network, system.configs, system.noise)
    decomposition = modal_decompose(model)
    norms = mode_norms(decomposition)
    full = h2_frequency_weighted(model)
    finite = [r.value for r in norms if r.is_finite]
    _emit({
        "eigenvalues": decomposition.eigenvalues.tolist(),
        "mode_norms": [{"eigenvalue": float(lam), "kind": r.kind, **_h2_value(r)}
                       for lam, r in zip(decomposition.eigenvalues, norms)],
        "sum_of_modes": sum(finite) if len(finite) == len(norms) else None,
        "full_model": {"kind": full.kind, **_h2_value(full)},
    })
    return EXIT_OK


def _sweep_cmd(args, system, bus_ids) -> int:
    spec = load_sweep_spec(args.sweep)
    sim_config = None
    if spec.metric == "nadir":
        horizon = args.horizon if args.horizon is not None else 30.0
        sim_config = SimConfig(dt=args.dt, horizon=horizon, disturbances=system.disturbances)
    rows = run_sweep(system.network, system.configs, system.noise, spec, sim_config)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / SWEEP_CSV
    with path.open("w") as fh:
        fh.write("axis1,axis2,metric\n")
        for first, second, value in rows:
            middle = "" if second is None else _fmt(second)
            fh.write(f"{_fmt(first)},{middle},{_fmt(value)}\n")
    _emit({
        "axes": [{"name": ax.name, "min": ax.minimum, "max": ax.maximum, "count": ax.count,
                  "spacing": ax.spacing} for ax in spec.axes],
        "metric": spec.metric,
        "points": len(rows),
        "min": _finite_or_null(min(v for *_, v in rows)),
        "max": _finite_or_null(max(v for *_, v in rows)),
        "csv": str(path),
    })
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="gridfreq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--network", required=True, help="network document (JSON)")
        p.set_defaults(run=run)
        return p

    command("steady-state", _steady_state_cmd,
            "synchronous frequency, angles, and optimality report")

    p = command("simulate", _simulate_cmd,
                "time-domain run; writes trajectory CSV + metrics JSON")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--horizon", type=float, default=None,
                   help="defaults to 30 s deterministic, 2000 s stochastic")
    p.add_argument("--stochastic", action="store_true")
    p.add_argument("--seed", type=int, default=None)

    p = command("h2", _h2_cmd, 'exact squared H2 norm, or "infinite" with its limiting gain')
    p.add_argument("--closed-form", action="store_true", dest="closed_form",
                   help="cross-check against the homogeneous closed form")

    command("stability", _stability_cmd, "decentralized stability certificate table")
    command("modal", _modal_cmd, "per-mode norms of a homogeneous fleet")

    p = command("sweep", _sweep_cmd, "metric grid over controller parameters; writes CSV")
    p.add_argument("--sweep", required=True, help="sweep spec (JSON)")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--horizon", type=float, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    try:
        document = load_document(args.network)
        bus_ids = document.network.generator_ids  # the document id of each model bus
        try:
            return args.run(args, reduce_document(document), bus_ids)
        except InjectionOverflow as exc:  # name the bus by its document id, not its model index
            raise InjectionOverflow(exc.bus, bus_ids[exc.bus]) from None
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (GridFreqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
