"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are fixed here and nowhere else.
"""

import time
from importlib import resources

import numpy as np
import pytest

from gridfreq import (
    Bus,
    Disturbance,
    InverterConfig,
    NoiseGains,
    PowerNetwork,
    SimConfig,
    assemble_closed_loop,
    check_decentralized_stability,
    compute_metrics,
    h2_closed_form,
    h2_frequency_weighted,
    h2_gramian,
    modal_decompose,
    mode_norms,
    simulate_deterministic,
    simulate_stochastic,
    steady_state,
    uniform_fleet,
    verify_steady_state_optimality,
)
from gridfreq.io import load_document, reduce_document
from gridfreq.sweep import SweepAxis, SweepSpec, run_sweep
from conftest import high_noise, path_network, random_connected_network, ten_bus_network
from oracles import lyapunov_diagnostics

DATA = resources.files("gridfreq") / "data"
HIGH_NOISE = high_noise(10)
MEASURED_NOISE = tuple(NoiseGains(k1=0.1, k2=5.0) for _ in range(10))
DC_REFERENCE = h2_closed_form("DC", 10, 1.0, 0.1, 15.0, 15.0, 0.1, 5.0)


def announce(number, text):
    print(f"CRITERION {number:2d} PASS: {text}")


def bundled(mode):
    suffix = {"IDROOP": "", "CP": "-cp", "DC": "-dc", "VI": "-vi"}[mode]
    return reduce_document(load_document(DATA / f"example-10bus{suffix}.json"))


def with_step(net, bus=9, delta_p=-0.5):
    buses = [
        Bus(id=b.id, inertia=b.inertia, damping=b.damping,
            governor_droop=b.governor_droop,
            injection=b.injection + (delta_p if b.id == bus else 0.0))
        for b in net.buses
    ]
    return PowerNetwork(buses, net.lines)


def test_criterion_01_closed_form_gramian_agreement(ten_bus, dc_fleet):
    start = time.perf_counter()
    model = assemble_closed_loop(ten_bus, dc_fleet, MEASURED_NOISE)
    value = h2_gramian(model).value
    elapsed = time.perf_counter() - start
    gap = abs(value - DC_REFERENCE) / DC_REFERENCE
    assert gap < 1e-6
    assert elapsed < 1.0
    announce(1, f"Gramian {value:.9f} vs closed form {DC_REFERENCE:.9f} "
                f"(rel gap {gap:.2e}, {elapsed * 1e3:.0f} ms)")


def test_criterion_02_infinite_norm_detection(ten_bus):
    expected = 5.0 * 0.15 / 1.15
    vi_model = assemble_closed_loop(
        ten_bus, uniform_fleet(10, "VI", r_r=15.0, m_v=0.15), HIGH_NOISE
    )
    result = h2_frequency_weighted(vi_model)
    assert result.kind == "infinite"
    assert abs(result.feedthrough_gain - expected) < 1e-9

    per_mode = mode_norms(
        modal_decompose(ten_bus, uniform_fleet(10, "VI", r_r=15.0, m_v=0.15), HIGH_NOISE)
    )
    assert all(r.kind == "infinite" for r in per_mode)
    assert all(abs(r.feedthrough_gain - expected) < 1e-9 for r in per_mode)

    # a single derivative-coupled bus in an otherwise clean fleet suffices
    mixed = uniform_fleet(10, "DC", r_r=15.0)
    mixed[4] = InverterConfig.virtual_inertia(r_r=15.0, m_v=0.15)
    mixed_model = assemble_closed_loop(ten_bus, mixed, HIGH_NOISE)
    assert mixed_model.derivative_noise_present
    assert h2_frequency_weighted(mixed_model).kind == "infinite"
    announce(2, f"derivative-noise fleets reported infinite; limiting gain "
                f"{result.feedthrough_gain:.10f} = k3*m_v/(m+m_v)")


def test_criterion_03_swing_baseline(ten_bus):
    reference = h2_closed_form("SWING", 10, 1.0, 0.1, 15.0, k1=0.1)
    model = assemble_closed_loop(
        ten_bus, uniform_fleet(10, "CP"), tuple(NoiseGains(k1=0.1) for _ in range(10))
    )
    value = h2_gramian(model).value
    gap = abs(value - reference) / reference
    assert gap < 1e-9
    announce(3, f"swing-only norm {value:.12f} matches closed form (rel gap {gap:.2e})")


def test_criterion_04_steady_state_consistency():
    net = ten_bus_network(inertia=0.2)  # inertia chosen so 30 s covers settling
    step = (Disturbance(time=1.0, bus=9, delta_p=-0.5),)
    config = SimConfig(dt=0.01, horizon=30.0, disturbances=step)
    fleets = {
        "DC": uniform_fleet(10, "DC", r_r=15.0),
        "VI": uniform_fleet(10, "VI", r_r=15.0, m_v=0.15),
        "IDROOP": uniform_fleet(10, "IDROOP", r_r=15.0, delta=6.0, nu=0.9),
    }
    gaps = {}
    for name, cfgs in fleets.items():
        model = assemble_closed_loop(net, cfgs)
        trajectory = simulate_deterministic(model, config)
        post = steady_state(with_step(net), cfgs)
        metrics = compute_metrics(trajectory, post)
        gaps[name] = abs(metrics.settling_frequency - post.omega0)
        assert gaps[name] < 1e-4, name
        if name == "IDROOP":
            x_gap = np.abs(trajectory.x[-1] - (-post.omega0 / 15.0)).max()
            assert x_gap < 1e-4
    announce(4, "settling matches the synchronous-frequency formula: gaps "
                + ", ".join(f"{k}={v:.1e}" for k, v in gaps.items())
                + f"; idroop states reach -omega0/r_r (gap {x_gap:.1e})")


def test_criterion_05_optimality_theorems():
    rng = np.random.default_rng(19)
    buses = [
        Bus(id=i, inertia=1.0, damping=0.1, governor_droop=float(rng.uniform(5, 40)),
            injection=-0.5 if i == 9 else 0.0)
        for i in range(10)
    ]
    net = PowerNetwork(buses, ten_bus_network().lines)
    cfgs = [InverterConfig.droop(r_r=float(rng.uniform(5, 40))) for _ in range(10)]
    report = verify_steady_state_optimality(net, cfgs, tol=1e-6)
    assert report.passed
    assert abs(report.lambda_star - report.omega0) < 1e-9

    dyn = [InverterConfig.idroop(r_r=c.r_r, delta=6.0, nu=0.9) for c in cfgs]
    report_dyn = verify_steady_state_optimality(net, dyn, tol=1e-6)
    assert report_dyn.passed
    assert abs(report_dyn.lambda_star - report_dyn.omega0) < 1e-9

    # contrapositive guard: cost coefficients that differ from the droops
    mismatched = verify_steady_state_optimality(
        net, cfgs, alpha_r=[c.r_r * 1.5 for c in cfgs], tol=1e-6
    )
    assert not mismatched.passed and mismatched.max_gap_r > 1e-6
    announce(5, f"droop/idroop steady states solve the dispatch problem "
                f"(lambda*=omega0={report.omega0:.6f}); mismatched costs fail "
                f"(gap {mismatched.max_gap_r:.2e})")


def test_criterion_06_stability_certificate_soundness():
    rng = np.random.default_rng(99)
    worst_real = -np.inf
    worst_v_increase = -np.inf
    for _ in range(200):
        net = random_connected_network(rng)
        n = net.n_buses
        cfgs = [
            InverterConfig.idroop(
                r_r=float(rng.uniform(1.0, 50.0)),
                delta=float(10.0 ** rng.uniform(-1.0, 1.0)),
                nu=float(rng.uniform(0.01, 2.0)),
            )
            for _ in range(n)
        ]
        assert check_decentralized_stability(cfgs, net.buses).passed
        model = assemble_closed_loop(net, cfgs)
        eigenvalues = np.linalg.eigvals(model.a)
        structural = np.abs(eigenvalues) <= 1e-9
        assert structural.sum() == 1
        nonzero_max = eigenvalues[~structural].real.max()
        worst_real = max(worst_real, float(nonzero_max))
        assert nonzero_max < 1e-9

        z0 = rng.standard_normal(model.n_states) * 0.2
        trajectory = simulate_deterministic(
            model, SimConfig(dt=0.01, horizon=4.0), initial_state=z0
        )
        values = np.array([
            lyapunov_diagnostics(
                (trajectory.theta_dev[k], trajectory.omega_dev[k],
                 trajectory.states[k, 2 * n:]),
                net, cfgs,
            )[0]
            for k in range(0, trajectory.times.size, 10)
        ])
        increase = float(np.diff(values).max())
        worst_v_increase = max(worst_v_increase, increase)
        assert increase <= 1e-8
    announce(6, f"200 certified draws: max nonzero Re(eig) {worst_real:.3e}, "
                f"max V increase per sample {worst_v_increase:.2e}")


def test_criterion_07_nadir_ordering_and_peak_power():
    config = None
    results = {}
    for mode in ("CP", "DC", "VI", "IDROOP"):
        system = bundled(mode)
        if config is None:
            config = SimConfig(dt=0.01, horizon=30.0, disturbances=system.disturbances)
        model = assemble_closed_loop(system.network, system.configs, system.noise)
        trajectory = simulate_deterministic(model, config)
        post = steady_state(with_step(system.network), system.configs)
        metrics = compute_metrics(trajectory, post)
        peak_at_step = float(np.abs(trajectory.q_r_dev[:, 9]).max())
        results[mode] = (abs(metrics.nadir), peak_at_step)
    assert results["VI"][0] < results["DC"][0]
    assert results["IDROOP"][0] < results["DC"][0]
    assert results["DC"][0] < results["CP"][0]
    assert results["IDROOP"][1] < results["VI"][1]
    announce(7, "nadir |VI| {:.4f} < |DC| {:.4f}, |iDroop| {:.4f} < |DC|, |DC| < |CP| {:.4f}; "
                "iDroop peak power {:.4f} < VI {:.4f}".format(
                    results["VI"][0], results["DC"][0], results["IDROOP"][0],
                    results["CP"][0], results["IDROOP"][1], results["VI"][1]))


def test_criterion_08_h2_sweep():
    system = bundled("IDROOP")
    spec = SweepSpec(
        axes=(
            SweepAxis("delta", 0.5, 10.0, 20, "linear"),
            SweepAxis("nu", 0.001, 2.0, 20, "log"),
        ),
        metric="h2",
    )
    start = time.perf_counter()
    rows = run_sweep(system.network, system.configs, system.noise, spec)
    elapsed = time.perf_counter() - start
    values = np.array([value for *_, value in rows])
    assert values.shape == (400,)
    assert np.isfinite(values).all()
    assert values.min() < DC_REFERENCE  # at least one grid point beats droop

    # the droop fleet is blind to delta/nu: sweeping it leaves the norm constant
    dc = bundled("DC")
    dc_rows = run_sweep(dc.network, dc.configs, dc.noise, spec)
    dc_values = np.array([value for *_, value in dc_rows])
    assert np.all(np.abs(dc_values - dc_values[0]) < 1e-12)
    assert abs(dc_values[0] - DC_REFERENCE) / DC_REFERENCE < 1e-6
    assert elapsed < 60.0
    announce(8, f"20x20 sweep in {elapsed:.1f} s; best iDroop {values.min():.4f} < "
                f"DC {DC_REFERENCE:.4f} at {int((values < DC_REFERENCE).sum())} grid points; "
                f"DC grid constant")


def test_criterion_09_monte_carlo_variance(ten_bus, dc_fleet):
    start = time.perf_counter()
    model = assemble_closed_loop(ten_bus, dc_fleet, MEASURED_NOISE)
    estimates = []
    for seed in range(10):
        trajectory = simulate_stochastic(
            model, SimConfig(dt=0.01, horizon=2000.0, seed=seed, noise_enabled=True)
        )
        estimates.append(compute_metrics(trajectory).empirical_output_variance)
    elapsed = time.perf_counter() - start
    mean = float(np.mean(estimates))
    gap = abs(mean - DC_REFERENCE) / DC_REFERENCE
    assert gap < 0.10
    assert elapsed < 120.0
    announce(9, f"empirical variance {mean:.4f} vs analytic {DC_REFERENCE:.4f} "
                f"(rel gap {gap:.1%}, 10 seeds, {elapsed:.0f} s)")


def test_criterion_10_modal_consistency():
    net = path_network(5)
    cfgs = uniform_fleet(5, "DC", r_r=15.0)
    noise = tuple(NoiseGains(k1=0.1, k2=5.0) for _ in range(5))
    total = sum(r.value for r in mode_norms(modal_decompose(net, cfgs, noise)))
    full = h2_gramian(assemble_closed_loop(net, cfgs, noise)).value
    gap = abs(total - full) / full
    assert gap < 1e-8
    announce(10, f"sum of per-mode norms {total:.12f} equals full norm (rel gap {gap:.2e})")
