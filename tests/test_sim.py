import os
import warnings

import numpy as np
import pytest

from gridfreq import (
    Bus,
    Disturbance,
    InverterConfig,
    NoiseGains,
    PowerNetwork,
    SimConfig,
    Trajectory,
    ValidationError,
    assemble_closed_loop,
    compute_metrics,
    h2_closed_form,
    simulate_deterministic,
    simulate_stochastic,
    steady_state,
    uniform_fleet,
)
from conftest import high_noise, random_connected_network, ten_bus_network
from oracles import lyapunov_diagnostics
import oracles

STEP = (Disturbance(time=1.0, bus=9, delta_p=-0.5),)


def stepped_network(base=None, bus=9, delta_p=-0.5):
    net = base or ten_bus_network()
    buses = [
        Bus(id=b.id, inertia=b.inertia, damping=b.damping,
            governor_droop=b.governor_droop,
            injection=b.injection + (delta_p if b.id == bus else 0.0))
        for b in net.buses
    ]
    return PowerNetwork(buses, net.lines)


class TestSimConfig:
    def test_rejects_bad_grid(self):
        with pytest.raises(ValidationError):
            SimConfig(dt=0.0, horizon=1.0)
        with pytest.raises(ValidationError):
            SimConfig(dt=2.0, horizon=1.0)
        with pytest.raises(ValidationError):
            SimConfig(dt=0.1, horizon=1.0, disturbances=(Disturbance(5.0, 0, 1.0),))
        for dt, horizon in [(np.nan, 1.0), (np.inf, np.inf), (0.01, np.inf), (0.01, np.nan)]:
            with pytest.raises(ValidationError, match="must be finite"):
                SimConfig(dt=dt, horizon=horizon)

    @pytest.mark.parametrize("noise", [False, True], ids=["deterministic", "stochastic"])
    def test_memory_bound_counts_the_run_s_peak(self, monkeypatch, ten_bus, idroop_fleet, noise):
        """1000 steps of 30 states and 10 buses hold 0.24 MB of states but
        0.8 MB at their peak; a machine with memory in between rejects the
        run, and one with the full need runs it."""
        model = assemble_closed_loop(ten_bus, idroop_fleet)
        config = SimConfig(dt=0.01, horizon=10.0, seed=1 if noise else None, noise_enabled=noise)
        simulate = simulate_stochastic if noise else simulate_deterministic
        need = 1001 * (2 * 30 + 4 * 10) * 8
        pages = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": 40_000}
        assert 1001 * 30 * 8 < 8 * 40_000 < need
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        with pytest.raises(ValidationError, match=r"^1e\+03 steps \(horizon / dt\) need 8\.01e\+05 "
                                                  r"bytes at the run's peak, more than the "
                                                  r"3\.2e\+05 bytes of physical memory$"):
            simulate(model, config)
        pages["SC_PHYS_PAGES"] = need // 8
        assert simulate(model, config).states.shape == (1001, 30)


class TestDeterministic:
    def test_non_finite_injection_names_the_bus(self, ten_bus, dc_fleet):
        # only samples 100-199 overflow: the sums from t = 2 on are finite again
        steps = (Disturbance(1.0, 3, 1e308), Disturbance(2.0, 3, -1e308),
                 Disturbance(1.0, 3, 1e308))
        model = assemble_closed_loop(ten_bus, dc_fleet)
        with pytest.raises(ValidationError, match="bus 3 sum to a non-finite injection"):
            simulate_deterministic(model, SimConfig(dt=0.01, horizon=3.0, disturbances=steps))

    def test_equilibrium_start_stays_at_zero(self, ten_bus, dc_fleet):
        model = assemble_closed_loop(ten_bus, dc_fleet)
        trajectory = simulate_deterministic(model, SimConfig(dt=0.01, horizon=2.0))
        assert np.abs(trajectory.omega_dev).max() == 0.0
        assert np.abs(trajectory.theta_dev).max() == 0.0

    def test_linearity_in_disturbance(self, ten_bus, dc_fleet):
        model = assemble_closed_loop(ten_bus, dc_fleet)
        single = simulate_deterministic(
            model, SimConfig(dt=0.01, horizon=5.0, disturbances=STEP)
        )
        double = simulate_deterministic(
            model,
            SimConfig(dt=0.01, horizon=5.0,
                      disturbances=(Disturbance(1.0, 9, -1.0),)),
        )
        assert np.allclose(2.0 * single.omega_dev, double.omega_dev, atol=1e-13)
        assert np.allclose(2.0 * single.q_r_dev, double.q_r_dev, atol=1e-13)

    def test_halving_dt_barely_moves_trajectory(self, ten_bus, idroop_fleet):
        model = assemble_closed_loop(ten_bus, idroop_fleet)
        coarse = simulate_deterministic(
            model, SimConfig(dt=0.01, horizon=5.0, disturbances=STEP)
        )
        fine = simulate_deterministic(
            model, SimConfig(dt=0.005, horizon=5.0, disturbances=STEP)
        )
        gap = np.abs(coarse.omega_dev - fine.omega_dev[::2]).max()
        assert gap < 1e-6

    def test_step_snaps_to_next_grid_point(self, ten_bus, dc_fleet):
        model = assemble_closed_loop(ten_bus, dc_fleet)
        trajectory = simulate_deterministic(
            model,
            SimConfig(dt=0.01, horizon=2.0,
                      disturbances=(Disturbance(1.0049, 9, -0.5),)),
        )
        k = np.searchsorted(trajectory.times, 1.01)
        assert np.abs(trajectory.omega_dev[: k]).max() == 0.0
        assert np.abs(trajectory.omega_dev[k + 1]).max() > 0.0

    def test_virtual_inertia_power_jumps_at_event(self, ten_bus):
        cfgs = uniform_fleet(10, "VI", r_r=15.0, m_v=0.15)
        model = assemble_closed_loop(ten_bus, cfgs)
        trajectory = simulate_deterministic(
            model, SimConfig(dt=0.01, horizon=3.0, disturbances=STEP)
        )
        k = np.searchsorted(trajectory.times, 1.0)
        jump = trajectory.q_r_dev[k, 9] - trajectory.q_r_dev[k - 1, 9]
        # the event makes the frequency derivative jump by -0.5/1.15
        assert jump == pytest.approx(0.15 * 0.5 / 1.15, rel=1e-6)

    def test_rejects_noise_enabled(self, ten_bus, dc_fleet):
        model = assemble_closed_loop(ten_bus, dc_fleet)
        with pytest.raises(ValidationError):
            simulate_deterministic(model, SimConfig(dt=0.01, horizon=1.0, noise_enabled=True))

    def test_settling_matches_frequency_formula(self):
        # fast-settling fleet (m = 0.2) so 30 s covers many time constants
        net = ten_bus_network(inertia=0.2)
        cfgs = uniform_fleet(10, "DC", r_r=15.0)
        model = assemble_closed_loop(net, cfgs)
        trajectory = simulate_deterministic(
            model, SimConfig(dt=0.01, horizon=30.0, disturbances=STEP)
        )
        post = steady_state(stepped_network(net), cfgs)
        metrics = compute_metrics(trajectory, post)
        assert metrics.settling_frequency == pytest.approx(post.omega0, abs=1e-4)


FLEETS = {
    "CP": {},
    "DC": {"r_r": 15.0},
    "VI": {"r_r": 15.0, "m_v": 0.15},
    "IDROOP": {"r_r": 15.0, "delta": 6.0, "nu": 0.9},
}


def mixed_fleet_model(rng):
    """A random heterogeneous network under a CP/DC/VI/IDROOP fleet (bus i
    runs mode i mod 4) with injection, measurement and derivative noise on
    every bus."""
    net = random_connected_network(rng, n_min=6, n_max=8)
    fleet = []
    for i in range(net.n_buses):
        r_r = float(rng.uniform(5.0, 30.0))
        fleet.append([InverterConfig.constant_power(),
                      InverterConfig.droop(r_r=r_r),
                      InverterConfig.virtual_inertia(r_r=r_r, m_v=float(rng.uniform(0.05, 0.3))),
                      InverterConfig.idroop(r_r=r_r, delta=float(rng.uniform(1.0, 8.0)),
                                            nu=float(rng.uniform(0.1, 1.0)))][i % 4])
    noise = [NoiseGains(*rng.uniform([0.05, 1.0, 1.0], [0.2, 5.0, 5.0]))
             for _ in range(net.n_buses)]
    return assemble_closed_loop(net, fleet, noise)


class TestMarchAgainstReference:
    """The precomputed-drive march against the per-step reference loop."""

    @pytest.mark.parametrize("mode", FLEETS)
    def test_deterministic_is_bitwise_equal(self, ten_bus, mode):
        model = assemble_closed_loop(ten_bus, uniform_fleet(10, mode, **FLEETS[mode]))
        config = SimConfig(dt=0.01, horizon=5.0, disturbances=STEP)
        start = np.random.default_rng(0).normal(scale=0.1, size=model.n_states)
        states = simulate_deterministic(model, config, initial_state=start).states
        assert np.array_equal(states, oracles.reference_march(model, config, start))

    @pytest.mark.parametrize("disturbances", [(), STEP], ids=["noise-only", "with-step"])
    @pytest.mark.parametrize("mode", FLEETS)
    def test_stochastic_matches(self, ten_bus, mode, disturbances):
        model = assemble_closed_loop(ten_bus, uniform_fleet(10, mode, **FLEETS[mode]),
                                     high_noise(10))
        config = SimConfig(dt=0.01, horizon=5.0, disturbances=disturbances, seed=11,
                           noise_enabled=True)
        states = simulate_stochastic(model, config).states
        reference = oracles.reference_march(
            model, config, increments=oracles.noise_increments(model, config))
        if not disturbances:
            assert np.array_equal(states, reference)
        else:
            # the drive sums the increment and psi @ u before phi @ z is added
            assert np.abs(states - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_mixed_fleet_deterministic_is_bitwise_equal(self):
        model = mixed_fleet_model(np.random.default_rng(8))
        config = SimConfig(dt=0.01, horizon=20.0,
                           disturbances=(Disturbance(time=1.0, bus=1, delta_p=-0.5),))
        start = np.random.default_rng(0).normal(scale=0.1, size=model.n_states)
        states = simulate_deterministic(model, config, initial_state=start).states
        assert np.array_equal(states, oracles.reference_march(model, config, start))

    def test_mixed_fleet_noise_only_is_bitwise_equal(self):
        model = mixed_fleet_model(np.random.default_rng(8))
        config = SimConfig(dt=0.01, horizon=20.0, seed=11, noise_enabled=True)
        states = simulate_stochastic(model, config).states
        reference = oracles.reference_march(
            model, config, increments=oracles.noise_increments(model, config))
        assert np.array_equal(states, reference)

    def test_rejects_non_finite_initial_state(self, ten_bus, dc_fleet):
        model = assemble_closed_loop(ten_bus, dc_fleet)
        start = np.zeros(model.n_states)
        start[3] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            simulate_deterministic(model, SimConfig(dt=0.01, horizon=1.0), initial_state=start)


class TestLyapunovAlongTrajectories:
    def test_v_nonincreasing_after_disturbance(self):
        net = ten_bus_network()
        cfgs = uniform_fleet(10, "IDROOP", r_r=15.0, delta=6.0, nu=0.9)
        model = assemble_closed_loop(net, cfgs)
        trajectory = simulate_deterministic(
            model, SimConfig(dt=0.01, horizon=20.0, disturbances=STEP)
        )
        # shift into deviations about the post-step equilibrium; uniform-angle
        # components are invisible to V so the synchronous ramp drops out
        post = steady_state(stepped_network(net), cfgs)
        pre = model.reference
        dtheta = trajectory.theta_dev - (post.theta_star - pre.theta_star)[None, :]
        domega = trajectory.omega_dev - post.omega0
        dx = trajectory.x - post.x_star[None, :]
        start = np.searchsorted(trajectory.times, 1.0) + 1
        values = [
            lyapunov_diagnostics((dtheta[k], domega[k], dx[k]), net, cfgs)[0]
            for k in range(start, trajectory.times.size, 5)
        ]
        diffs = np.diff(values)
        assert diffs.max() <= 1e-8
        assert values[-1] < values[0]


class TestStochastic:
    def test_zero_gains_reduce_to_deterministic_bit_for_bit(self, ten_bus, dc_fleet):
        model = assemble_closed_loop(ten_bus, dc_fleet)  # all gains zero
        det = simulate_deterministic(
            model, SimConfig(dt=0.01, horizon=5.0, disturbances=STEP)
        )
        sto = simulate_stochastic(
            model,
            SimConfig(dt=0.01, horizon=5.0, disturbances=STEP, seed=5, noise_enabled=True),
        )
        assert np.array_equal(det.states, sto.states)

    def test_same_seed_reproduces_exactly(self, ten_bus, dc_fleet):
        noise = [NoiseGains(k1=0.1, k2=5.0)] * 10
        model = assemble_closed_loop(ten_bus, dc_fleet, noise)
        config = SimConfig(dt=0.01, horizon=10.0, seed=123, noise_enabled=True)
        first = simulate_stochastic(model, config)
        second = simulate_stochastic(model, config)
        assert np.array_equal(first.states, second.states)
        different = simulate_stochastic(
            model, SimConfig(dt=0.01, horizon=10.0, seed=124, noise_enabled=True)
        )
        assert not np.array_equal(first.states, different.states)

    def test_requires_seed(self, ten_bus, dc_fleet):
        model = assemble_closed_loop(ten_bus, dc_fleet)
        with pytest.raises(ValidationError):
            simulate_stochastic(model, SimConfig(dt=0.01, horizon=1.0, noise_enabled=True))

    def test_droop_variance_tracks_closed_form(self, ten_bus, dc_fleet):
        # short-horizon version of the Monte-Carlo acceptance check
        noise = [NoiseGains(k1=0.1, k2=5.0)] * 10
        model = assemble_closed_loop(ten_bus, dc_fleet, noise)
        values = []
        for seed in range(4):
            trajectory = simulate_stochastic(
                model, SimConfig(dt=0.01, horizon=500.0, seed=seed, noise_enabled=True)
            )
            values.append(compute_metrics(trajectory).empirical_output_variance)
        reference = h2_closed_form("DC", 10, 1.0, 0.1, 15.0, 15.0, 0.1, 5.0)
        assert np.mean(values) == pytest.approx(reference, rel=0.2)

    def test_idroop_variance_tracks_weighted_norm(self, ten_bus):
        # derivative-noise channel driven by the difference quotient of the
        # same measurement-noise path: the empirical variance approaches the
        # frequency-weighted norm, the only finite route for this fleet
        from gridfreq import h2_frequency_weighted

        cfgs = uniform_fleet(10, "IDROOP", r_r=15.0, delta=6.0, nu=0.01)
        model = assemble_closed_loop(ten_bus, cfgs, high_noise(10))
        reference = h2_frequency_weighted(model).value
        values = []
        for seed in range(4):
            trajectory = simulate_stochastic(
                model, SimConfig(dt=0.005, horizon=500.0, seed=seed, noise_enabled=True)
            )
            values.append(compute_metrics(trajectory).empirical_output_variance)
        assert np.mean(values) == pytest.approx(reference, rel=0.2)

    def test_idroop_fluctuates_less_than_droop(self, ten_bus, dc_fleet):
        noise = high_noise(10)
        droop_model = assemble_closed_loop(ten_bus, dc_fleet, noise)
        dyn_model = assemble_closed_loop(
            ten_bus, uniform_fleet(10, "IDROOP", r_r=15.0, delta=6.0, nu=0.01), noise
        )
        config = SimConfig(dt=0.01, horizon=500.0, seed=7, noise_enabled=True)
        droop_var = compute_metrics(simulate_stochastic(droop_model, config)).empirical_output_variance
        dyn_var = compute_metrics(simulate_stochastic(dyn_model, config)).empirical_output_variance
        assert dyn_var < droop_var


class TestMetrics:
    def make_trajectory(self, times, omega, q_r=None, base_omega0=0.0):
        n = omega.shape[1]
        zeros = np.zeros_like(omega)
        return Trajectory(
            times=times,
            theta_dev=zeros,
            omega_dev=omega,
            q_r_dev=q_r if q_r is not None else zeros,
            x=np.zeros((omega.shape[0], 0)),
            idroop_buses=(),
            states=np.hstack([zeros, omega]),
            base_omega0=base_omega0,
        )

    def test_zero_trajectory_zero_metrics(self):
        times = np.linspace(0.0, 1.0, 11)
        metrics = compute_metrics(self.make_trajectory(times, np.zeros((11, 2))))
        assert metrics.nadir == 0.0
        assert metrics.settling_frequency == 0.0
        assert metrics.peak_inverter_power == 0.0
        assert metrics.empirical_output_variance == 0.0

    def test_scripted_ramp_minimum(self):
        times = np.linspace(0.0, 4.0, 401)
        omega = np.zeros((401, 1))
        omega[:, 0] = -0.3 * np.exp(-((times - 2.0) ** 2) / 0.1)
        metrics = compute_metrics(self.make_trajectory(times, omega))
        assert metrics.nadir == pytest.approx(-0.3)

    def test_nadir_keeps_disturbance_sign(self):
        times = np.linspace(0.0, 1.0, 101)
        omega = np.zeros((101, 1))
        omega[:, 0] = 0.2 * np.sin(times * np.pi)
        metrics = compute_metrics(self.make_trajectory(times, omega))
        assert metrics.nadir == pytest.approx(0.2, abs=1e-3)

    def test_nadir_negative_for_load_increase(self, ten_bus, dc_fleet):
        model = assemble_closed_loop(ten_bus, dc_fleet)
        trajectory = simulate_deterministic(
            model, SimConfig(dt=0.01, horizon=10.0, disturbances=STEP)
        )
        metrics = compute_metrics(trajectory)
        assert metrics.nadir < 0.0
        assert abs(metrics.nadir) >= abs(metrics.settling_frequency) - 1e-12


class TestDivergenceGuard:
    def test_unstable_system_aborts_with_context(self, ten_bus):
        from dataclasses import replace

        from gridfreq import SimulationDiverged

        cfgs = uniform_fleet(10, "DC", r_r=15.0)
        model = assemble_closed_loop(ten_bus, cfgs)
        # flip and scale A to make the loop violently unstable
        model = replace(model, a=-10.0 * model.a)
        bad = SimConfig(dt=0.5, horizon=2000.0, disturbances=(Disturbance(0.0, 0, 1.0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning may escape the march
            with pytest.raises(SimulationDiverged) as excinfo:
                simulate_deterministic(model, bad)
        assert np.all(np.isfinite(excinfo.value.state))
        assert excinfo.value.time >= 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationDiverged) as reference:
                oracles.reference_march(model, bad)
        assert str(excinfo.value) == str(reference.value)
        assert excinfo.value.time == reference.value.time
        assert np.array_equal(excinfo.value.state, reference.value.state)
