import math
import os
import re
import tracemalloc
import warnings
from dataclasses import astuple, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from gridfreq import (
    Bus,
    Disturbance,
    InverterConfig,
    Metrics,
    NoiseGains,
    NumericalError,
    PowerNetwork,
    SimConfig,
    Trajectory,
    ValidationError,
    assemble_closed_loop,
    compute_metrics,
    simulate_deterministic,
    simulate_stochastic,
    steady_state,
    uniform_fleet,
)
from gridfreq.cli import _write_trajectory_csv
from gridfreq.errors import InjectionOverflow
from gridfreq.sim import BLOCK_STEPS, _input_events
from conftest import high_noise, random_connected_network, ten_bus_network
from oracles import h2_closed_form, lyapunov_diagnostics
import oracles

STEP = (Disturbance(time=1.0, bus=9, delta_p=-0.5),)
# three full blocks and a partial one, at dt = 0.01
SEAMS_HORIZON = (3 * BLOCK_STEPS + 17) * 0.01


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
        for dt, horizon in [(np.nan, 1.0), (np.inf, np.inf), (0.01, np.inf), (0.01, np.nan),
                            ("0.01", 1.0), (None, 1.0), (0.01, "1.0"), (0.01, None),
                            (True, 1.0), (0.01, True)]:
            with pytest.raises(ValidationError, match="must be finite"):
                SimConfig(dt=dt, horizon=horizon)
        for seed in ["3", 3.0, True]:
            with pytest.raises(ValidationError, match=f"^seed must be an integer, got {seed!r}$"):
                SimConfig(seed=seed)
        with pytest.raises(ValidationError, match="^seed must be >= 0, got -1$"):
            SimConfig(seed=-1)
        with pytest.raises(ValidationError,
                           match="^disturbances must be Disturbance records, got 1$"):
            SimConfig(disturbances=[1])

    def test_run_and_metrics_need_no_steady_state_and_x_names_the_failure(self, ten_bus, dc_fleet):
        """Neither the march nor the metrics solve the model's reference steady
        state: a run whose net injection overflows returns its states and its
        metrics, and only x, which reads that steady state, raises its error."""
        net = PowerNetwork([replace(b, injection=1e308) for b in ten_bus.buses], ten_bus.lines)
        trajectory = simulate_deterministic(assemble_closed_loop(net, dc_fleet),
                                            SimConfig(dt=0.01, horizon=1.0))
        assert trajectory.states.shape == (101, 20) and not trajectory.states.any()
        assert compute_metrics(trajectory) == Metrics(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValidationError, match="^bus injections and inverter setpoints q0 sum "
                                                  "to a non-finite net injection$"):
            trajectory.x

    def test_model_without_steady_state_is_measured(self):
        """A fleet with zero total damping has no synchronous frequency, yet
        its run and its metrics are finite; only x asks for the steady state."""
        model = assemble_closed_loop(ten_bus_network(damping=0.0, governor_droop=math.inf),
                                     uniform_fleet(10, "CP"))
        trajectory = simulate_deterministic(model, SimConfig(
            dt=0.01, horizon=2.0, disturbances=(Disturbance(time=0.5, bus=9, delta_p=-0.5),)))
        metrics = compute_metrics(trajectory)
        assert np.isfinite(astuple(metrics)).all() and metrics.nadir < 0.0
        with pytest.raises(ValidationError, match="^zero total damping"):
            trajectory.x

    @pytest.mark.parametrize("noise", [False, True], ids=["deterministic", "stochastic"])
    def test_memory_bound_counts_the_run_s_peak(self, monkeypatch, ten_bus, idroop_fleet, noise):
        """1000 steps of 30 states and 10 buses hold 0.24 MB of states but
        1.16 MB at their peak, their times, the metrics' row sums, one
        block's temporaries and one block's CSV table included; a machine
        with memory in between rejects the run, and one with the full need
        runs it."""
        model = assemble_closed_loop(ten_bus, idroop_fleet)
        config = SimConfig(dt=0.01, horizon=10.0, seed=1 if noise else None, noise_enabled=noise)
        simulate = simulate_stochastic if noise else simulate_deterministic
        need = (1001 * (30 + 1) + 1002 // 2
                + (BLOCK_STEPS + 1) * (30 + 4 * 10 + 1 + 3 * 10 + 10)) * 8
        pages = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": 40_000}
        assert 1001 * 30 * 8 < 8 * 40_000 < need
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        with pytest.raises(ValidationError, match=r"^1e\+03 steps \(horizon / dt\) need 1\.16e\+06 "
                                                  r"bytes at the run's peak, more than the "
                                                  r"3\.2e\+05 bytes of physical memory$"):
            simulate(model, config)
        pages["SC_PHYS_PAGES"] = need // 8
        assert simulate(model, config).states.shape == (1001, 30)

    @pytest.mark.parametrize("horizon", [10.0, SEAMS_HORIZON], ids=["one-block", "seams"])
    @pytest.mark.parametrize("noise", [False, True], ids=["deterministic", "stochastic"])
    def test_run_and_metrics_stay_within_the_count(self, ten_bus, idroop_fleet, noise, horizon):
        """tracemalloc's peak over a run and its metrics is at most the bytes
        that the memory bound counts: d + 1 floats a step, half a float a step
        of the metrics' row sums and one block of d + 4n floats a row for its
        temporaries and 1 + 3n + n_idroop for the CSV's table."""
        model = assemble_closed_loop(ten_bus, idroop_fleet, high_noise(10))
        config = SimConfig(dt=0.01, horizon=horizon, disturbances=STEP,
                           seed=1 if noise else None, noise_enabled=noise)
        simulate = simulate_stochastic if noise else simulate_deterministic
        model.reference  # solved once, outside the trace
        steps = round(horizon / 0.01)
        count = ((steps + 1) * (30 + 1) + (steps + 2) // 2
                 + (BLOCK_STEPS + 1) * (30 + 4 * 10 + 1 + 3 * 10 + 10)) * 8
        tracemalloc.start()
        try:
            compute_metrics(simulate(model, config))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (steps + 1) * 30 * 8 < peak <= count

    @pytest.mark.parametrize("horizon", [10.0, 30.0, SEAMS_HORIZON],
                             ids=["one-block", "30s", "seams"])
    @pytest.mark.parametrize("noise", [False, True], ids=["deterministic", "stochastic"])
    def test_run_metrics_and_csv_stay_within_the_count(self, tmp_path, ten_bus, idroop_fleet,
                                                       noise, horizon):
        """Writing the trajectory CSV as well keeps tracemalloc's peak within
        the count: each block's table holds 1 + 3n + n_idroop floats a row,
        and its rows become Python floats one row at a time."""
        model = assemble_closed_loop(ten_bus, idroop_fleet, high_noise(10))
        config = SimConfig(dt=0.01, horizon=horizon, disturbances=STEP,
                           seed=1 if noise else None, noise_enabled=noise)
        simulate = simulate_stochastic if noise else simulate_deterministic
        model.reference  # solved once, outside the trace
        steps = round(horizon / 0.01)
        count = ((steps + 1) * (30 + 1) + (steps + 2) // 2
                 + (BLOCK_STEPS + 1) * (30 + 4 * 10 + 1 + 3 * 10 + 10)) * 8
        tracemalloc.start()
        try:
            trajectory = simulate(model, config)
            compute_metrics(trajectory)
            _write_trajectory_csv(tmp_path / "trajectory.csv", trajectory, range(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (steps + 1) * 30 * 8 < peak <= count


    def test_a_returned_run_holds_only_its_states(self, ten_bus, idroop_fleet):
        """After a 500 s stochastic run returns, tracemalloc finds d floats a
        step, the states, and a few small arrays; no other field of the run
        spans its length."""
        model = assemble_closed_loop(ten_bus, idroop_fleet, high_noise(10))
        config = SimConfig(dt=0.01, horizon=500.0, seed=1, noise_enabled=True)
        simulate_stochastic(model, replace(config, horizon=1.0))  # the reference and numpy.random
        tracemalloc.start()
        try:
            trajectory = simulate_stochastic(model, config)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 50_001 * 30 * 8 < held <= 50_001 * 30 * 8 + 16_384
        spans = [name for name, value in vars(trajectory).items()
                 if np.ndim(value) and len(value) == 50_001]
        assert spans == ["states"]

    def test_a_run_is_its_states_model_and_config(self, ten_bus, dc_fleet):
        """A run's record holds what made it, and its times are the march's
        grid, k * dt, bit for bit."""
        assert [f.name for f in fields(Trajectory)] == ["states", "model", "config"]
        config = SimConfig(dt=0.03, horizon=40.0, disturbances=STEP)
        trajectory = simulate_deterministic(assemble_closed_loop(ten_bus, dc_fleet), config)
        assert trajectory.config is config
        assert trajectory.times.tobytes() == (np.arange(1334 + 1) * 0.03).tobytes()


class TestDisturbance:
    @pytest.mark.parametrize("bus, delta_p, message", [
        (1.5, -0.5, "disturbance bus must be an integer, got 1.5"),
        (True, -0.5, "disturbance bus must be an integer, got True"),
        (np.bool_(True), -0.5, "disturbance bus must be an integer, got .*True.*"),
        ("2", -0.5, "disturbance bus must be an integer, got '2'"),
        (None, -0.5, "disturbance bus must be an integer, got None"),
        (2, np.nan, "disturbance delta_p must be finite, got nan"),
        (2, np.inf, "disturbance delta_p must be finite, got inf"),
        (2, -np.inf, "disturbance delta_p must be finite, got -inf"),
        (2, "x", "disturbance delta_p must be finite, got x"),
        (2, None, "disturbance delta_p must be finite, got None"),
        (2, False, "disturbance delta_p must be finite, got False"),
        pytest.param(2, 10**400, "disturbance delta_p must be finite, got 10{400}",
                     id="2-int-past-the-float-range"),
    ])
    def test_rejects_bad_values_by_name(self, bus, delta_p, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Disturbance(time=1.0, bus=bus, delta_p=delta_p)

    @pytest.mark.parametrize("time", ["1.0", None, np.nan, np.inf, True])
    def test_rejects_a_time_that_is_not_a_finite_number(self, time):
        with pytest.raises(ValidationError, match=f"^disturbance time must be finite, got {time}$"):
            Disturbance(time=time, bus=2, delta_p=-0.5)

    @pytest.mark.parametrize("bus", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_bus_is_the_same_step(self, ten_bus, dc_fleet, bus):
        model = assemble_closed_loop(ten_bus, dc_fleet)
        runs = [simulate_deterministic(model, SimConfig(dt=0.01, horizon=3.0, disturbances=(
            Disturbance(time=1.0, bus=b, delta_p=-0.5),))).states for b in (bus, 2)]
        assert np.array_equal(*runs)


class TestDeterministic:
    def test_non_finite_injection_names_the_bus(self, ten_bus, dc_fleet):
        # only samples 100-199 overflow: the sums from t = 2 on are finite again
        steps = (Disturbance(1.0, 3, 1e308), Disturbance(2.0, 3, -1e308),
                 Disturbance(1.0, 3, 1e308))
        model = assemble_closed_loop(ten_bus, dc_fleet)
        with pytest.raises(ValidationError, match="bus 3 sum to a non-finite injection"):
            simulate_deterministic(model, SimConfig(dt=0.01, horizon=3.0, disturbances=steps))

    def test_overflow_in_a_later_block_names_the_bus_before_any_block(
            self, monkeypatch, ten_bus, dc_fleet):
        # Bus 5's sums overflow in rows 100-199, in the first block, and bus
        # 3's from row 2100 on, in the third.  As a check of the whole run
        # would, the error names bus 3, and it comes before any block is
        # marched or any array of the run's length is allocated.
        import gridfreq.sim

        steps = (Disturbance(1.0, 5, 1e308), Disturbance(2.0, 5, -1e308),
                 Disturbance(1.0, 5, 1e308), Disturbance(21.0, 3, 1e308),
                 Disturbance(21.0, 3, 1e308))
        model = assemble_closed_loop(ten_bus, dc_fleet)
        config = SimConfig(dt=0.01, horizon=SEAMS_HORIZON, disturbances=steps)
        with pytest.raises(InjectionOverflow):  # any lazy import happens outside the trace
            simulate_deterministic(model, config)
        blocks = gridfreq.sim._blocks
        started = []

        def counted(n_rows, start=0):
            for blk in blocks(n_rows, start):
                started.append(blk)
                yield blk

        monkeypatch.setattr(gridfreq.sim, "_blocks", counted)
        tracemalloc.start()
        try:
            with pytest.raises(InjectionOverflow, match="bus 3 sum") as excinfo:
                simulate_deterministic(model, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert excinfo.value.bus == 3
        assert started == []
        assert peak < (3 * BLOCK_STEPS + 18) * 8  # less than one float a sample

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

    @pytest.mark.parametrize("horizon,steps", [(0.015, 2), (0.025, 3), (0.035, 4)])
    def test_run_ends_at_the_first_grid_point_at_or_after_the_horizon(
            self, ten_bus, dc_fleet, horizon, steps):
        """A run and its disturbances snap to the grid by one rule, so a step at
        the horizon starts on the run's last row instead of falling past it."""
        model = assemble_closed_loop(ten_bus, dc_fleet)
        config = SimConfig(dt=0.01, horizon=horizon, disturbances=(Disturbance(horizon, 2, 0.5),))
        trajectory = simulate_deterministic(model, config)
        assert len(trajectory.times) == steps + 1
        rows, inputs = _input_events(config, model.n_buses)
        assert rows.tolist() == [0, steps]
        assert inputs[1, 2] == 0.5

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
        metrics = compute_metrics(trajectory)
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


def dense_model(ten_bus, rng):
    """The iDroop fleet with dense random noise, input and output matrices,
    so that each product sums many terms and any change in its order shows."""
    model = assemble_closed_loop(ten_bus, uniform_fleet(10, "IDROOP", **FLEETS["IDROOP"]))
    d, n = model.n_states, model.n_buses
    return replace(model, b=rng.normal(size=(d, 3 * n)) * np.repeat([1.0, 1.0, 0.01], n),
                   power=rng.normal(size=(n, d)), power_injection=rng.normal(size=(n, n)))


class TestMarchAgainstReference:
    """The precomputed-drive march against the per-step reference loop.  The
    runs of 5 s fit in one block; the ``across_block_seams`` runs take the
    same assertions over three full blocks and a partial one."""

    @pytest.mark.parametrize("mode", FLEETS)
    def test_deterministic_is_bitwise_equal(self, ten_bus, mode, horizon=5.0):
        model = assemble_closed_loop(ten_bus, uniform_fleet(10, mode, **FLEETS[mode]))
        config = SimConfig(dt=0.01, horizon=horizon, disturbances=STEP)
        start = np.random.default_rng(0).normal(scale=0.1, size=model.n_states)
        states = simulate_deterministic(model, config, initial_state=start).states
        assert np.array_equal(states, oracles.reference_march(model, config, start))

    @pytest.mark.parametrize("mode", FLEETS)
    def test_one_step_is_the_butcher_rk4_step(self, ten_bus, mode):
        """The march's first step, phi z + psi u, against an RK4 step taken
        from the four stages, which shares no code with phi and psi."""
        model = assemble_closed_loop(ten_bus, uniform_fleet(10, mode, **FLEETS[mode]))
        rng = np.random.default_rng(1)
        z, u = rng.normal(size=model.n_states), rng.normal(size=model.n_buses)
        steps = tuple(Disturbance(0.0, bus, float(u[bus])) for bus in range(model.n_buses))
        config = SimConfig(dt=0.01, horizon=0.01, disturbances=steps)
        step = simulate_deterministic(model, config, initial_state=z).states[1]
        reference = oracles.rk4_step(model.a, model.injection, z, u, 0.01)
        assert np.abs(step - reference).max() <= 1e-14 * np.abs(reference).max()

    @pytest.mark.parametrize("mode", FLEETS)
    def test_deterministic_is_bitwise_equal_across_block_seams(self, ten_bus, mode):
        self.test_deterministic_is_bitwise_equal(ten_bus, mode, SEAMS_HORIZON)

    @pytest.mark.parametrize("disturbances", [(), STEP], ids=["noise-only", "with-step"])
    @pytest.mark.parametrize("mode", FLEETS)
    def test_stochastic_matches(self, ten_bus, mode, disturbances, horizon=5.0):
        model = assemble_closed_loop(ten_bus, uniform_fleet(10, mode, **FLEETS[mode]),
                                     high_noise(10))
        config = SimConfig(dt=0.01, horizon=horizon, disturbances=disturbances, seed=11,
                           noise_enabled=True)
        states = simulate_stochastic(model, config).states
        reference = oracles.reference_march(
            model, config, increments=oracles.noise_increments(model, config))
        if not disturbances:
            assert np.array_equal(states, reference)
        else:
            # the drive sums the increment and psi @ u before phi @ z is added
            assert np.abs(states - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("disturbances", [(), STEP], ids=["noise-only", "with-step"])
    @pytest.mark.parametrize("mode", FLEETS)
    def test_stochastic_matches_across_block_seams(self, ten_bus, mode, disturbances):
        self.test_stochastic_matches(ten_bus, mode, disturbances, SEAMS_HORIZON)

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

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_block_seams_keep_the_bits_of_dense_products(self, ten_bus, extra):
        """Runs whose last block would be a single row, or is a short one:
        the states and the power trace are bitwise those of whole-array
        products (numpy multiplies a single row by another BLAS routine)."""
        model = dense_model(ten_bus, np.random.default_rng(4))
        config = SimConfig(dt=0.01, horizon=(2 * BLOCK_STEPS + extra) * 0.01, seed=11,
                           noise_enabled=True)
        trajectory = simulate_stochastic(model, config)
        reference = oracles.reference_march(
            model, config, increments=oracles.noise_increments(model, config))
        assert np.array_equal(trajectory.states, reference)
        assert np.array_equal(trajectory.q_r_dev, reference @ model.power.T)

    @pytest.mark.parametrize("noise", [False, True], ids=["deterministic", "stochastic"])
    def test_power_trace_reads_inputs_that_change_on_block_seams(self, ten_bus, noise):
        """A VI fleet's power trace reads the inputs too.  With steps that start
        on rows that start blocks, the event table holds one row per start and
        expands to the inputs row for row, and q_r_dev is bitwise the
        whole-array product of the states and the inputs."""
        model = assemble_closed_loop(ten_bus, uniform_fleet(10, "VI", **FLEETS["VI"]),
                                     high_noise(10))
        assert np.any(model.power_injection)
        steps = tuple(Disturbance(row * 0.01, bus, delta_p) for row, bus, delta_p in [
            (BLOCK_STEPS, 9, -0.5), (2 * BLOCK_STEPS, 3, 0.25), (2 * BLOCK_STEPS, 9, 0.125),
            (3 * BLOCK_STEPS, 9, 0.5)])
        config = SimConfig(dt=0.01, horizon=SEAMS_HORIZON, disturbances=steps, seed=5,
                           noise_enabled=noise)
        trajectory = (simulate_stochastic if noise else simulate_deterministic)(model, config)
        u = oracles.input_schedule(model, config)
        rows = [0, BLOCK_STEPS, 2 * BLOCK_STEPS, 3 * BLOCK_STEPS]
        event_rows, event_inputs = _input_events(config, model.n_buses)
        assert event_rows.tolist() == rows
        assert np.array_equal(np.repeat(event_inputs, np.diff([*rows, len(u)]), axis=0), u)
        assert np.array_equal(trajectory.q_r_dev,
                              trajectory.states @ model.power.T + u @ model.power_injection.T)

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


class TestMetricsAgainstReference:
    """Block-wise metrics against the whole-array reductions of the oracle."""

    @pytest.mark.parametrize("delta_p", [-0.5, 0.5, 0.0, None],
                             ids=["step-down", "step-up", "all-zero", "noise"])
    @pytest.mark.parametrize("mode", FLEETS)
    def test_blockwise_metrics_equal_reference(self, ten_bus, mode, delta_p):
        fleet = uniform_fleet(10, mode, **FLEETS[mode])
        if delta_p is None:
            model = assemble_closed_loop(ten_bus, fleet, high_noise(10))
            trajectory = simulate_stochastic(model, SimConfig(
                dt=0.01, horizon=SEAMS_HORIZON, seed=3, noise_enabled=True))
        else:
            model = assemble_closed_loop(ten_bus, fleet)
            trajectory = simulate_deterministic(model, SimConfig(
                dt=0.01, horizon=SEAMS_HORIZON,
                disturbances=(Disturbance(time=1.0, bus=9, delta_p=delta_p),)))
        assert trajectory.times.size > 3 * BLOCK_STEPS + 1
        metrics = compute_metrics(trajectory)
        assert metrics == oracles.reference_metrics(trajectory)
        if delta_p == 0.0:
            assert metrics.nadir == 0.0  # the direction-0 branch


    @pytest.mark.parametrize("peaks", [
        {(1100, 1): -0.3, (2100, 2): 0.3},
        {(1100, 2): -0.3, (1100, 0): 0.3},
        {(2100, 0): 0.3, (1100, 2): -0.3, (5, 1): 0.2},
        {(2700, 1): -0.3, (2 * BLOCK_STEPS, 0): 0.3},
        {(1100, 1): np.nan, (5, 0): 0.7},
        {(2100, 1): -np.inf, (1100, 0): np.inf},
    ], ids=["across-blocks", "in-one-row", "earlier-row-wins", "last-block", "nan", "inf"])
    def test_zero_direction_nadir_is_the_first_largest_magnitude(self, peaks):
        # A flat tail (the last 10% starts at row 2780) sends the nadir to the
        # first largest |omega| in row-major order, wherever the ties fall
        # among the blocks (rows 0, 1024 and 2048 start one).
        omega = np.zeros((3 * BLOCK_STEPS + 17, 3))
        for index, value in peaks.items():
            omega[index] = value
        trajectory = TestMetrics().make_trajectory(omega, 0.01)
        if np.isfinite(list(peaks.values())).all():
            assert compute_metrics(trajectory) == oracles.reference_metrics(trajectory)
            return
        with pytest.raises(NumericalError) as reference:
            oracles.reference_metrics(trajectory)
        with pytest.raises(NumericalError, match=f"^{re.escape(str(reference.value))}$"):
            compute_metrics(trajectory)


class TestMetrics:
    def make_trajectory(self, omega, dt):
        """A trajectory of zero angles, at steps of ``dt``, whose omega_dev is
        ``omega`` and whose q_r_dev is zero: the power map reads nothing of
        the states, and the config holds no disturbance."""
        n = omega.shape[1]
        model = SimpleNamespace(n_buses=n, power=np.zeros((n, 2 * n)), power_injection=np.eye(n),
                                idroop_buses=(),
                                reference=SimpleNamespace(x_star=np.zeros(0), omega0=0.0))
        return Trajectory(
            states=np.hstack([np.zeros_like(omega), omega]),
            model=model,
            config=SimConfig(dt=dt, horizon=(len(omega) - 1) * dt),
        )

    def test_zero_trajectory_zero_metrics(self):
        metrics = compute_metrics(self.make_trajectory(np.zeros((11, 2)), 0.1))
        assert metrics.nadir == 0.0
        assert metrics.settling_frequency == 0.0
        assert metrics.peak_inverter_power == 0.0
        assert metrics.empirical_output_variance == 0.0

    def test_scripted_ramp_minimum(self):
        times = np.linspace(0.0, 4.0, 401)
        omega = np.zeros((401, 1))
        omega[:, 0] = -0.3 * np.exp(-((times - 2.0) ** 2) / 0.1)
        metrics = compute_metrics(self.make_trajectory(omega, 0.01))
        assert metrics.nadir == pytest.approx(-0.3)

    def test_nadir_keeps_disturbance_sign(self):
        times = np.linspace(0.0, 1.0, 101)
        omega = np.zeros((101, 1))
        omega[:, 0] = 0.2 * np.sin(times * np.pi)
        metrics = compute_metrics(self.make_trajectory(omega, 0.01))
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

    def test_diverging_run_stops_within_one_block(self, monkeypatch, ten_bus):
        # The flipped loop diverges near t = 305 of a 2000 s run (step 30,483 of
        # 200,000): the march stops at the end of the block that holds that
        # step and never starts the blocks after it.
        import gridfreq.sim
        from gridfreq import SimulationDiverged

        model = assemble_closed_loop(ten_bus, uniform_fleet(10, "DC", r_r=15.0))
        model = replace(model, a=-10.0 * model.a)
        config = SimConfig(dt=0.01, horizon=2000.0, disturbances=(Disturbance(0.0, 0, 1.0),))
        blocks = gridfreq.sim._blocks
        started = []

        def counted(n_rows, start=0):
            for blk in blocks(n_rows, start):
                started.append(blk)
                yield blk

        monkeypatch.setattr(gridfreq.sim, "_blocks", counted)
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate_deterministic(model, config)
        last_finite = round(excinfo.value.time / config.dt)  # the diverging step is the next one
        assert 0 < last_finite < 200_000 - 2 * BLOCK_STEPS
        assert started == blocks(200_000)[: len(started)]
        assert started[-1].start <= last_finite < started[-1].stop

