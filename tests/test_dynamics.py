import numpy as np
import pytest

from gridfreq import (
    Bus,
    InverterConfig,
    Line,
    NoiseGains,
    PowerNetwork,
    SimConfig,
    ValidationError,
    assemble_closed_loop,
    build_laplacian,
    check_decentralized_stability,
    modal_decompose,
    simulate_deterministic,
    steady_state,
    uniform_fleet,
)
from conftest import high_noise, path_network, random_connected_network, ten_bus_network
from oracles import idroop_step, inverter_power

FLEETS = {
    "CP": {},
    "DC": {"r_r": 15.0},
    "VI": {"r_r": 15.0, "m_v": 0.15},
    "IDROOP": {"r_r": 15.0, "delta": 6.0, "nu": 0.9},
}


def single_bus(p_in=1.0, d=0.1, r_g=15.0):
    return PowerNetwork([Bus(id=0, inertia=1.0, damping=d, governor_droop=r_g,
                             injection=p_in)], [])


class TestSyncFrequency:
    def test_balanced_injections_give_zero(self, ten_bus, dc_fleet):
        assert steady_state(ten_bus, dc_fleet).omega0 == 0.0

    def test_single_constant_power_bus(self):
        net = single_bus(p_in=1.0)
        omega0 = steady_state(net, [InverterConfig.constant_power()]).omega0
        assert omega0 == pytest.approx(1.0 / (0.1 + 1.0 / 15.0))
        assert omega0 == pytest.approx(6.0)

    def test_ten_bus_droop_fleet_with_step(self, dc_fleet):
        net = ten_bus_network(injections={9: -0.5})
        omega0 = steady_state(net, dc_fleet).omega0
        assert omega0 == pytest.approx(-0.5 / (10 * (0.1 + 2.0 / 15.0)))
        assert omega0 == pytest.approx(-0.2143, abs=5e-5)

    def test_idroop_counts_as_droop_active(self, idroop_fleet, dc_fleet):
        net = ten_bus_network(injections={3: 0.4})
        assert steady_state(net, idroop_fleet).omega0 == pytest.approx(
            steady_state(net, dc_fleet).omega0
        )

    def test_zero_damping_rejected(self):
        # an infinite governor droop contributes nothing: with D = 0 and a
        # constant-power inverter there is no frequency response left
        buses = [Bus(id=0, inertia=1.0, damping=0.0, governor_droop=float("inf"),
                     injection=1.0)]
        net = PowerNetwork(buses, [])
        with pytest.raises(ValidationError, match="damping"):
            steady_state(net, [InverterConfig.constant_power()])


class TestSteadyState:
    def test_zero_network_all_zero(self, ten_bus, dc_fleet):
        ss = steady_state(ten_bus, dc_fleet)
        assert ss.omega0 == 0.0
        assert np.allclose(ss.theta_star, 0.0)
        assert np.allclose(ss.q_r_star, 0.0)
        assert np.allclose(ss.delta_q_g_star, 0.0)

    def test_constant_power_has_no_deviation(self):
        net = single_bus(p_in=1.0)
        ss = steady_state(net, [InverterConfig.constant_power(q0=0.3)])
        assert ss.delta_q_r_star[0] == 0.0
        assert ss.q_r_star[0] == 0.3

    def test_idroop_state_value(self, idroop_fleet):
        net = ten_bus_network(injections={9: -0.5})
        ss = steady_state(net, idroop_fleet)
        assert np.allclose(ss.x_star, 0.014285714285714285, atol=1e-12)
        assert np.allclose(ss.x_star, -ss.omega0 / 15.0)

    def test_balance_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            net = random_connected_network(rng)
            n = net.n_buses
            buses = [
                Bus(id=b.id, inertia=b.inertia, damping=b.damping,
                    governor_droop=b.governor_droop,
                    injection=float(rng.normal(0.0, 0.4)))
                for b in net.buses
            ]
            net = PowerNetwork(buses, net.lines)
            modes = rng.choice(["CP", "DC", "VI", "IDROOP"], size=n)
            cfgs = []
            for mode in modes:
                if mode == "CP":
                    cfgs.append(InverterConfig.constant_power(q0=float(rng.normal(0, 0.2))))
                elif mode == "DC":
                    cfgs.append(InverterConfig.droop(r_r=float(rng.uniform(5, 30))))
                elif mode == "VI":
                    cfgs.append(InverterConfig.virtual_inertia(r_r=float(rng.uniform(5, 30)),
                                                               m_v=float(rng.uniform(0, 0.5))))
                else:
                    cfgs.append(InverterConfig.idroop(r_r=float(rng.uniform(5, 30)),
                                                      delta=float(rng.uniform(0.5, 8)),
                                                      nu=float(rng.uniform(0, 1.5))))
            ss = steady_state(net, cfgs)
            damping = sum(b.damping for b in net.buses)
            delta_p = net.injections().sum() + sum(c.q0 for c in cfgs) - damping * ss.omega0
            total = ss.delta_q_g_star.sum() + ss.delta_q_r_star.sum()
            assert total == pytest.approx(delta_p, abs=1e-10)

    def test_angles_pinned_at_bus_zero(self):
        net = ten_bus_network(injections={2: 0.3, 7: -0.3})
        ss = steady_state(net, uniform_fleet(10, "DC", r_r=15.0))
        assert ss.theta_star[0] == 0.0
        assert not np.allclose(ss.theta_star, 0.0)

    def test_is_fixed_point_of_vector_field(self):
        # residuals of the swing and controller equations at the steady state
        net = ten_bus_network(injections={1: 0.25, 6: -0.25})
        cfgs = uniform_fleet(10, "IDROOP", r_r=15.0, delta=6.0, nu=0.9)
        ss = steady_state(net, cfgs)
        lap = build_laplacian(net)
        d_hat = np.array([b.damping + 1.0 / b.governor_droop for b in net.buses])
        swing = net.injections() + ss.q_r_star - d_hat * ss.omega0 - lap @ ss.theta_star
        assert np.abs(swing).max() < 1e-10
        x_rate = np.array(
            [c.delta * (-ss.omega0 / c.r_r - x) for c, x in zip(cfgs, ss.x_star)]
        )
        assert np.abs(x_rate).max() < 1e-10


class TestAssembleClosedLoop:
    def test_reference_is_the_steady_state_of_its_network(self):
        net = ten_bus_network(injections={3: 0.4, 8: -0.1})
        cfgs = uniform_fleet(10, "IDROOP", r_r=15.0, delta=6.0, nu=0.9)
        model = assemble_closed_loop(net, cfgs)
        assert model.network is net
        expected = steady_state(net, cfgs)
        assert model.reference is model.reference
        for name in ("omega0", "theta_star", "q_r_star", "x_star", "delta_q_g_star",
                     "delta_q_r_star"):
            assert np.array_equal(getattr(model.reference, name), getattr(expected, name))

    def test_constant_power_structure(self, ten_bus):
        cfgs = uniform_fleet(10, "CP")
        model = assemble_closed_loop(ten_bus, cfgs)
        n = 10
        lap = build_laplacian(ten_bus)
        assert model.n_states == 2 * n
        assert np.array_equal(model.a[:n, n:], np.eye(n))
        assert np.allclose(model.a[n:, :n], -lap)  # M = I
        assert np.allclose(model.a[n:, n:], -np.diag(np.full(n, 0.1 + 1.0 / 15.0)))
        # injection noise only: no frequency-measurement coupling in CP
        assert np.allclose(model.b_w2, 0.0)
        assert np.allclose(model.b_w3, 0.0)

    def test_virtual_inertia_scales_by_total_inertia(self, ten_bus):
        cfgs = uniform_fleet(10, "VI", r_r=15.0, m_v=0.15)
        noise = high_noise(10)
        model = assemble_closed_loop(ten_bus, cfgs, noise)
        n = 10
        lap = build_laplacian(ten_bus)
        m_hat = 1.15
        d_hat = 0.1 + 2.0 / 15.0
        assert np.allclose(model.a[n:, :n], -lap / m_hat)
        assert np.allclose(model.a[n:, n:], -np.eye(n) * d_hat / m_hat)
        assert np.allclose(model.b_w1[n:], np.eye(n) * 0.1 / m_hat)
        assert np.allclose(model.b_w3[n:], -np.eye(n) * 5.0 * 0.15 / m_hat)
        assert model.derivative_noise_present

    @pytest.mark.parametrize("mode", sorted(FLEETS))
    def test_droop_modal_transform_decouples(self, ten_bus, mode):
        # The orthonormal Laplacian transform turns a homogeneous fleet into
        # independent modes, and each mode of the stacked decomposition is
        # the matching diagonal block of the full model seen in that basis.
        cfgs = uniform_fleet(10, mode, **FLEETS[mode])
        noise = high_noise(10)
        model = assemble_closed_loop(ten_bus, cfgs, noise)
        decomposition = modal_decompose(model)
        lam, u = decomposition.eigenvalues, decomposition.transform
        n, k_states = 10, model.n_states // 10
        t = np.kron(np.eye(k_states), u)
        a_modal = t.T @ model.a @ t
        b_modal = t.T @ model.b @ np.kron(np.eye(3), u)
        off_a, off_b = a_modal.copy(), b_modal.copy()
        assert decomposition.a.shape == (n, k_states, k_states)
        for k in range(n):
            rows = [k + n * s for s in range(k_states)]
            cols = [k, n + k, 2 * n + k]
            assert np.abs(a_modal[np.ix_(rows, rows)] - decomposition.a[k]).max() < 1e-12
            assert np.abs(b_modal[np.ix_(rows, cols)] - decomposition.b[k]).max() < 1e-12
            assert decomposition.c[k].tolist() == [[0.0, 1.0] + [0.0] * (k_states - 2)]
            if mode == "DC":
                expected = np.array([[0.0, 1.0], [-lam[k], -(0.1 + 2.0 / 15.0)]])
                assert np.allclose(decomposition.a[k], expected, atol=1e-9)
            off_a[np.ix_(rows, rows)] = 0.0
            off_b[np.ix_(rows, cols)] = 0.0
        assert np.abs(off_a).max() < 1e-12
        assert np.abs(off_b).max() < 1e-12

    def test_control_laws_match_scalar_references(self):
        # A path with one bus per mode and two iDroop buses: the inverter-power
        # output must be inverter_power and the iDroop state rows must be
        # idroop_step, each evaluated at the bus's omega, omega_dot and x.
        net = path_network(5, susceptance=2.0, inertia=1.7)
        cfgs = [InverterConfig.constant_power(q0=0.3), InverterConfig.droop(q0=-0.2, r_r=12.0),
                InverterConfig.virtual_inertia(q0=0.1, r_r=9.0, m_v=0.4),
                InverterConfig.idroop(q0=0.5, r_r=15.0, delta=6.0, nu=0.9),
                InverterConfig.idroop(r_r=7.0, delta=2.5, nu=0.3)]
        model = assemble_closed_loop(net, cfgs, high_noise(5))
        assert model.power.shape == (5, 12) and model.power_injection.shape == (5, 5)
        x_index = {3: 10, 4: 11}
        rng = np.random.default_rng(5)
        for _ in range(5):
            z, u = rng.standard_normal(12), rng.standard_normal(5)
            q_r = model.power @ z + model.power_injection @ u
            rate = model.a @ z + model.injection @ u
            for i, cfg in enumerate(cfgs):
                x = z[x_index[i]] if i in x_index else None
                expected = inverter_power(cfg, z[5 + i], rate[5 + i], x) - cfg.q0
                assert q_r[i] == pytest.approx(expected, rel=1e-12, abs=0.0)
                if i in x_index:
                    x_rate = idroop_step(cfg, z[5 + i], rate[5 + i], x)
                    assert rate[x_index[i]] == pytest.approx(x_rate, rel=1e-12)

    def test_rotation_vector_in_null_space(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            net = random_connected_network(rng)
            n = net.n_buses
            cfgs = uniform_fleet(n, "IDROOP", r_r=12.0, delta=4.0, nu=0.7)
            model = assemble_closed_loop(net, cfgs, high_noise(n))
            null = np.zeros(model.n_states)
            null[:n] = 1.0
            assert np.abs(model.a @ null).max() < 1e-12

    def test_certified_parameters_make_nonzero_modes_stable(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            net = random_connected_network(rng)
            n = net.n_buses
            cfgs = [
                InverterConfig.idroop(r_r=float(rng.uniform(1, 50)),
                                      delta=float(10 ** rng.uniform(-1, 1)),
                                      nu=float(rng.uniform(0.01, 2)))
                for _ in range(n)
            ]
            assert check_decentralized_stability(cfgs, net.buses).passed
            model = assemble_closed_loop(net, cfgs)
            eigs = np.linalg.eigvals(model.a)
            nonzero = eigs[np.abs(eigs) > 1e-9]
            assert nonzero.real.max() < -1e-9

    def test_idroop_routes_injection_noise_into_state(self, ten_bus, idroop_fleet):
        noise = high_noise(10)
        model = assemble_closed_loop(ten_bus, idroop_fleet, noise)
        n = 10
        # substitution of the frequency derivative carries -nu*k1/m into x rows
        assert np.allclose(model.b_w1[2 * n :], -np.eye(n) * 0.9 * 0.1 / 1.0)
        assert np.allclose(model.b_w2[2 * n :], -np.eye(n) * 6.0 * 5.0 / 15.0)
        assert np.allclose(model.b_w3[2 * n :], -np.eye(n) * 0.9 * 5.0)
        assert model.derivative_noise_present

    def test_config_count_mismatch_rejected(self, ten_bus):
        with pytest.raises(ValidationError):
            assemble_closed_loop(ten_bus, uniform_fleet(9, "CP"))

    def test_load_bus_rejected(self):
        buses = [Bus(id=0, inertia=1.0, damping=0.1, governor_droop=15.0),
                 Bus(id=1, kind="load")]
        net = PowerNetwork(buses, [Line(0, 1, 1.0)])
        with pytest.raises(ValidationError, match="Kron"):
            assemble_closed_loop(net, uniform_fleet(2, "CP"))


class TestChangeOfVariables:
    def test_absolute_and_deviation_trajectories_agree(self):
        # Simulate the loop once as deviations about the steady state and once
        # in absolute coordinates (constant injections fed as step inputs from
        # t=0); the two runs must line up after shifting by the steady state
        # plus the synchronous ramp.
        from gridfreq.sim import Disturbance

        net = ten_bus_network(injections={4: 0.3, 8: -0.1})
        cfgs = uniform_fleet(10, "IDROOP", r_r=15.0, delta=6.0, nu=0.9)
        model = assemble_closed_loop(net, cfgs)
        ss = model.reference
        n = 10

        kick = Disturbance(time=1.0, bus=0, delta_p=-0.2)
        deviation = simulate_deterministic(
            model, SimConfig(dt=0.01, horizon=5.0, disturbances=(kick,))
        )

        # absolute run: start at the steady state, feed p_in as step inputs
        balanced = PowerNetwork(
            [Bus(id=b.id, inertia=b.inertia, damping=b.damping,
                 governor_droop=b.governor_droop) for b in net.buses],
            net.lines,
        )
        model0 = assemble_closed_loop(balanced, cfgs)
        z0 = np.concatenate([ss.theta_star, np.full(n, ss.omega0), ss.x_star])
        steps = tuple(
            Disturbance(time=0.0, bus=i, delta_p=float(p))
            for i, p in enumerate(net.injections())
            if p != 0.0
        ) + (kick,)
        absolute = simulate_deterministic(
            model0, SimConfig(dt=0.01, horizon=5.0, disturbances=steps), initial_state=z0
        )

        times = deviation.times
        theta_shift = ss.theta_star[None, :] + ss.omega0 * times[:, None]
        assert np.abs(absolute.theta_dev - theta_shift - deviation.theta_dev).max() < 1e-9
        omega_shift = np.full((times.size, n), ss.omega0)
        assert np.abs(absolute.omega_dev - omega_shift - deviation.omega_dev).max() < 1e-9
        # x traces are reported absolutely in both runs
        assert np.abs(absolute.x - deviation.x).max() < 1e-9
