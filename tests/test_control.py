import warnings

import numpy as np
import pytest

from gridfreq import (
    Bus,
    Disturbance,
    InverterConfig,
    InverterMode,
    NoiseGains,
    PowerNetwork,
    SimConfig,
    SweepAxis,
    SweepSpec,
    ValidationError,
    check_decentralized_stability,
    h2_fleet_closed_form,
    modal_decompose,
    run_sweep,
    steady_state,
    uniform_fleet,
    verify_steady_state_optimality,
)
from gridfreq import control
from gridfreq.dynamics import assemble_closed_loop
from conftest import path_network, random_connected_network, ten_bus_network
from oracles import idroop_step, inverter_power, lyapunov_diagnostics

NAN = float("nan")
# Nine valid configs and one that is not a record, for the ten-bus network
NOT_A_RECORD = [InverterConfig.droop()] * 9 + ["DC"]


class TestInverterConfig:
    def test_mode_specific_parameters_enforced(self):
        with pytest.raises(ValidationError):
            InverterConfig(mode="DC")  # r_r missing
        with pytest.raises(ValidationError):
            InverterConfig(mode="VI", r_r=15.0)  # m_v missing
        with pytest.raises(ValidationError):
            InverterConfig(mode="IDROOP", r_r=15.0, delta=-1.0, nu=0.9)
        with pytest.raises(ValidationError):
            InverterConfig(mode="CP", m_v=0.1)  # wrong-mode extra

    def test_noise_gains_nonnegative(self):
        with pytest.raises(ValidationError):
            NoiseGains(k2=-1.0)

    @pytest.mark.parametrize("build,message", [
        (lambda: InverterConfig.droop(q0=NAN), "DC inverter q0 must be finite, got nan"),
        (lambda: InverterConfig(mode="DC", q0=None, r_r=15.0),
         "DC inverter q0 must be finite, got None"),
        (lambda: InverterConfig.droop(r_r=NAN), "DC inverter r_r must be finite, got nan"),
        (lambda: InverterConfig.virtual_inertia(m_v=NAN),
         "VI inverter m_v must be finite, got nan"),
        (lambda: InverterConfig.idroop(delta=NAN), "IDROOP inverter delta must be finite, got nan"),
        (lambda: InverterConfig.idroop(nu=NAN), "IDROOP inverter nu must be finite, got nan"),
        (lambda: InverterConfig.idroop(nu=float("inf")),
         "IDROOP inverter nu must be finite, got inf"),
        (lambda: NoiseGains(k1=NAN), "noise gain k1 must be finite and >= 0, got nan"),
        (lambda: NoiseGains(k2=NAN), "noise gain k2 must be finite and >= 0, got nan"),
        (lambda: NoiseGains(k3=float("inf")), "noise gain k3 must be finite and >= 0, got inf"),
        (lambda: InverterConfig(mode="DC", r_r=True), "DC inverter r_r must be finite, got True"),
        (lambda: InverterConfig.droop(q0=np.bool_(False)),
         "DC inverter q0 must be finite, got False"),
        (lambda: NoiseGains(k1=True), "noise gain k1 must be finite and >= 0, got True"),
        (lambda: InverterConfig(mode="XX"),
         "unknown inverter mode 'XX'; expected one of ['CP', 'DC', 'VI', 'IDROOP']"),
        (lambda: uniform_fleet(3, "XX"),
         "unknown inverter mode 'XX'; expected one of ['CP', 'DC', 'VI', 'IDROOP']"),
        (lambda: InverterConfig(mode="DC", r_r=15.0, nu=0.5),
         "nu is meaningless for mode DC"),
        (lambda: SweepSpec(axes=None, metric="h2"), "axes must be SweepAxis records, got None"),
        (lambda: SweepSpec(axes=({"name": "nu"},), metric="h2"),
         "axes must be SweepAxis records, got {'name': 'nu'}"),
        (lambda: SimConfig(disturbances=None),
         "disturbances must be Disturbance records, got None"),
        (lambda: assemble_closed_loop(ten_bus_network(), [InverterConfig.droop(), "DC"]),
         "configs must be InverterConfig records, got 'DC'"),
        (lambda: assemble_closed_loop(ten_bus_network(), uniform_fleet(10, "CP"), ["x"] * 10),
         "noise must be NoiseGains records, got 'x'"),
        (lambda: run_sweep(ten_bus_network(), ["DC"] * 10, None,
                           SweepSpec(axes=(SweepAxis("nu", 0.1, 1.0, 2),), metric="h2")),
         "configs must be InverterConfig records, got 'DC'"),
        *((build, "configs must be InverterConfig records, got 'DC'") for build in (
            lambda: steady_state(ten_bus_network(), NOT_A_RECORD),
            lambda: verify_steady_state_optimality(
                assemble_closed_loop(ten_bus_network(), NOT_A_RECORD)),
            lambda: modal_decompose(assemble_closed_loop(ten_bus_network(), NOT_A_RECORD)),
            lambda: h2_fleet_closed_form(assemble_closed_loop(ten_bus_network(), NOT_A_RECORD)),
            lambda: check_decentralized_stability(NOT_A_RECORD, ten_bus_network().buses))),
        (lambda: check_decentralized_stability(uniform_fleet(5, "DC", r_r=15.0),
                                               ten_bus_network().buses),
         "need one inverter config per bus: 5 configs for 10 buses"),
        (lambda: modal_decompose(assemble_closed_loop(ten_bus_network(),
                                                      uniform_fleet(3, "DC", r_r=15.0))),
         "need one inverter config per bus: 3 configs for 10 buses"),
        (lambda: h2_fleet_closed_form(assemble_closed_loop(
            ten_bus_network(), uniform_fleet(10, "DC", r_r=15.0), [NoiseGains(k1=0.1)] * 3)),
         "need one NoiseGains per bus, got 3"),
        (lambda: check_decentralized_stability(uniform_fleet(10, "IDROOP", r_r=15.0, delta=6.0,
                                                             nu=0.9),
                                               [*ten_bus_network().buses[:9], "bus 9"]),
         "buses must be Bus records, got 'bus 9'"),
    ], ids=["q0", "q0-none", "r_r", "m_v", "delta", "nu", "nu-inf", "k1", "k2", "k3-inf",
            "r_r-bool", "q0-numpy-bool", "k1-bool", "mode", "fleet-mode", "nu-on-dc",
            "sweep-axes-none", "sweep-axis-dict", "disturbances-none", "configs-string",
            "noise-string",
            "sweep-configs-string", "steady-state-configs-string", "optimality-configs-string",
            "modal-configs-string", "closed-form-configs-string", "stability-configs-string",
            "stability-five-configs", "modal-three-configs", "closed-form-three-noise",
            "stability-buses-string"])
    def test_non_finite_parameters_named(self, build, message):
        with pytest.raises(ValidationError) as excinfo:
            build()
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("build,droop", [
        (steady_state, -2.0),
        (lambda net, fleet: check_decentralized_stability(fleet, net.buses), -2.0),
        (lambda net, fleet: check_decentralized_stability(fleet, net.buses), 0.0),
        (steady_state, 0.0),
        (assemble_closed_loop, 0.0),
    ], ids=["steady-state-negative", "stability-negative", "stability-zero",
            "steady-state-zero", "assemble-zero"])
    def test_fleet_gate_applies_bus_rules(self, build, droop):
        """An invalid governor droop is named before anything reads it: no silent
        0.0 or passed certificate, and no divide-by-zero warning on the way."""
        net = path_network(2, damping=1.0, governor_droop=droop)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = "^invalid network: generator bus 0: governor droop must be > 0"
            with pytest.raises(ValidationError, match=message):
                build(net, [InverterConfig.idroop()] * 2)

    @pytest.mark.parametrize("call", [
        steady_state,
        assemble_closed_loop,
        lambda net, fleet: verify_steady_state_optimality(assemble_closed_loop(net, fleet)),
        lambda net, fleet: check_decentralized_stability(fleet, net.buses),
        lambda net, fleet: modal_decompose(assemble_closed_loop(net, fleet)),
        lambda net, fleet: h2_fleet_closed_form(assemble_closed_loop(net, fleet)),
        lambda net, fleet: run_sweep(net, fleet, None, SweepSpec(
            axes=(SweepAxis("r_r", 5.0, 30.0, 2),), metric="h2")),
        lambda net, fleet: assemble_closed_loop(net, fleet).reference,
        lambda net, fleet: run_sweep(net, fleet, None, SweepSpec(
            axes=(SweepAxis("r_r", 5.0, 30.0, 2),), metric="nadir"),
            SimConfig(horizon=0.1, disturbances=(Disturbance(0.0, 0, 0.1),))),
    ], ids=["steady-state", "assemble", "optimality", "stability", "modal",
            "closed-form", "h2-sweep", "model-reference", "nadir-sweep"])
    def test_each_public_call_gates_its_fleet_once(self, monkeypatch, call):
        """The gate applies the bus rules once a bus, so a public call that hands
        its gated fleet on to private cores reads each bus exactly once."""
        net = ten_bus_network()
        net.laplacian  # built and validated before the spy starts
        seen = []
        rules = control._bus_violations
        monkeypatch.setattr(control, "_bus_violations", lambda bus: seen.append(bus) or rules(bus))
        call(net, uniform_fleet(10, "DC", r_r=15.0))  # a fleet with a closed form
        assert seen == list(net.buses)


class TestInverterPower:
    def test_constant_power_ignores_frequency(self):
        cfg = InverterConfig.constant_power(q0=0.7)
        for omega in (-1.0, 0.0, 2.5):
            assert inverter_power(cfg, omega) == 0.7

    def test_droop_hand_value(self):
        cfg = InverterConfig.droop(q0=0.0, r_r=15.0)
        assert inverter_power(cfg, omega=0.3) == pytest.approx(-0.02)

    def test_virtual_inertia_hand_value(self):
        cfg = InverterConfig.virtual_inertia(q0=0.0, r_r=15.0, m_v=0.15)
        assert inverter_power(cfg, omega=0.3, omega_dot=1.0) == pytest.approx(-0.17)

    def test_idroop_outputs_setpoint_plus_state(self):
        cfg = InverterConfig.idroop(q0=0.2)
        assert inverter_power(cfg, omega=0.5, x=-0.05) == pytest.approx(0.15)

    def test_idroop_requires_state(self):
        with pytest.raises(ValidationError):
            inverter_power(InverterConfig.idroop(), omega=0.1)

    def test_droop_linear_in_omega(self):
        cfg = InverterConfig.droop(r_r=7.0)
        rng = np.random.default_rng(1)
        w1, w2, a, b = rng.standard_normal(4)
        combined = inverter_power(cfg, a * w1 + b * w2) - cfg.q0
        parts = a * (inverter_power(cfg, w1) - cfg.q0) + b * (inverter_power(cfg, w2) - cfg.q0)
        assert combined == pytest.approx(parts, abs=1e-12)

    def test_virtual_inertia_linear_in_omega_and_derivative(self):
        cfg = InverterConfig.virtual_inertia(r_r=7.0, m_v=0.3)
        rng = np.random.default_rng(2)
        (w1, d1), (w2, d2) = rng.standard_normal((2, 2))
        a, b = 1.7, -0.4
        combined = inverter_power(cfg, a * w1 + b * w2, a * d1 + b * d2) - cfg.q0
        parts = a * (inverter_power(cfg, w1, d1) - cfg.q0) + b * (
            inverter_power(cfg, w2, d2) - cfg.q0
        )
        assert combined == pytest.approx(parts, abs=1e-12)


class TestIdroopStep:
    def test_zero_at_origin(self):
        cfg = InverterConfig.idroop(r_r=15.0, delta=6.0, nu=0.9)
        assert idroop_step(cfg, omega=0.0, omega_dot=0.0, x=0.0) == 0.0

    def test_hand_value(self):
        cfg = InverterConfig.idroop(r_r=15.0, delta=6.0, nu=0.9)
        assert idroop_step(cfg, omega=0.3, omega_dot=0.0, x=0.0) == pytest.approx(-0.12)

    def test_fixed_point_at_droop_state(self):
        cfg = InverterConfig.idroop(r_r=15.0, delta=6.0, nu=0.9)
        omega = 0.42
        assert idroop_step(cfg, omega=omega, omega_dot=0.0, x=-omega / 15.0) == pytest.approx(0.0)

    def test_noise_terms(self):
        cfg = InverterConfig.idroop(r_r=15.0, delta=6.0, nu=0.9)
        gains = NoiseGains(k2=5.0, k3=5.0)
        clean = idroop_step(cfg, 0.3, 0.1, 0.0)
        noisy = idroop_step(cfg, 0.3, 0.1, 0.0, noise=(0.2, -0.1), gains=gains)
        expected = clean - 6.0 * 5.0 * 0.2 / 15.0 - 0.9 * 5.0 * (-0.1)
        assert noisy == pytest.approx(expected)

    def test_rejects_non_idroop(self):
        with pytest.raises(ValidationError):
            idroop_step(InverterConfig.droop(), 0.1, 0.0, 0.0)

    def test_noise_without_gains_rejected(self):
        cfg = InverterConfig.idroop()
        with pytest.raises(ValidationError):
            idroop_step(cfg, 0.1, 0.0, 0.0, noise=(0.1, 0.0))


class TestStabilityCertificate:
    def bus(self, i=0, d=0.1, r_g=15.0):
        return Bus(id=i, inertia=1.0, damping=d, governor_droop=r_g)

    def test_reference_parameters_pass(self):
        cfg = InverterConfig.idroop(r_r=15.0, delta=6.0, nu=0.9)
        cert = check_decentralized_stability([cfg], [self.bus()])
        row = cert.conditions[0]
        assert cert.passed and row.applies
        assert row.condition1 == pytest.approx(0.1552, abs=5e-5)
        assert row.condition2 == pytest.approx(0.2287, abs=1e-4)
        assert row.t_value == pytest.approx(0.17241, abs=5e-6)
        assert row.t_value == pytest.approx(row.condition1 / cfg.nu * 1.0)

    def test_zero_nu_fails_strict_inequality(self):
        cfg = InverterConfig.idroop(r_r=15.0, delta=6.0, nu=0.0)
        cert = check_decentralized_stability([cfg], [self.bus()])
        assert not cert.passed
        assert cert.conditions[0].condition1 == 0.0
        assert "marginal" in cert.conditions[0].note

    def test_negative_delta_fails(self):
        # delta <= 0 cannot be built as a config; evaluate the inequality directly
        nu, delta, rr_inv = 0.9, -6.0, 1.0 / 15.0
        assert nu / (delta * (nu + rr_inv)) < 0.0

    def test_mixed_fleet_vacuous_rows(self):
        cfgs = [InverterConfig.droop(), InverterConfig.idroop()]
        buses = [self.bus(0), self.bus(1)]
        cert = check_decentralized_stability(cfgs, buses)
        assert cert.passed
        assert not cert.conditions[0].applies
        assert "does not apply" in cert.conditions[0].note
        assert cert.conditions[1].applies

    def test_incremental_deployment_keeps_mixed_fleets_stable(self):
        # The paper's claim: certified iDroop buses can join any mix of the
        # other modes one by one, and the closed loop stays stable.
        rng = np.random.default_rng(5)
        draws = {
            "CP": lambda: InverterConfig.constant_power(q0=float(rng.uniform(-0.2, 0.2))),
            "DC": lambda: InverterConfig.droop(r_r=float(rng.uniform(1.0, 50.0))),
            "VI": lambda: InverterConfig.virtual_inertia(r_r=float(rng.uniform(1.0, 50.0)),
                                                         m_v=float(rng.uniform(0.0, 1.0))),
            "IDROOP": lambda: InverterConfig.idroop(r_r=float(rng.uniform(1.0, 50.0)),
                                                    delta=float(10.0 ** rng.uniform(-1.0, 1.0)),
                                                    nu=float(rng.uniform(0.01, 2.0))),
        }
        for _ in range(300):
            net = random_connected_network(rng)
            cfgs = [draws[mode]() for mode in rng.choice(list(draws), size=net.n_buses)]
            assert check_decentralized_stability(cfgs, net.buses).passed
            eigenvalues = np.linalg.eigvals(assemble_closed_loop(net, cfgs).a)
            structural = np.abs(eigenvalues) <= 1e-9
            assert structural.sum() == 1
            assert eigenvalues[~structural].real.max() < 0.0


class TestLyapunovDiagnostics:
    def make_system(self, n=4):
        net = path_network(n, susceptance=2.0)
        cfgs = [InverterConfig.idroop(r_r=10.0 + i, delta=3.0 + i, nu=0.5 + 0.1 * i)
                for i in range(n)]
        return net, cfgs

    def test_equilibrium_is_flat(self):
        net, cfgs = self.make_system()
        n = net.n_buses
        v, v_dot = lyapunov_diagnostics(
            (np.full(n, 0.7), np.zeros(n), np.zeros(n)), net, cfgs
        )
        assert v == pytest.approx(0.0, abs=1e-12)
        assert v_dot == pytest.approx(0.0, abs=1e-12)

    def test_t_value_hand_evaluated(self):
        cfg = InverterConfig.idroop(r_r=15.0, delta=6.0, nu=0.9)
        bus = Bus(id=0, inertia=1.0, damping=0.1, governor_droop=15.0)
        cert = check_decentralized_stability([cfg], [bus])
        assert cert.conditions[0].t_value == pytest.approx(1.0 / (6.0 * (0.9 + 1.0 / 15.0)))
        assert cert.conditions[0].t_value == pytest.approx(0.17241, abs=5e-6)

    def test_nonnegative_v_and_nonpositive_v_dot(self):
        net, cfgs = self.make_system()
        n = net.n_buses
        rng = np.random.default_rng(9)
        for _ in range(100):
            state = tuple(rng.standard_normal(n) for _ in range(3))
            v, v_dot = lyapunov_diagnostics(state, net, cfgs)
            assert v >= 0.0
            assert v_dot <= 1e-14

    def test_pure_state_offset_decays(self):
        net, cfgs = self.make_system()
        n = net.n_buses
        dx = np.array([0.5, -0.2, 0.1, 0.3])
        v, v_dot = lyapunov_diagnostics((np.zeros(n), np.zeros(n), dx), net, cfgs)
        assert v > 0.0
        assert v_dot < 0.0

    def test_v_dot_matches_directional_derivative(self):
        # independent oracle: finite differences of V along the closed-loop flow
        net, cfgs = self.make_system()
        n = net.n_buses
        model = assemble_closed_loop(net, cfgs)
        rng = np.random.default_rng(4)
        split = lambda z: (z[:n], z[n : 2 * n], z[2 * n :])
        for _ in range(25):
            z = rng.standard_normal(model.n_states)
            flow = model.a @ z
            eps = 1e-6
            v_plus, _ = lyapunov_diagnostics(split(z + eps * flow), net, cfgs)
            v_minus, _ = lyapunov_diagnostics(split(z - eps * flow), net, cfgs)
            _, v_dot = lyapunov_diagnostics(split(z), net, cfgs)
            numeric = (v_plus - v_minus) / (2.0 * eps)
            assert v_dot == pytest.approx(numeric, rel=1e-6, abs=1e-8)

    def test_cross_term_cancellation(self):
        # I - K_nu T K_delta - T K_delta / R_r vanishes for the chosen T
        rng = np.random.default_rng(12)
        for _ in range(50):
            delta, nu, rr_inv = rng.uniform(0.1, 10.0, size=3)
            t = 1.0 / (delta * (nu + rr_inv))
            residual = 1.0 - nu * t * delta - t * delta * rr_inv
            assert abs(residual) < 1e-12

    def test_requires_all_idroop(self):
        net, cfgs = self.make_system()
        cfgs[0] = InverterConfig.droop()
        with pytest.raises(ValidationError):
            lyapunov_diagnostics((np.zeros(4), np.zeros(4), np.zeros(4)), net, cfgs)


def test_uniform_fleet_builds_identical_configs():
    fleet = uniform_fleet(5, "VI", r_r=12.0, m_v=0.2)
    assert len(fleet) == 5
    assert all(c.mode is InverterMode.VI and c.r_r == 12.0 for c in fleet)
