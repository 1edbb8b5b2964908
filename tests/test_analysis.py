from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
import scipy.linalg

import oracles
from gridfreq import analysis
from gridfreq import (
    Bus,
    InverterConfig,
    Line,
    NoiseGains,
    NumericalError,
    PowerNetwork,
    ValidationError,
    assemble_closed_loop,
    h2_fleet_closed_form,
    h2_frequency_weighted,
    h2_gramian,
    load_document,
    modal_decompose,
    mode_norms,
    optimal_allocation,
    reduce_document,
    solve_lyapunov,
    steady_state,
    uniform_fleet,
    verify_steady_state_optimality,
)
from conftest import high_noise, path_network, random_connected_network, ten_bus_network
from oracles import h2_closed_form


def mixed_fleet_model(rng):
    """A random heterogeneous network under a CP/DC/IDROOP fleet (bus i runs
    mode i mod 3), with injection, measurement and derivative noise (k3 > 0)
    on every bus."""
    net = random_connected_network(rng, n_min=6, n_max=8)
    fleet = []
    for i in range(net.n_buses):
        r_r = float(rng.uniform(5.0, 30.0))
        fleet.append([InverterConfig.constant_power(),
                      InverterConfig.droop(r_r=r_r),
                      InverterConfig.idroop(r_r=r_r, delta=float(rng.uniform(1.0, 8.0)),
                                            nu=float(rng.uniform(0.1, 1.0)))][i % 3])
    noise = [NoiseGains(*rng.uniform([0.05, 1.0, 1.0], [0.2, 5.0, 5.0]))
             for _ in range(net.n_buses)]
    return assemble_closed_loop(net, fleet, noise)


class TestSolveLyapunov:
    def test_scaled_identity(self):
        x = solve_lyapunov(-np.eye(4), np.eye(4))
        assert np.allclose(x, 0.5 * np.eye(4))

    def test_scalar_balance(self):
        x = solve_lyapunov(np.array([[-2.0]]), np.array([[4.0]]))
        assert x[0, 0] == pytest.approx(1.0)

    def test_two_by_two_against_kronecker(self):
        a = np.array([[0.0, 1.0], [-1.0, -1.0]])
        q = np.diag([0.0, 1.0])
        x = solve_lyapunov(a, q)
        reference = oracles.kronecker_lyapunov(a, q)
        assert np.allclose(x, reference, atol=1e-12)
        assert np.linalg.norm(a.T @ x + x @ a + q) < 1e-12

    def test_residual_invariant_on_random_stable_systems(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d = int(rng.integers(2, 12))
            a = rng.standard_normal((d, d))
            a -= (np.abs(np.linalg.eigvals(a).real).max() + 0.5) * np.eye(d)
            g = rng.standard_normal((d, d))
            q = g @ g.T
            x = solve_lyapunov(a, q)
            assert np.linalg.norm(a.T @ x + x @ a + q) < 1e-8 * np.linalg.norm(q)

    def test_rejects_right_half_plane(self):
        with pytest.raises(NumericalError, match="right half-plane"):
            solve_lyapunov(np.array([[1.0]]), np.eye(1))

    def test_rejects_imaginary_axis(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NumericalError):
            solve_lyapunov(a, np.eye(2))

    def test_bitwise_equal_to_scipy_on_pairs_and_jordan_blocks(self):
        """One Schur factorisation gives scipy's X to the last bit on
        Hurwitz matrices with complex pairs and a defective eigenvalue."""
        rng = np.random.default_rng(9)
        for _ in range(20):
            sigma, omega, lam = rng.uniform(0.1, 2.0, size=3)
            blocks = [np.array([[sigma, omega], [-omega, sigma]]),  # pair -sigma +- i omega
                      np.array([[lam, 1.0], [0.0, lam]]),  # Jordan block at -lam
                      np.diag(rng.uniform(0.1, 3.0, size=int(rng.integers(0, 6))))]
            spectrum = -scipy.linalg.block_diag(*blocks)
            d = spectrum.shape[0]
            t = np.eye(d) + 0.3 * rng.standard_normal((d, d))
            a = t @ spectrum @ np.linalg.inv(t)
            g = rng.standard_normal((d, d))
            q = g @ g.T
            x = solve_lyapunov(a, q)
            assert np.array_equal(x, oracles.scipy_lyapunov(a, q))

    @pytest.mark.parametrize("name", ["example-10bus.json", "example-10bus-dc.json",
                                      "example-10bus-vi.json", "example-10bus-cp.json"])
    def test_bitwise_equal_to_scipy_on_bundled_models(self, name):
        """The shifted Gramian equations of the bundled fleets, their r_r swept."""
        system = reduce_document(load_document(resources.files("gridfreq") / "data" / name))
        for r_r in (2.9, 5.0, 8.9, 15.0):
            configs = [c if c.r_r is None else replace(c, r_r=r_r) for c in system.configs]
            model = assemble_closed_loop(system.network, configs, system.noise)
            v = model.rotation_null_vector
            a, q = model.a - np.outer(v, v), model.c.T @ model.c
            assert np.array_equal(solve_lyapunov(a, q), oracles.scipy_lyapunov(a, q))

    def test_right_half_plane_pair_names_its_real_part(self):
        a = np.array([[0.1, 1.0], [-1.0, 0.1]])
        with pytest.raises(NumericalError, match=r"right half-plane \(max Re = 1\.000e-01\)"):
            solve_lyapunov(a, np.eye(2))

    def test_imaginary_axis_pair_behind_a_stable_block(self):
        a = np.array([[-1.0, 0.5, 1.0, 2.0],
                      [0.0, -2.0, 3.0, 1.0],
                      [0.0, 0.0, 0.0, 1.0],
                      [0.0, 0.0, -1.0, 0.0]])  # eigenvalues -1, -2, +-i
        with pytest.raises(NumericalError, match="imaginary axis"):
            solve_lyapunov(a, np.eye(4))

    def test_empty_matrix(self):
        assert solve_lyapunov(np.zeros((0, 0)), np.zeros((0, 0))).shape == (0, 0)

    @staticmethod
    def stable_stack(rng, points, d):
        """Random Hurwitz matrices and positive semidefinite weights, (points, d, d) each."""
        a = rng.standard_normal((points, d, d))
        shift = np.abs(np.linalg.eigvals(a).real).max(axis=1) + 0.5
        g = rng.standard_normal((points, d, d))
        return a - shift[:, None, None] * np.eye(d), g @ g.transpose(0, 2, 1)

    def test_empty_stack_and_mismatched_shapes(self):
        """One (d, d) pair per call: a stack, even an empty one, is refused."""
        with pytest.raises(ValidationError, match=r"shape mismatch: A \(3, 0, 0\)"):
            solve_lyapunov(np.zeros((3, 0, 0)), np.zeros((3, 0, 0)))
        with pytest.raises(ValidationError, match="shape mismatch"):
            solve_lyapunov(-np.eye(2), np.eye(3))

    @pytest.mark.parametrize("a,q", [(-1e-11, 1e297), (-3.0, 1e300)])
    def test_solutions_near_the_float_range_match_the_closed_form(self, a, q):
        """A = a I and Q = q I solve to X = q / (-2a) I.  Near the float range
        LAPACK trsyl scales its right-hand side down and the solution is
        divided by that scale; ||Q||^2 overflows without a warning."""
        x = solve_lyapunov(a * np.eye(2), q * np.eye(2))
        np.testing.assert_allclose(x, q / (-2.0 * a) * np.eye(2), rtol=1e-14, atol=0.0)

    def test_overflowing_solution_is_named(self):
        # X = 2.5e311 I lies past the float range; ||Q||^2 overflows too
        with pytest.raises(NumericalError, match="Lyapunov solution overflows"):
            solve_lyapunov(-2e-12 * np.eye(2), 1e300 * np.eye(2))

    def test_one_factorisation_per_solve(self, monkeypatch):
        system = reduce_document(load_document(resources.files("gridfreq") / "data"
                                               / "example-10bus.json"))
        model = assemble_closed_loop(system.network, system.configs, system.noise)
        calls = {"schur": 0, "eigvals": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(scipy.linalg, "schur", counted("schur", scipy.linalg.schur))
        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        assert h2_frequency_weighted(model).is_finite
        assert calls == {"schur": 1, "eigvals": 0}

    def test_failing_stack_is_factored_once_per_point(self, monkeypatch):
        # An H2 stack whose point 2 is unstable: points 0..2 are factored once
        # each, and the norm guard still judges points 0 and 1.
        a, q = self.stable_stack(np.random.default_rng(8), 4, 4)
        a[2] += 50.0 * np.eye(4)
        b = np.concatenate([np.ones((4, 4, 2)), np.zeros((4, 4, 1))], axis=-1)
        c = np.eye(4)[None, :2].repeat(4, axis=0)
        calls = []
        schur = scipy.linalg.schur

        def counted(*args, **kwargs):
            calls.append(args)
            return schur(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counted)
        with pytest.raises(NumericalError, match="right half-plane") as excinfo:
            analysis._h2(a, b, c, np.zeros(4))
        assert excinfo.value.point == 2
        assert len(calls) == 3


class TestH2Gramian:
    def test_zero_input_gives_zero(self, ten_bus, dc_fleet):
        model = assemble_closed_loop(ten_bus, dc_fleet)  # all noise gains zero
        assert h2_gramian(model).value == pytest.approx(0.0, abs=1e-14)

    def test_droop_fleet_matches_closed_form(self, ten_bus, dc_fleet):
        model = assemble_closed_loop(ten_bus, dc_fleet,
                                     [NoiseGains(k1=0.1, k2=5.0)] * 10)
        value = h2_gramian(model).value
        reference = h2_closed_form("DC", 10, 1.0, 0.1, 15.0, 15.0, 0.1, 5.0)
        assert value == pytest.approx(reference, rel=1e-9)
        assert reference == pytest.approx(2.595, abs=5e-4)

    def test_norm_is_topology_independent(self, dc_fleet):
        noise = [NoiseGains(k1=0.1, k2=5.0)] * 10
        ring = assemble_closed_loop(ten_bus_network(), dc_fleet, noise)
        path = assemble_closed_loop(path_network(10, susceptance=3.0), dc_fleet, noise)
        assert h2_gramian(ring).value == pytest.approx(h2_gramian(path).value, rel=1e-9)

    def test_swing_baseline(self, ten_bus):
        model = assemble_closed_loop(ten_bus, uniform_fleet(10, "CP"),
                                     [NoiseGains(k1=0.1)] * 10)
        reference = h2_closed_form("SWING", 10, 1.0, 0.1, 15.0, k1=0.1)
        assert h2_gramian(model).value == pytest.approx(reference, rel=1e-9)

    def test_hundred_bus_droop_ring_matches_closed_form(self):
        n = 100
        ring = PowerNetwork([Bus(id=i, inertia=1.0, damping=0.1, governor_droop=15.0)
                             for i in range(n)],
                            [Line(i, (i + 1) % n, 5.0) for i in range(n)])
        model = assemble_closed_loop(ring, uniform_fleet(n, "DC", r_r=15.0),
                                     [NoiseGains(k1=0.1, k2=5.0)] * n)
        reference = h2_closed_form("DC", n, 1.0, 0.1, 15.0, 15.0, 0.1, 5.0)
        assert h2_gramian(model).value == pytest.approx(reference, rel=1e-9)

    def test_refuses_derivative_noise(self, ten_bus):
        model = assemble_closed_loop(ten_bus, uniform_fleet(10, "VI", r_r=15.0, m_v=0.15),
                                     high_noise(10))
        with pytest.raises(ValidationError, match="frequency_weighted"):
            h2_gramian(model)


class TestClosedForm:
    def test_zero_noise_zero_norm(self):
        assert h2_closed_form("DC", 10, 1.0, 0.1, 15.0, 15.0, 0.0, 0.0) == 0.0

    def test_droop_hand_value(self):
        value = h2_closed_form("DC", 10, 1.0, 0.1, 15.0, 15.0, 0.1, 5.0)
        assert value == pytest.approx(10 * (0.01 + (1.0 / 3.0) ** 2) / (2 * (0.1 + 2.0 / 15.0)))
        assert value == pytest.approx(2.595, abs=5e-4)

    def test_swing_hand_value(self):
        assert h2_closed_form("SWING", 1, 1.0, 0.1, 15.0, k1=1.0) == pytest.approx(3.0)

    def test_rejects_bad_inputs(self, ten_bus):
        # A nonpositive inertia and a droop without r_r never reach a closed
        # form: the network and the inverter config refuse them by name.
        with pytest.raises(ValidationError, match="inertia must be > 0"):
            path_network(2, inertia=-1.0).laplacian
        with pytest.raises(ValidationError, match="DC inverter requires r_r > 0"):
            InverterConfig(mode="DC", r_r=None)
        # Fleets with no closed form are refused by name.
        noise = [NoiseGains(k1=0.1, k2=5.0)] * 10
        for mode, params in [("VI", dict(r_r=15.0, m_v=0.15)),
                             ("IDROOP", dict(r_r=15.0, delta=6.0, nu=0.9))]:
            with pytest.raises(ValidationError, match=f"no closed form for an all-{mode} fleet"):
                h2_fleet_closed_form(
                    assemble_closed_loop(ten_bus, uniform_fleet(10, mode, **params), noise))
        fleet = uniform_fleet(10, "DC", r_r=15.0)
        fleet[3] = InverterConfig.droop(r_r=14.0)
        with pytest.raises(ValidationError, match=r"^heterogeneous r_r: \[15\.0, 15\.0, 15\.0, 14"):
            h2_fleet_closed_form(assemble_closed_loop(ten_bus, fleet, noise))

    def test_fleet_closed_form_equals_scalar_formula(self, ten_bus, dc_fleet):
        noise = [NoiseGains(k1=0.1, k2=5.0)] * 10
        dc, cp = (assemble_closed_loop(ten_bus, fleet, noise)
                  for fleet in (dc_fleet, uniform_fleet(10, "CP")))
        assert h2_fleet_closed_form(dc) == h2_closed_form("DC", 10, 1.0, 0.1, 15.0, 15.0, 0.1, 5.0)
        assert h2_fleet_closed_form(cp) == h2_closed_form("SWING", 10, 1.0, 0.1, 15.0, k1=0.1)

    def test_fleet_closed_form_without_noise_is_zero(self, ten_bus, dc_fleet):
        # no noise means zero gains, as in modal_decompose
        assert h2_fleet_closed_form(assemble_closed_loop(ten_bus, dc_fleet, None)) == 0.0

    def test_droop_monotone_in_inverter_droop_without_measurement_noise(self):
        # with k2 = 0 a stronger droop (smaller r_r) strictly helps
        values = [h2_closed_form("DC", 10, 1.0, 0.1, 15.0, r_r, 0.1, 0.0)
                  for r_r in (30.0, 15.0, 7.5, 3.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_mixed_noise_tradeoff(self):
        # with measurement noise the norm is no longer monotone in the droop
        # strength: weakening the droop helps in one regime and hurts in the
        # other (interior optimum near r_r ~ 8e2 for these gains)
        r_values = np.geomspace(0.1, 1e5, 120)
        norms = np.array(
            [h2_closed_form("DC", 10, 1.0, 0.1, 15.0, r, 0.1, 5.0) for r in r_values]
        )
        steps = np.diff(norms)
        assert (steps < 0).any() and (steps > 0).any()
        best = int(np.argmin(norms))
        assert 0 < best < len(norms) - 1


class TestFrequencyWeighted:
    def test_virtual_inertia_is_infinite_with_limiting_gain(self, ten_bus):
        model = assemble_closed_loop(ten_bus, uniform_fleet(10, "VI", r_r=15.0, m_v=0.15),
                                     high_noise(10))
        result = h2_frequency_weighted(model)
        assert result.kind == "infinite"
        assert result.feedthrough_gain == pytest.approx(5.0 * 0.15 / 1.15, abs=1e-9)
        assert result.feedthrough_gain == pytest.approx(0.6522, abs=5e-5)

    def test_no_derivative_noise_matches_gramian(self, ten_bus, dc_fleet):
        noise = [NoiseGains(k1=0.1, k2=5.0)] * 10
        model = assemble_closed_loop(ten_bus, dc_fleet, noise)
        weighted = h2_frequency_weighted(model)
        reference = oracles.gramian_h2(*oracles.effective_system(model))
        assert weighted.kind == "finite"
        assert weighted.value == pytest.approx(reference, rel=1e-9)
        assert h2_gramian(model).value == pytest.approx(reference, rel=1e-9)

    def test_idroop_beats_droop_at_small_nu(self, ten_bus):
        cfgs = uniform_fleet(10, "IDROOP", r_r=15.0, delta=6.0, nu=0.01)
        model = assemble_closed_loop(ten_bus, cfgs, high_noise(10))
        result = h2_frequency_weighted(model)
        reference = h2_closed_form("DC", 10, 1.0, 0.1, 15.0, 15.0, 0.1, 5.0)
        assert result.kind == "finite"
        assert result.value < reference

    def test_idroop_with_zero_k3_agrees_with_gramian(self, ten_bus, idroop_fleet):
        noise = [NoiseGains(k1=0.1, k2=5.0)] * 10
        model = assemble_closed_loop(ten_bus, idroop_fleet, noise)
        assert not model.derivative_noise_present
        reference = oracles.gramian_h2(*oracles.effective_system(model))
        assert h2_frequency_weighted(model).value == pytest.approx(reference, rel=1e-9)
        assert h2_gramian(model).value == pytest.approx(reference, rel=1e-9)

    def test_idroop_with_k3_matches_quadrature(self, ten_bus, idroop_fleet):
        model = assemble_closed_loop(ten_bus, idroop_fleet, high_noise(10))
        assert model.derivative_noise_present
        result = h2_frequency_weighted(model)
        reference = oracles.quadrature_h2(*oracles.effective_system(model))
        assert result.kind == "finite"
        assert result.value == pytest.approx(reference, rel=1e-6)
        # Heterogeneous buses and a mixed fleet, against the oracle's own
        # deflation and Kronecker solve.
        mixed = mixed_fleet_model(np.random.default_rng(5))
        assert mixed.derivative_noise_present
        assert {c.mode.value for c in mixed.fleet[0]} == {"CP", "DC", "IDROOP"}
        reference = oracles.gramian_h2(*oracles.effective_system(mixed))
        assert h2_frequency_weighted(mixed).value == pytest.approx(reference, rel=1e-9)

    def test_feedthrough_gain_matches_high_frequency_response(self, ten_bus):
        fleet = uniform_fleet(10, "IDROOP", r_r=15.0, delta=6.0, nu=0.9)
        fleet[::2] = [InverterConfig.virtual_inertia(r_r=15.0, m_v=0.15)] * 5
        model = assemble_closed_loop(ten_bus, fleet, high_noise(10))
        result = h2_frequency_weighted(model)
        assert result.kind == "infinite"
        omega = 2.0 * np.pi * 1e6
        response = model.c @ np.linalg.solve(1j * omega * np.eye(model.n_states) - model.a,
                                             model.b_w2 + 1j * omega * model.b_w3)
        assert result.feedthrough_gain == pytest.approx(np.linalg.norm(response, 2), rel=1e-6)


class TestModal:
    def test_single_bus_single_zero_mode(self):
        net = path_network(1)
        decomposition = modal_decompose(assemble_closed_loop(net, uniform_fleet(1, "DC", r_r=15.0)))
        assert decomposition.eigenvalues.tolist() == [0.0]

    def test_two_bus_eigenvalues(self):
        net = path_network(2, susceptance=1.0)
        decomposition = modal_decompose(assemble_closed_loop(net, uniform_fleet(2, "DC", r_r=15.0)))
        assert np.allclose(decomposition.eigenvalues, [0.0, 2.0])

    def test_transform_orthonormal_and_diagonalizing(self, ten_bus, dc_fleet):
        from gridfreq import build_laplacian

        decomposition = modal_decompose(assemble_closed_loop(ten_bus, dc_fleet))
        u = decomposition.transform
        assert np.abs(u.T @ u - np.eye(10)).max() < 1e-10
        assert np.allclose(u[:, 0], 1.0 / np.sqrt(10.0))
        recovered = u.T @ build_laplacian(ten_bus) @ u
        assert np.abs(recovered - np.diag(decomposition.eigenvalues)).max() < 1e-9

    def test_mode_sum_equals_full_norm_on_path(self):
        net = path_network(5)
        cfgs = uniform_fleet(5, "DC", r_r=15.0)
        noise = [NoiseGains(k1=0.1, k2=5.0)] * 5
        model = assemble_closed_loop(net, cfgs, noise)
        total = sum(r.value for r in mode_norms(modal_decompose(model)))
        full = h2_gramian(model).value
        assert total == pytest.approx(full, rel=1e-8)

    def test_mode_sum_for_idroop_weighted_norm(self):
        net = path_network(5)
        cfgs = uniform_fleet(5, "IDROOP", r_r=15.0, delta=6.0, nu=0.3)
        noise = high_noise(5)
        model = assemble_closed_loop(net, cfgs, noise)
        total = sum(r.value for r in mode_norms(modal_decompose(model)))
        full = h2_frequency_weighted(model).value
        assert total == pytest.approx(full, rel=1e-6)

    def test_virtual_inertia_modes_all_infinite(self):
        net = path_network(3)
        cfgs = uniform_fleet(3, "VI", r_r=15.0, m_v=0.15)
        decomposition = modal_decompose(assemble_closed_loop(net, cfgs, high_noise(3)))
        for result in mode_norms(decomposition):
            assert result.kind == "infinite"
            assert result.feedthrough_gain == pytest.approx(5.0 * 0.15 / 1.15, abs=1e-9)

    @pytest.mark.parametrize("mode", ["CP", "DC", "VI", "IDROOP"])
    def test_one_stacked_build_and_two_solves(self, monkeypatch, ten_bus, mode):
        # Every mode comes from one stacked closed-loop build, and the norms
        # from one stacked solve, which shifts the zero mode's integrator
        # away and leaves the others as built.  Each equals its one-mode solve.
        params = {"CP": {}, "DC": dict(r_r=15.0), "VI": dict(r_r=15.0, m_v=0.15),
                  "IDROOP": dict(r_r=15.0, delta=6.0, nu=0.9)}[mode]
        calls = {"_loop_matrices": [], "_h2": []}
        for name in calls:
            original = getattr(analysis, name)

            def counted(*args, _name=name, _original=original):
                calls[_name].append(args)
                return _original(*args)

            monkeypatch.setattr(analysis, name, counted)
        decomposition = modal_decompose(assemble_closed_loop(
            ten_bus, uniform_fleet(10, mode, **params), [NoiseGains(k1=0.1, k2=5.0)] * 10))
        norms = mode_norms(decomposition)
        assert len(calls["_loop_matrices"]) == 1
        [(_, _, _, null_vectors)] = calls["_h2"]
        dim = decomposition.a.shape[-1]
        assert null_vectors.tolist() == [[1.0] + [0.0] * (dim - 1)] + [[0.0] * dim] * 9
        for k, result in enumerate(norms):
            alone = analysis._h2(decomposition.a[k], decomposition.b[k], decomposition.c[k],
                                 null_vectors[k])
            assert repr(result) == repr(alone)

    def test_a_failing_mode_is_named_by_its_index(self):
        # Negating a non-zero mode's state matrix makes it unstable; the
        # error's point is that mode's index among all modes.
        system = reduce_document(load_document(resources.files("gridfreq") / "data"
                                               / "example-10bus.json"))
        decomposition = modal_decompose(
            assemble_closed_loop(system.network, system.configs, system.noise))
        decomposition.a[3] *= -1.0
        with pytest.raises(NumericalError, match="right half-plane") as excinfo:
            mode_norms(decomposition)
        assert excinfo.value.point == 3

    def test_heterogeneous_fleet_rejected(self, ten_bus):
        cfgs = uniform_fleet(10, "DC", r_r=15.0)
        cfgs[3] = uniform_fleet(1, "DC", r_r=14.0)[0]
        with pytest.raises(ValidationError, match="heterogeneous"):
            modal_decompose(assemble_closed_loop(ten_bus, cfgs))
        net = ten_bus_network()
        mixed = uniform_fleet(10, "DC", r_r=15.0)
        mixed[0] = uniform_fleet(1, "CP")[0]
        with pytest.raises(ValidationError, match="heterogeneous"):
            modal_decompose(assemble_closed_loop(net, mixed))


def droop_optimality(**kwargs):
    """verify_steady_state_optimality of the ten-bus network's DC fleet."""
    model = assemble_closed_loop(ten_bus_network(), uniform_fleet(10, "DC", r_r=15.0))
    return verify_steady_state_optimality(model, **kwargs)


class TestOptimalAllocation:
    def test_zero_imbalance(self):
        allocation = optimal_allocation(0.0, [1.0, 2.0], [3.0])
        assert np.allclose(allocation.delta_q_g, 0.0)
        assert np.allclose(allocation.delta_q_r, 0.0)
        assert allocation.ss_cost == 0.0

    def test_symmetric_split(self):
        allocation = optimal_allocation(1.0, [1.0], [1.0])
        assert allocation.delta_q_g[0] == pytest.approx(0.5)
        assert allocation.delta_q_r[0] == pytest.approx(0.5)
        assert allocation.lambda_star == pytest.approx(0.5)
        assert allocation.ss_cost == pytest.approx(0.25)

    def test_hand_solved_two_participants(self):
        allocation = optimal_allocation(1.0, [1.0, 3.0], [])
        assert np.allclose(allocation.delta_q_g, [0.75, 0.25])
        assert allocation.lambda_star == pytest.approx(0.75)

    def test_equal_marginal_cost_and_balance(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            alpha_g = rng.uniform(0.5, 20.0, size=rng.integers(1, 6))
            alpha_r = rng.uniform(0.5, 20.0, size=rng.integers(0, 4))
            delta_p = float(rng.normal(0.0, 2.0))
            allocation = optimal_allocation(delta_p, alpha_g, alpha_r)
            total = allocation.delta_q_g.sum() + allocation.delta_q_r.sum()
            assert total == pytest.approx(delta_p, abs=1e-10)
            marginal = np.concatenate([alpha_g * allocation.delta_q_g,
                                       alpha_r * allocation.delta_q_r])
            assert np.abs(marginal - allocation.lambda_star).max() < 1e-10

    def test_beats_random_feasible_perturbations(self):
        rng = np.random.default_rng(43)
        alpha_g = np.array([1.0, 2.5, 0.7])
        alpha_r = np.array([3.0, 1.2])
        delta_p = 1.3
        allocation = optimal_allocation(delta_p, alpha_g, alpha_r)

        def cost(dq):
            alpha = np.concatenate([alpha_g, alpha_r])
            return 0.5 * float(alpha @ dq**2)

        best = cost(np.concatenate([allocation.delta_q_g, allocation.delta_q_r]))
        assert best == pytest.approx(allocation.ss_cost)
        for _ in range(1000):
            perturbation = rng.standard_normal(5) * 0.2
            perturbation -= perturbation.mean()  # keep the balance
            candidate = np.concatenate([allocation.delta_q_g, allocation.delta_q_r])
            candidate = candidate + perturbation
            assert cost(candidate) >= best - 1e-12

    def test_empty_participants_rejected(self):
        with pytest.raises(ValidationError):
            optimal_allocation(1.0, [], [])
        with pytest.raises(ValidationError):
            optimal_allocation(1.0, [0.0], [1.0])

    @pytest.mark.parametrize("build,message", [
        (lambda: optimal_allocation(1.0, [float("nan")], [1.0]), "alpha_g[0]: must be finite"),
        (lambda: optimal_allocation(1.0, [1.0], [2.0, float("inf")]),
         "alpha_r[1]: must be finite"),
        (lambda: optimal_allocation(1.0, ["x"], [1.0]), "alpha_g[0]: must be a number"),
        (lambda: optimal_allocation(float("nan"), [1.0], [1.0]), "delta_p: must be finite"),
        (lambda: optimal_allocation(1.0, [1.0], [-1.0]), "cost coefficients must be > 0"),
        (lambda: droop_optimality(alpha_g=[15.0] * 3), "need one alpha_g per bus (10), got 3"),
        (lambda: droop_optimality(alpha_r=[15.0] * 3),
         "need one alpha_r per droop-active bus (10), got 3"),
        (lambda: droop_optimality(tol=float("nan")), "tol: must be finite"),
        (lambda: droop_optimality(tol=-1e-9), "tol: must be >= 0"),
    ], ids=["alpha_g-nan", "alpha_r-inf", "alpha_g-string", "delta_p-nan", "alpha_r-negative",
            "alpha_g-count", "alpha_r-count", "tol-nan", "tol-negative"])
    def test_bad_inputs_named(self, build, message):
        with pytest.raises(ValidationError) as excinfo:
            build()
        assert str(excinfo.value) == message


class TestSteadyStateOptimality:
    def test_droop_fleet_is_optimal_with_multiplier_omega0(self):
        net = ten_bus_network(injections={9: -0.5})
        cfgs = uniform_fleet(10, "DC", r_r=15.0)
        model = assemble_closed_loop(net, cfgs)
        report = verify_steady_state_optimality(model)
        assert report.passed
        assert report.max_gap_g < 1e-9 and report.max_gap_r < 1e-9
        assert report.lambda_star == pytest.approx(model.reference.omega0, abs=1e-9)

    def test_heterogeneous_droops_still_optimal(self):
        net = ten_bus_network(injections={2: 0.4, 5: -0.7})
        rng = np.random.default_rng(3)
        buses = [type(b)(id=b.id, inertia=b.inertia, damping=b.damping,
                         governor_droop=float(rng.uniform(5, 40)), injection=b.injection)
                 for b in net.buses]
        from gridfreq import PowerNetwork

        net = PowerNetwork(buses, net.lines)
        cfgs = [uniform_fleet(1, "DC", r_r=float(rng.uniform(5, 40)))[0] for _ in range(10)]
        model = assemble_closed_loop(net, cfgs)
        report = verify_steady_state_optimality(model)
        assert report.passed
        assert report.lambda_star == pytest.approx(model.reference.omega0, abs=1e-9)

    def test_idroop_matches_droop_allocation(self):
        net = ten_bus_network(injections={9: -0.5})
        droop = uniform_fleet(10, "DC", r_r=15.0)
        dyn = uniform_fleet(10, "IDROOP", r_r=15.0, delta=6.0, nu=0.9)
        ss_droop = steady_state(net, droop)
        ss_dyn = steady_state(net, dyn)
        assert np.allclose(ss_droop.delta_q_r_star, ss_dyn.delta_q_r_star, atol=1e-12)
        assert verify_steady_state_optimality(assemble_closed_loop(net, dyn)).passed

    def test_ungoverned_bus_takes_no_share_by_default(self):
        """A bus without a governor (r_g = inf) is no g-resource of the default costs."""
        net = path_network(2, damping=0.75)
        net = PowerNetwork([replace(net.buses[0], governor_droop=float("inf"), injection=0.3),
                            replace(net.buses[1], injection=-0.5)], net.lines)
        cfgs = [InverterConfig.droop(r_r=10.0), InverterConfig.idroop(r_r=20.0)]
        model = assemble_closed_loop(net, cfgs)
        report = verify_steady_state_optimality(model)
        assert report.passed
        omega0 = model.reference.omega0
        assert omega0 == pytest.approx(-0.2 / (1.5 + 1 / 15 + 1 / 10 + 1 / 20), rel=1e-12)
        assert omega0 == pytest.approx(-0.11650, abs=5e-6)
        assert report.max_gap_g <= 1e-15 and report.max_gap_r <= 1e-15

    def test_mismatched_costs_fail(self):
        net = ten_bus_network(injections={9: -0.5})
        cfgs = uniform_fleet(10, "DC", r_r=15.0)
        report = verify_steady_state_optimality(assemble_closed_loop(net, cfgs),
                                                alpha_r=[10.0] * 10)
        assert not report.passed
        assert report.max_gap_r > 1e-6
