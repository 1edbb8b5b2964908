"""The stacked h2 sweep and the nadir sweep against the one-point-at-a-time
route of tests/oracles.py."""

import os
from importlib import resources
from math import ceil

import numpy as np
import pytest

import gridfreq.sweep
import oracles
from gridfreq import (
    Disturbance,
    InverterConfig,
    NoiseGains,
    NumericalError,
    SimConfig,
    SweepAxis,
    SweepSpec,
    ValidationError,
    assemble_closed_loop,
    load_document,
    reduce_document,
    run_sweep,
)
from conftest import random_connected_network

AXES = {
    "delta": SweepAxis("delta", 1.0, 8.0, 4),
    "nu": SweepAxis("nu", 0.01, 1.5, 3, "log"),
    "r_r": SweepAxis("r_r", 5.0, 30.0, 4, "log"),
    "m_v": SweepAxis("m_v", 0.0, 0.4, 3),
}
AXIS_SETS = [("delta",), ("nu",), ("r_r",), ("m_v",),
             ("delta", "nu"), ("r_r", "m_v"), ("nu", "r_r"), ("m_v", "delta")]


def mixed_fleet(vi_k3=0.0):
    """A random 8-bus network whose bus i runs CP, DC, VI or IDROOP by i mod
    4 (the second CP config carries an r_r that no law reads), with
    injection and measurement noise everywhere and derivative noise on the
    IDROOP buses, and on the VI buses when ``vi_k3`` > 0."""
    network = random_connected_network(np.random.default_rng(5), n_min=8, n_max=8)
    fleet = [InverterConfig.constant_power(), InverterConfig.droop(r_r=12.0),
             InverterConfig.virtual_inertia(r_r=18.0, m_v=0.2),
             InverterConfig.idroop(r_r=15.0, delta=5.0, nu=0.7)]
    configs = [fleet[i % 4] for i in range(8)]
    configs[4] = InverterConfig(mode="CP", r_r=20.0)
    k3 = {2: vi_k3, 3: 3.0}
    noise = [NoiseGains(k1=0.1, k2=2.0, k3=k3.get(i % 4, 0.0)) for i in range(8)]
    return network, configs, noise


def bundled(name):
    system = reduce_document(load_document(resources.files("gridfreq") / "data" / name))
    return system.network, system.configs, system.noise


FLEETS = {
    "mixed": mixed_fleet,
    "mixed-vi-k3": lambda: mixed_fleet(vi_k3=4.0),  # infinite except where m_v = 0
    "bundled-IDROOP": lambda: bundled("example-10bus.json"),
    "bundled-VI": lambda: bundled("example-10bus-vi.json"),
}


def spec_of(*names, metric="h2"):
    return SweepSpec(axes=tuple(AXES[name] for name in names), metric=metric)


@pytest.mark.parametrize("fleet", FLEETS)
@pytest.mark.parametrize("names", AXIS_SETS, ids=["-".join(s) for s in AXIS_SETS])
def test_sweep_equals_the_point_route_bitwise(fleet, names):
    network, configs, noise = FLEETS[fleet]()
    spec = spec_of(*names)
    assert run_sweep(network, configs, noise, spec) == oracles.sweep_point_route(
        network, configs, noise, spec)


def test_mixed_finite_and_infinite_points():
    network, configs, noise = mixed_fleet(vi_k3=4.0)
    values = [v for *_, v in run_sweep(network, configs, noise, spec_of("m_v", "delta"))]
    assert np.isfinite(values[:4]).all()  # m_v = 0: no feedthrough
    assert np.isinf(values[4:]).all()


def test_sweep_longer_than_one_chunk(monkeypatch):
    network, configs, noise = mixed_fleet()
    dim = assemble_closed_loop(network, configs, noise).n_states
    monkeypatch.setattr(gridfreq.sweep, "CHUNK_BYTES", 3 * 16 * 8 * dim * dim)
    calls = []

    def counted(a, *args):
        calls.append(len(a))
        return original(a, *args)

    original = gridfreq.sweep._h2
    monkeypatch.setattr(gridfreq.sweep, "_h2", counted)
    spec = SweepSpec(axes=(SweepAxis("delta", 1.0, 8.0, 5), SweepAxis("r_r", 5.0, 30.0, 4)),
                     metric="h2")
    assert run_sweep(network, configs, noise, spec) == oracles.sweep_point_route(
        network, configs, noise, spec)
    assert calls == [3] * 6 + [2]
    assert len(calls) == ceil(20 / 3)


def test_failure_in_a_later_chunk_names_its_grid_point(monkeypatch):
    network, configs, noise = bundled("example-10bus-dc.json")
    monkeypatch.setattr(gridfreq.sweep, "CHUNK_BYTES", 2 * 16 * 8 * 20 * 20)
    spec = SweepSpec(axes=(SweepAxis("r_r", 15.0, 1e-300, 4),), metric="h2")
    with pytest.raises(NumericalError, match=r"^sweep point 3 \(r_r=1e-300\): state matrix "
                                             r"has eigenvalues in the right half-plane"):
        run_sweep(network, configs, noise, spec)


def test_nadir_failure_names_its_grid_point():
    network, configs, noise = bundled("example-10bus-dc.json")
    spec = SweepSpec(axes=(SweepAxis("r_r", 15.0, 1e-300, 2, "log"),), metric="nadir")
    sim_config = SimConfig(dt=0.01, horizon=1.0, disturbances=(Disturbance(0.1, 0, -0.1),))
    with pytest.raises(NumericalError, match=r"^sweep point 1 \(r_r=1e-300\): simulation "
                                             r"diverged"):
        run_sweep(network, configs, noise, spec, sim_config)


@pytest.mark.parametrize("first,second", [
    ((0.5, -0.5, 3), (1.0, -1.0, 3)),  # nu = 0 is valid, delta = 0 is not
    ((-0.5, 0.5, 3), (-1.0, 1.0, 3)),  # both fail at the first point
    ((0.5, -0.5, 4), (1.0, 2.0, 2)),  # only nu fails, in a later row
    ((0.5, 1.5, 3), (2.0, -2.0, 5)),  # only delta fails, in a later column
])
def test_invalid_values_raise_the_point_walks_error(first, second):
    """Values are checked along the first row and column only, yet the error
    is the one the point-by-point route meets first."""
    network, configs, noise = mixed_fleet()
    spec = SweepSpec(axes=(SweepAxis("nu", *first), SweepAxis("delta", *second)), metric="h2")
    with pytest.raises(ValidationError) as expected:
        oracles.sweep_point_route(network, configs, noise, spec)
    with pytest.raises(ValidationError) as raised:
        run_sweep(network, configs, noise, spec)
    assert str(raised.value) == str(expected.value)


def test_validates_each_value_once_per_distinct_config(monkeypatch):
    network, configs, noise = bundled("example-10bus.json")
    calls = []
    original = gridfreq.sweep.replace
    monkeypatch.setattr(gridfreq.sweep, "replace",
                        lambda *args, **kwargs: calls.append(kwargs) or original(*args, **kwargs))
    spec = SweepSpec(axes=(SweepAxis("delta", 1.0, 8.0, 6), SweepAxis("nu", 0.1, 1.0, 5)),
                     metric="h2")
    run_sweep(network, configs, noise, spec)
    assert len(set(configs)) == 1
    assert len(calls) == 6 + 5 - 1


def test_failure_after_infinite_points_names_its_grid_point():
    network, configs, noise = mixed_fleet(vi_k3=4.0)
    spec = SweepSpec(axes=(SweepAxis("m_v", 0.2, 0.0, 2), SweepAxis("r_r", 15.0, 1e-300, 2)),
                     metric="h2")
    with pytest.raises(NumericalError, match=r"^sweep point 3 \(m_v=0\.0, r_r=1e-300\): "):
        run_sweep(network, configs, noise, spec)


def test_overflowing_norm_before_an_unstable_point_names_the_norm():
    """Point 0's noise overflows its norm and point 1 is not Hurwitz: a stack
    stops at its first failing point, whichever guard judges it."""
    network, configs, _ = bundled("example-10bus-dc.json")
    noise = [NoiseGains(k1=1e200)] * network.n_buses
    spec = SweepSpec(axes=(SweepAxis("r_r", 15.0, 1e-300, 2),), metric="h2")
    with pytest.raises(NumericalError, match=r"^sweep point 0 \(r_r=15\.0\): squared H2 norm "
                                             r"is not finite \(inf\); the noise overflows it$"):
        run_sweep(network, configs, noise, spec)


STEP = SimConfig(dt=0.01, horizon=5.0, disturbances=(Disturbance(1.0, 7, -0.5),))
DELTA_NU = SweepSpec(axes=(SweepAxis("delta", 1.0, 8.0, 6), SweepAxis("nu", 0.1, 1.5, 6, "log")),
                     metric="h2")


def counting(monkeypatch, name):
    """Replace gridfreq.sweep's ``name`` with a wrapper that records each
    call's first argument, and return that record."""
    calls = []
    original = getattr(gridfreq.sweep, name)
    monkeypatch.setattr(gridfreq.sweep, name,
                        lambda first, *args: calls.append(first) or original(first, *args))
    return calls


def test_droop_fleet_delta_nu_grid_is_one_h2_solve(monkeypatch):
    """No DC config carries delta or nu, so all 36 points are one closed loop."""
    network, configs, noise = bundled("example-10bus-dc.json")
    calls = counting(monkeypatch, "_h2")
    rows = run_sweep(network, configs, noise, DELTA_NU)
    assert [len(a) for a in calls] == [1]
    assert rows == oracles.sweep_point_route(network, configs, noise, DELTA_NU)


def test_cp_fleet_r_r_grid_is_one_h2_solve(monkeypatch):
    """No CP law reads r_r, so an r_r grid over CP configs that carry one is
    one closed loop."""
    network, _, noise = bundled("example-10bus-dc.json")
    configs = [InverterConfig(mode="CP", r_r=20.0)] * network.n_buses
    spec = SweepSpec(axes=(SweepAxis("r_r", 5.0, 30.0, 4),), metric="h2")
    calls = counting(monkeypatch, "_h2")
    rows = run_sweep(network, configs, noise, spec)
    assert [len(a) for a in calls] == [1]
    assert rows == oracles.sweep_point_route(network, configs, noise, spec)


def test_droop_fleet_delta_nu_nadir_grid_is_one_simulation(monkeypatch):
    network, configs, noise = bundled("example-10bus-dc.json")
    spec = SweepSpec(axes=DELTA_NU.axes, metric="nadir")
    calls = counting(monkeypatch, "simulate_deterministic")
    rows = run_sweep(network, configs, noise, spec, STEP)
    assert len(calls) == 1
    assert rows == oracles.sweep_point_route(network, configs, noise, spec, STEP)


@pytest.mark.parametrize("fleet,names,distinct", [
    ("bundled-DC", ("r_r", "nu"), 4), ("bundled-VI", ("delta", "m_v"), 3),
    ("bundled-IDROOP", ("m_v", "nu"), 3), ("mixed", ("delta", "nu"), 12),
])
def test_nadir_sweep_equals_the_point_route_bitwise(monkeypatch, fleet, names, distinct):
    network, configs, noise = {**FLEETS, "bundled-DC": lambda: bundled("example-10bus-dc.json")}[
        fleet]()
    spec = spec_of(*names, metric="nadir")
    calls = counting(monkeypatch, "simulate_deterministic")
    rows = run_sweep(network, configs, noise, spec, STEP)
    assert len(calls) == distinct
    assert rows == oracles.sweep_point_route(network, configs, noise, spec, STEP)


@pytest.mark.parametrize("metric", ["h2", "nadir"])
@pytest.mark.parametrize("axes,message", [
    ((SweepAxis("delta", 1.0, 2.0, 3), SweepAxis("r_r", 15.0, 1e-300, 2)),
     r"^sweep point 1 \(delta=1\.0, r_r=1e-300\): "),
    ((SweepAxis("r_r", 15.0, 1e-300, 2), SweepAxis("delta", 1.0, 2.0, 3)),
     r"^sweep point 3 \(r_r=1e-300, delta=1\.0\): "),
], ids=["delta-major", "r_r-major"])
def test_failure_on_a_repeated_point_names_its_first_occurrence(metric, axes, message):
    """delta is not carried, so the grid has two distinct points, and the
    failing one first occurs where a walk in grid order meets it."""
    network, configs, noise = bundled("example-10bus-dc.json")
    with pytest.raises(NumericalError, match=message):
        run_sweep(network, configs, noise, SweepSpec(axes=axes, metric=metric), STEP)


def test_a_parameter_swept_on_both_axes_is_rejected():
    with pytest.raises(ValidationError,
                       match=r"^axes\[1\]\.name: 'delta' is already swept by axes\[0\]$"):
        SweepSpec(axes=(AXES["delta"], SweepAxis("delta", 2.0, 3.0, 2)), metric="h2")


@pytest.mark.parametrize("counts,message", [
    ((10**20,), "axes: 1e+20 grid points need 5.12e+22 bytes of point bookkeeping"),
    ((10**200, 10**200), "axes: inf grid points need inf bytes of point bookkeeping"),
])
def test_grid_past_physical_memory_is_rejected_before_it_is_built(counts, message):
    network, configs, noise = mixed_fleet()
    spec = SweepSpec(axes=tuple(SweepAxis(name, 1.0, 2.0, count)
                                for name, count in zip(("delta", "nu"), counts)), metric="h2")
    with pytest.raises(ValidationError) as raised:
        run_sweep(network, configs, noise, spec)
    assert str(raised.value).startswith(message)


def test_grid_bound_reads_physical_memory(monkeypatch):
    """36 points need 36 * POINT_BYTES bytes: one byte less is rejected."""
    network, configs, noise = bundled("example-10bus-dc.json")
    need = 36 * gridfreq.sweep.POINT_BYTES
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    with pytest.raises(ValidationError, match=r"^axes: 36 grid points need 1\.84e\+04 bytes"):
        run_sweep(network, configs, noise, DELTA_NU)
    pages["SC_PHYS_PAGES"] = need
    assert len(run_sweep(network, configs, noise, DELTA_NU)) == 36


def test_log_axis_at_the_float_range_edge_keeps_its_exact_bounds():
    """geomspace overflows while spacing these bounds, then sets them exactly;
    under the suite's warnings-as-errors the overflow would fail the test."""
    network, configs, noise = bundled("example-10bus-dc.json")
    spec = SweepSpec(axes=(SweepAxis("nu", 1.7976931348622103e308, 1.0, 2, "log"),), metric="h2")
    rows = run_sweep(network, configs, noise, spec)
    assert [row[0] for row in rows] == [1.7976931348622103e308, 1.0]
