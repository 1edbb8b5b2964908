import json
import os
import subprocess
import sys
from functools import reduce
from importlib import resources
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gridfreq import (
    Trajectory,
    ValidationError,
    load_document,
    parse_document,
    reduce_document,
)
from gridfreq.cli import _write_trajectory_csv, main
import gridfreq.dynamics
import gridfreq.network
from oracles import document_to_obj, save_document

DATA = resources.files("gridfreq") / "data"
EXAMPLE = str(DATA / "example-10bus.json")
EXAMPLE_DC = str(DATA / "example-10bus-dc.json")
EXAMPLE_VI = str(DATA / "example-10bus-vi.json")
EXAMPLE_CP = str(DATA / "example-10bus-cp.json")


def minimal_doc_obj():
    return {
        "schema_version": "1",
        "buses": [
            {"id": 0, "kind": "generator", "inertia": 1.0, "damping": 0.1,
             "governor_droop": 15.0, "injection": 0.2},
            {"id": 1, "kind": "load", "damping": 0.0, "injection": -0.2},
            {"id": 2, "kind": "generator", "inertia": 2.0, "damping": 0.1,
             "governor_droop": 10.0, "injection": 0.0},
        ],
        "lines": [
            {"from": 0, "to": 1, "susceptance": 2.0},
            {"from": 1, "to": 2, "susceptance": 2.0},
        ],
        "inverters": [
            {"bus": 0, "mode": "IDROOP", "q0": 0.0, "r_r": 15.0, "delta": 6.0, "nu": 0.9},
        ],
        "noise": [{"bus": 0, "k1": 0.1, "k2": 5.0, "k3": 5.0}],
        "disturbances": [{"time": 1.0, "bus": 2, "delta_p": -0.1}],
    }


class TestDocument:
    def test_round_trip_identity(self, tmp_path):
        doc = parse_document(minimal_doc_obj())
        path = tmp_path / "net.json"
        save_document(doc, path)
        again = load_document(path)
        assert again == doc

    def test_bundled_examples_round_trip(self, tmp_path):
        for name in (EXAMPLE, EXAMPLE_DC, EXAMPLE_VI, EXAMPLE_CP):
            doc = load_document(name)
            path = tmp_path / "copy.json"
            save_document(doc, path)
            assert load_document(path) == doc

    def test_missing_inverter_defaults_to_constant_power(self):
        doc = parse_document(minimal_doc_obj())
        # bus 2 has no inverter entry
        assert doc.inverters[1].mode.value == "CP"
        assert doc.inverters[1].q0 == 0.0

    def test_unknown_schema_rejected(self):
        obj = minimal_doc_obj()
        obj["schema_version"] = "99"
        with pytest.raises(ValidationError):
            parse_document(obj)

    def test_inverter_on_load_bus_rejected(self):
        obj = minimal_doc_obj()
        obj["inverters"].append({"bus": 1, "mode": "DC", "r_r": 15.0})
        with pytest.raises(ValidationError, match="non-generator"):
            parse_document(obj)

    def test_duplicate_entries_rejected(self):
        obj = minimal_doc_obj()
        obj["noise"].append({"bus": 0, "k1": 0.0})
        with pytest.raises(ValidationError, match="duplicate"):
            parse_document(obj)

    def test_disturbance_must_hit_generator(self):
        obj = minimal_doc_obj()
        obj["disturbances"][0]["bus"] = 1
        with pytest.raises(ValidationError, match="non-generator"):
            parse_document(obj)

    def test_reduce_document_maps_ids(self):
        system = reduce_document(parse_document(minimal_doc_obj()))
        assert system.network.n_buses == 2
        assert system.id_map == {0: 0, 2: 1}
        assert system.bus_ids == [0, 2]
        assert system.disturbances[0].bus == 1
        # the load-bus injection redistributes evenly over the symmetric path
        assert np.allclose(system.network.injections(), [0.1, -0.1])

    def test_comment_preserved(self):
        doc = load_document(EXAMPLE)
        assert doc.comment and "placeholder" in doc.comment
        assert document_to_obj(doc)["comment"] == doc.comment


def count_calls(monkeypatch, home, name):
    """Record each call of home.<name>, through every gridfreq module that binds it."""
    original = getattr(home, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "gridfreq" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


class TestValidateOnce:
    def test_h2_sweep_validates_once_and_solves_no_steady_state(self, monkeypatch, capsys,
                                                               tmp_path):
        validations = count_calls(monkeypatch, gridfreq.network, "validate_network")
        steady_states = count_calls(monkeypatch, gridfreq.dynamics, "steady_state")
        spec = {"axes": [{"name": "delta", "min": 1.0, "max": 6.0, "count": 3},
                         {"name": "nu", "min": 0.1, "max": 1.0, "count": 2}], "metric": "h2"}
        (tmp_path / "sweep.json").write_text(json.dumps(spec))
        assert main(["sweep", "--network", EXAMPLE, "--sweep", str(tmp_path / "sweep.json"),
                     "--out", str(tmp_path)]) == 0
        assert len(validations) == 1
        assert steady_states == []

    def test_h2_on_reduced_document_validates_each_network_once(self, monkeypatch, capsys,
                                                                tmp_path):
        validations = count_calls(monkeypatch, gridfreq.network, "validate_network")
        path = tmp_path / "net.json"
        path.write_text(json.dumps(minimal_doc_obj()))
        assert main(["h2", "--network", str(path)]) == 0
        assert len(validations) <= 2  # the document's network and the reduced one


# Run in a fresh interpreter: which modules the CLI loads is the subject.
SCIPY_ON_DEMAND = """
import sys
import gridfreq
from gridfreq.cli import main

network, out = sys.argv[1:]
def scipy_loaded():
    return any(name.split(".")[0] == "scipy" for name in sys.modules)
assert not scipy_loaded(), "import gridfreq"
for command, *flags in (["steady-state"], ["stability"],
                        ["simulate", "--horizon", "2", "--out", out]):
    assert main([command, "--network", network, *flags]) == 0
    assert not scipy_loaded(), command
assert main(["h2", "--network", network]) == 0
assert scipy_loaded(), "h2"
"""


def test_scipy_loads_only_for_a_lyapunov_solve(tmp_path):
    src = str(Path(gridfreq.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-W", "error", "-c", SCIPY_ON_DEMAND, EXAMPLE,
                          str(tmp_path)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def mixed_doc_obj():
    """A seeded random tree plus 24 extra lines on 120 buses, 20 of them DC or
    IDROOP generators with noise and the rest load buses."""
    rng = np.random.default_rng(11)
    n, n_gen = 120, 20
    gens = set(rng.choice(n, size=n_gen, replace=False).tolist())
    pairs = {(int(rng.integers(i)), i) for i in range(1, n)}
    extra = rng.integers(n, size=(n // 5, 2)).tolist()
    pairs |= {(min(i, j), max(i, j)) for i, j in extra if i != j}
    buses = [{"id": i, "kind": "generator", "inertia": float(rng.uniform(0.5, 5.0)),
              "damping": float(rng.uniform(0.05, 0.5)),
              "governor_droop": float(rng.uniform(10.0, 30.0)),
              "injection": float(rng.uniform(-1.0, 1.0))} if i in gens
             else {"id": i, "kind": "load", "injection": float(rng.uniform(-1.0, 0.0))}
             for i in range(n)]
    inverters = [{"bus": i, "mode": "DC", "r_r": float(rng.uniform(10.0, 30.0))} if i % 2
                 else {"bus": i, "mode": "IDROOP", "r_r": float(rng.uniform(10.0, 30.0)),
                       "delta": float(rng.uniform(2.0, 10.0)), "nu": float(rng.uniform(0.1, 2.0))}
                 for i in sorted(gens)]
    return {"schema_version": "1", "buses": buses,
            "lines": [{"from": i, "to": j, "susceptance": float(rng.uniform(1.0, 10.0))}
                      for i, j in sorted(pairs)],
            "inverters": inverters,
            "noise": [{"bus": i, "k1": 0.1, "k2": 5.0, "k3": 5.0} for i in sorted(gens)]}


# Prints the h2 value and the sweep metrics of one document as one JSON list.
H2_AND_SWEEP = """
import contextlib, io, json, sys
from gridfreq.cli import main

network, spec, out = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()) as h2:
    assert main(["h2", "--network", network]) == 0
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["sweep", "--network", network, "--sweep", spec, "--out", out]) == 0
rows = open(out + "/sweep.csv").read().splitlines()[1:]
print(json.dumps([json.loads(h2.getvalue())["value"]] + [float(r.split(",")[-1]) for r in rows]))
"""


def test_outputs_agree_across_blas_thread_counts(tmp_path):
    # Kron reduction and the Schur solves round differently at other BLAS
    # thread counts, so only agreement to rounding is promised across them.
    network, spec = tmp_path / "net.json", tmp_path / "sweep.json"
    network.write_text(json.dumps(mixed_doc_obj()))
    spec.write_text(json.dumps({"axes": [{"name": "delta", "min": 2.0, "max": 8.0, "count": 2}],
                                "metric": "h2"}))
    src = str(Path(gridfreq.__file__).parents[1])
    runs = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        runs.append(subprocess.Popen(
            [sys.executable, "-c", H2_AND_SWEEP, str(network), str(spec), str(tmp_path / threads)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    outputs = [run.communicate() for run in runs]
    for run, (_, stderr) in zip(runs, outputs):
        assert run.returncode == 0, stderr
    one, two = (np.array(json.loads(stdout)) for stdout, _ in outputs)
    assert one.shape == (3,) and np.all(np.isfinite(one))
    np.testing.assert_allclose(two, one, rtol=1e-10, atol=0.0)


class TestCli:
    def test_h2_all_vi_reports_infinite(self, capsys):
        assert main(["h2", "--network", EXAMPLE_VI]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "infinite"
        assert out["method"] == "gramian"
        assert out["feedthrough_gain"] == pytest.approx(0.6522, abs=5e-5)

    def test_h2_closed_form_cross_check(self, capsys):
        assert main(["h2", "--network", EXAMPLE_DC, "--closed-form"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "gramian"
        assert out["closed_form"] == pytest.approx(2.595, abs=5e-4)
        assert out["closed_form_relative_gap"] < 1e-6

    def test_h2_closed_form_rejected_for_idroop(self, capsys):
        assert main(["h2", "--network", EXAMPLE, "--closed-form"]) == 1

    def test_stability_table_all_pass(self, capsys):
        assert main(["stability", "--network", EXAMPLE]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True
        assert len(out["conditions"]) == 10
        row = out["conditions"][0]
        assert row["condition1"] == pytest.approx(0.1552, abs=5e-5)
        assert row["condition2"] == pytest.approx(0.2287, abs=1e-4)

    def test_steady_state_zero_network(self, capsys, tmp_path):
        obj = minimal_doc_obj()
        for bus in obj["buses"]:
            bus["injection"] = 0.0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(obj))
        assert main(["steady-state", "--network", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["omega0"] == 0.0
        assert np.allclose(out["theta_star"], 0.0)
        assert out["optimality"]["passed"] is True

    def test_simulate_writes_csv_and_metrics(self, capsys, tmp_path):
        assert main(["simulate", "--network", EXAMPLE, "--out", str(tmp_path),
                     "--horizon", "5"]) == 0
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        expected = (
            ["t"]
            + [f"theta_dev_{i}" for i in range(10)]
            + [f"omega_dev_{i}" for i in range(10)]
            + [f"q_r_dev_{i}" for i in range(10)]
            + [f"x_{i}" for i in range(10)]
        )
        assert header.split(",") == expected
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert set(metrics) == {"nadir", "settling_frequency", "peak_inverter_power",
                                "empirical_output_variance"}
        assert metrics["nadir"] < 0.0

    def test_identical_runs_are_byte_identical(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--network", EXAMPLE, "--out", str(out1),
              "--stochastic", "--seed", "3", "--horizon", "20"])
        capsys.readouterr()
        main(["simulate", "--network", EXAMPLE, "--out", str(out2),
              "--stochastic", "--seed", "3", "--horizon", "20"])
        capsys.readouterr()
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()

    def test_trajectory_csv_holds_each_float_repr(self, tmp_path):
        times = np.array([0.0, 0.5, 1.0])
        theta = np.array([[-0.0, 1e-05], [1e16, 5e-324], [0.1, -2.5]])
        omega = np.array([[1.0 / 3.0, -1e-300], [2.0, 123456.789], [-0.0, 7e22]])
        q_r = -theta
        x = np.array([[0.25], [5e-324], [-1e16]])
        trajectory = Trajectory(times=times, theta_dev=theta, omega_dev=omega, q_r_dev=q_r,
                                x=x, idroop_buses=(1,), states=np.hstack([theta, omega, x]),
                                base_omega0=0.0)
        path = tmp_path / "trajectory.csv"
        _write_trajectory_csv(path, trajectory, [4, 7])
        lines = ["t,theta_dev_4,theta_dev_7,omega_dev_4,omega_dev_7,q_r_dev_4,q_r_dev_7,x_7"]
        for k in range(3):
            values = [times[k], *theta[k], *omega[k], *q_r[k], *x[k]]
            lines.append(",".join(repr(float(v)) for v in values))
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_stochastic_requires_seed(self, capsys):
        assert main(["simulate", "--network", EXAMPLE, "--stochastic"]) == 1

    def test_modal_command(self, capsys):
        assert main(["modal", "--network", EXAMPLE_DC]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["mode_norms"]) == 10
        assert out["sum_of_modes"] == pytest.approx(out["full_model"]["value"], rel=1e-8)

    def test_sweep_command(self, capsys, tmp_path):
        spec = {"axes": [{"name": "nu", "min": 0.01, "max": 1.0, "count": 3,
                          "spacing": "log"},
                         {"name": "delta", "min": 1.0, "max": 6.0, "count": 2}],
                "metric": "h2"}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--network", EXAMPLE, "--sweep", str(spec_path),
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "axis1,axis2,metric"
        assert len(lines) == 7
        out = json.loads(capsys.readouterr().out)
        assert out["points"] == 6

    def test_single_axis_sweep_leaves_axis2_blank(self, capsys, tmp_path):
        spec = {"axes": [{"name": "nu", "min": 0.01, "max": 1.0, "count": 4}],
                "metric": "h2"}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--network", EXAMPLE, "--sweep", str(spec_path),
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "axis1,axis2,metric"
        assert all(line.split(",")[1] == "" for line in lines[1:])
        capsys.readouterr()

    def test_nadir_sweep(self, capsys, tmp_path):
        spec = {"axes": [{"name": "m_v", "min": 0.05, "max": 0.3, "count": 3}],
                "metric": "nadir"}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--network", EXAMPLE_VI, "--sweep", str(spec_path),
                     "--out", str(tmp_path), "--horizon", "10"]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        nadirs = [float(r.split(",")[2]) for r in rows]
        assert len(nadirs) == 3
        assert all(v < 0.0 for v in nadirs)
        # more virtual inertia, shallower excursion
        assert abs(nadirs[2]) < abs(nadirs[0])
        capsys.readouterr()

    def test_nadir_sweep_requires_disturbances(self):
        from gridfreq import parse_sweep_spec, run_sweep, uniform_fleet
        from conftest import ten_bus_network

        spec = parse_sweep_spec({"axes": [{"name": "r_r", "min": 5, "max": 20, "count": 2}],
                                 "metric": "nadir"})
        with pytest.raises(ValidationError, match="disturbances"):
            run_sweep(ten_bus_network(), uniform_fleet(10, "DC", r_r=15.0), None, spec)

    def test_bad_sweep_specs_rejected(self, tmp_path):
        from gridfreq import parse_sweep_spec

        with pytest.raises(ValidationError):
            parse_sweep_spec({"axes": [], "metric": "h2"})
        with pytest.raises(ValidationError):
            parse_sweep_spec({"axes": [{"name": "nu", "min": 0.1, "max": 1, "count": 1}],
                              "metric": "h2"})
        with pytest.raises(ValidationError):
            parse_sweep_spec({"axes": [{"name": "q0", "min": 0.1, "max": 1, "count": 3}],
                              "metric": "h2"})
        with pytest.raises(ValidationError):
            parse_sweep_spec({"axes": [{"name": "nu", "min": 0.1, "max": 1, "count": 3}] * 3,
                              "metric": "h2"})
        with pytest.raises(ValidationError):
            parse_sweep_spec({"axes": [{"name": "nu", "min": 0.1, "max": 1, "count": 3}],
                              "metric": "settling"})
        with pytest.raises(ValidationError):
            parse_sweep_spec({"axes": [{"name": "nu", "min": -0.1, "max": 1, "count": 3,
                                        "spacing": "log"}], "metric": "h2"})

    def test_cp_closed_form_uses_swing_formula(self, capsys):
        assert main(["h2", "--network", EXAMPLE_CP, "--closed-form"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["closed_form"] == pytest.approx(0.3)
        assert out["closed_form_relative_gap"] < 1e-9

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_file_exits_one(self, capsys):
        assert main(["h2", "--network", "/nonexistent.json"]) == 1

    def test_invalid_document_exits_one(self, capsys, tmp_path):
        obj = minimal_doc_obj()
        obj["lines"][0]["susceptance"] = -2.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["h2", "--network", str(path)]) == 1

    def test_load_bus_noise_rejected(self, capsys, tmp_path):
        obj = minimal_doc_obj()
        obj["noise"] = [{"bus": 1, "k1": 0.5}]
        path = tmp_path / "load-noise.json"
        path.write_text(json.dumps(obj))
        assert main(["h2", "--network", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "load bus 1" in err

    def test_outputs_use_document_bus_ids(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(minimal_doc_obj()))
        assert main(["stability", "--network", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [row["bus"] for row in out["conditions"]] == [0, 2]
        assert main(["simulate", "--network", str(path), "--out", str(tmp_path),
                     "--horizon", "1"]) == 0
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header.split(",") == ["t", "theta_dev_0", "theta_dev_2", "omega_dev_0",
                                     "omega_dev_2", "q_r_dev_0", "q_r_dev_2", "x_0"]
        capsys.readouterr()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_inertia_exits_one(self, capsys, tmp_path, value):
        obj = minimal_doc_obj()
        obj["buses"][2]["inertia"] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))  # writes NaN, Infinity or -Infinity
        assert main(["steady-state", "--network", str(path)]) == 1
        assert "buses[2].inertia: must be finite" in capsys.readouterr().err

    def test_numerical_failure_exits_two(self, capsys, tmp_path):
        # negative damping slips past static sign checks only if large enough
        # to destabilize; build an undamped fleet whose Gramian cannot exist
        obj = minimal_doc_obj()
        obj["buses"] = [
            {"id": 0, "kind": "generator", "inertia": 1.0, "damping": 0.0,
             "governor_droop": 1e12, "injection": 0.0},
            {"id": 1, "kind": "generator", "inertia": 1.0, "damping": 0.0,
             "governor_droop": 1e12, "injection": 0.0},
        ]
        obj["lines"] = [{"from": 0, "to": 1, "susceptance": 1.0}]
        obj["inverters"] = []
        obj["noise"] = [{"bus": 0, "k1": 0.1}, {"bus": 1, "k1": 0.1}]
        obj["disturbances"] = []
        path = tmp_path / "undamped.json"
        path.write_text(json.dumps(obj))
        assert main(["h2", "--network", str(path)]) == 2


DELETE = object()


def _edit(obj, path, value):
    """Set the entry at a key/index path inside obj, or delete it."""
    *parents, key = path
    for step in parents:
        obj = obj[step]
    if value is DELETE:
        del obj[key]
    else:
        obj[key] = value


SCHEMA_ERRORS = [
    (("buses", 0, "id"), DELETE, "buses[0].id: missing"),
    (("lines", 0, "susceptance"), DELETE, "lines[0].susceptance: missing"),
    (("disturbances", 0, "delta_p"), DELETE, "disturbances[0].delta_p: missing"),
    (("inverters", 0, "mode"), "XX", "inverters[0].mode: unknown mode 'XX'"),
    (("inverters", 0, "bus"), "x", "inverters[0].bus: must be an integer"),
    (("buses",), {"0": {"id": 0}}, "buses: must be a list"),
    (("lines", 1), 5, "lines[1]: must be an object"),
    (("lines", 1, "susceptance"), "2.0", "lines[1].susceptance: must be a number"),
    (("buses", 2, "inertia"), 10**400, "buses[2].inertia: must be finite"),
]


def _axis(**fields):
    return {"name": "nu", "min": 0.1, "max": 1.0, "count": 3, **fields}


SWEEP_SPEC_ERRORS = {
    "min-missing": ({"axes": [{"name": "nu", "max": 1.0, "count": 3}], "metric": "h2"},
                    "axes[0].min: missing"),
    "count-string": ({"axes": [_axis(count="x")], "metric": "h2"},
                     "axes[0].count: must be an integer"),
    "count-fraction": ({"axes": [_axis(count=2.7)], "metric": "h2"},
                       "axes[0].count: must be an integer"),
    "min-nan": ({"axes": [_axis(min=float("nan"))], "metric": "h2"},
                "axes[0].min: must be finite"),
    "root-list": ([_axis()], "sweep spec root must be an object"),
    "axis-number": ({"axes": [_axis(), 5], "metric": "h2"}, "axes[1]: must be an object"),
    "axes-object": ({"axes": _axis(), "metric": "h2"}, "axes: must be a list"),
    "axis-repeated": ({"axes": [_axis(name="delta"), _axis(name="delta", min=8.0)],
                       "metric": "h2"}, "axes[1].name: 'delta' is already swept by axes[0]"),
    "count-1e20": ({"axes": [_axis(count=10**20)], "metric": "h2"},
                   "axes: 1e+20 grid points need 5.12e+22 bytes of point bookkeeping"),
    "spacing-overflow": ({"axes": [_axis(min=-1.7e308, max=1.7e308)], "metric": "h2"},
                         "axes[0]: linear spacing from -1.7e+308 to 1.7e+308 overflows"),
}

# The step counts of the last three need more memory than any machine has;
# they are rejected before anything run-length is allocated.
BAD_STEP_FLAGS = {
    "dt-nan": (["--dt", "nan"], "dt must be finite"),
    "dt-inf-horizon-inf": (["--dt", "inf", "--horizon", "inf"], "dt must be finite"),
    "horizon-inf": (["--horizon", "inf"], "horizon must be finite"),
    "horizon-nan": (["--horizon", "nan"], "horizon must be finite"),
    "steps-1e300": (["--dt", "1e-300", "--horizon", "1"], "1e+300 steps (horizon / dt) need"),
    "steps-1e15": (["--dt", "1e-9", "--horizon", "1e6"], "1e+15 steps (horizon / dt) need"),
    "steps-1e15-stochastic": (["--dt", "1e-9", "--horizon", "1e6", "--stochastic", "--seed",
                               "1"], "1e+15 steps (horizon / dt) need"),
    "seed-negative": (["--stochastic", "--seed", "-1"], "seed must be >= 0, got -1"),
}

# Numbers that pass the finite check of their field but overflow the model:
# a reciprocal (1/m, 1/r_g, 1/r_r), a Laplacian row sum, or the swing row
# b/m of A.  Each gets a named error instead of NaN output or a raw
# traceback from inside numpy.
TINY = 1e-320
OVERFLOWS = {
    "h2-inertia": ("h2", {("buses", 0, "inertia"): TINY},
                   "generator bus 0: inertia 1e-320 has no finite inverse"),
    "h2-governor-droop": ("h2", {("buses", 0, "governor_droop"): TINY},
                          "generator bus 0: governor droop 1e-320 has no finite inverse"),
    "h2-r_r": ("h2", {("inverters", 0, "r_r"): TINY}, "r_r 1e-320 has no finite inverse"),
    "steady-state-governor-droop": ("steady-state", {("buses", 0, "governor_droop"): TINY},
                                    "governor droop 1e-320 has no finite inverse"),
    "steady-state-r_r": ("steady-state", {("inverters", 0, "r_r"): TINY},
                         "r_r 1e-320 has no finite inverse"),
    "stability-r_r": ("stability", {("inverters", 0, "r_r"): TINY},
                      "r_r 1e-320 has no finite inverse"),
    "steady-state-laplacian": ("steady-state", {("lines", 0, "susceptance"): 1e308,
                                                ("lines", 1, "susceptance"): 1e308},
                               "bus 1: susceptances sum to a non-finite Laplacian entry"),
    "stability-laplacian": ("stability", {("lines", 0, "susceptance"): 1e308,
                                          ("lines", 1, "susceptance"): 1e308},
                            "bus 1: susceptances sum to a non-finite Laplacian entry"),
    "h2-state-matrix": ("h2", {("lines", 0, "susceptance"): 1e300,
                               ("buses", 0, "inertia"): 1e-10},
                        "state or weight matrix has non-finite entries"),
    "h2-noise-gain": ("h2", {("noise", 0, "k1"): 1e300}, "squared H2 norm is not finite"),
    "modal-noise-gain": ("modal", {("noise", i, "k1"): 1e300 for i in range(10)},
                         "squared H2 norm is not finite"),
    "simulate-stochastic-variance": ("simulate --stochastic --seed 1 --horizon 10",
                                     {("noise", 0, "k1"): 1e300},
                                     "metric empirical_output_variance is not finite"),
    "simulate-disturbance-sum": ("simulate",
                                 {("disturbances",): [{"time": 5.0, "bus": 0,
                                                       "delta_p": 1e308}] * 2},
                                 "disturbances on bus 0 sum to a non-finite injection"),
}


def _json_paths(node, prefix=()):
    """Every key or index path inside a decoded JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        paths += _json_paths(value, prefix + (key,))
    return paths


class TestSchemaErrors:
    @pytest.mark.parametrize("field,value,message", SCHEMA_ERRORS,
                             ids=[message.split(":")[0] for *_, message in SCHEMA_ERRORS])
    def test_malformed_document_names_the_field(self, capsys, tmp_path, field, value, message):
        obj = minimal_doc_obj()
        _edit(obj, field, value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["steady-state", "--network", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize("spec,message", SWEEP_SPEC_ERRORS.values(),
                             ids=SWEEP_SPEC_ERRORS.keys())
    def test_malformed_sweep_spec_names_the_field(self, capsys, tmp_path, spec, message):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))  # writes NaN as a bare literal
        assert main(["sweep", "--network", EXAMPLE, "--sweep", str(path),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize("flags,message", BAD_STEP_FLAGS.values(),
                             ids=BAD_STEP_FLAGS.keys())
    def test_non_finite_step_flags_rejected(self, capsys, tmp_path, flags, message):
        assert main(["simulate", "--network", EXAMPLE, "--out", str(tmp_path), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize("command,edits,message", OVERFLOWS.values(),
                             ids=OVERFLOWS.keys())
    def test_overflowing_numbers_are_named(self, capsys, monkeypatch, tmp_path, command, edits,
                                           message):
        """``command`` is the subcommand and its flags; any --out files land in tmp_path."""
        monkeypatch.chdir(tmp_path)
        obj = json.loads(Path(EXAMPLE).read_text())
        for field, value in edits.items():
            _edit(obj, field, value)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(obj))
        assert main([*command.split(), "--network", str(path)]) in (1, 2)
        captured = capsys.readouterr()
        assert captured.err.startswith(("error:", "numerical failure:"))
        assert "Traceback" not in captured.err and message in captured.err
        assert "NaN" not in captured.out and "Infinity" not in captured.out

    @pytest.mark.parametrize("command", ["simulate --horizon 2", "sweep --horizon 2"])
    def test_disturbance_overflow_names_the_document_bus(self, capsys, tmp_path, command):
        """Generator 2 of the minimal document is model index 1 after its load bus
        is eliminated; the error names the document's id."""
        obj = minimal_doc_obj()
        obj["disturbances"] = [{"time": 0.5, "bus": 2, "delta_p": 1e308}] * 2
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(obj))
        spec = tmp_path / "nadir.json"
        spec.write_text(json.dumps({"axes": [{"name": "delta", "min": 2.0, "max": 6.0,
                                              "count": 2}], "metric": "nadir"}))
        argv = [*command.split(), "--network", str(path), "--out", str(tmp_path)]
        if command.startswith("sweep"):
            argv += ["--sweep", str(spec)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: disturbances on bus 2 sum to a non-finite injection\n"

    def test_non_utf8_file_names_the_path(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["h2", "--network", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid JSON") and "Traceback" not in err

    def test_integer_past_the_digit_limit_names_the_path(self, capsys, tmp_path):
        """Python's int conversion refuses more than 4300 digits."""
        path = tmp_path / "sweep.json"
        path.write_text('{"metric": "h2", "axes": ' + "1" * 5000 + "}")
        assert main(["sweep", "--network", EXAMPLE, "--sweep", str(path),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid JSON (Exceeds the limit")

    @settings(max_examples=100, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_document_never_raises(self, tmp_path, data):
        obj = json.loads(Path(EXAMPLE).read_text())
        replacement = st.one_of(
            st.just(DELETE), st.text(max_size=6), st.none(),
            st.lists(st.integers(), max_size=2),
            st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
        _edit(obj, data.draw(st.sampled_from(_json_paths(obj))), data.draw(replacement))
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(obj))
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"axes": [{"name": "nu", "min": 0.5, "max": 1.0,
                                              "count": 2}], "metric": "h2"}))
        out = ["--out", str(tmp_path)]
        command = data.draw(st.sampled_from([
            ["steady-state"], ["h2"], ["stability"], ["modal"],
            ["simulate", "--horizon", "1", *out],
            ["simulate", "--horizon", "1", "--stochastic", "--seed", "1", *out],
            ["sweep", "--sweep", str(spec), *out],
        ]))
        assert main([*command, "--network", str(path)]) in (0, 1, 2)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


TWO_AXIS_SPEC = {"axes": [{"name": "delta", "min": 1.0, "max": 6.0, "count": 2},
                          {"name": "nu", "min": 0.1, "max": 1.0, "count": 2, "spacing": "log"}],
                 "metric": "h2"}

# The sweep-spec fuzz test deletes a field, or replaces it with a value of
# its own JSON type or with any JSON value.  Integers are small or at least
# 10**19, so no example starts a long sweep, yet counts past physical
# memory come up.  The strategies are built once: building them in the
# test would validate them again for every example.
SPEC_INTEGERS = st.integers(max_value=6) | st.integers(min_value=10**19)
SPEC_WORDS = st.sampled_from(["delta", "nu", "r_r", "m_v", "h2", "nadir", "linear", "log"])
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), SPEC_INTEGERS, st.floats(), st.text(max_size=6),
              SPEC_WORDS),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(
        st.sampled_from(["axes", "name", "min", "max", "count", "spacing", "metric"]), children,
        max_size=3),
    max_leaves=4)
ANY_REPLACEMENT = st.just(DELETE) | JSON_VALUES
SPEC_REPLACEMENTS = {kind: st.just(DELETE) | like | JSON_VALUES for kind, like in
                     ((int, SPEC_INTEGERS), (float, st.floats()), (str, SPEC_WORDS))}


class TestSweepCommand:
    def run(self, tmp_path, network, spec, *flags):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        return main(["sweep", "--network", network, "--sweep", str(path), "--out", str(tmp_path),
                     *flags])

    def test_infinite_extremes_print_as_null(self, capsys, tmp_path):
        assert self.run(tmp_path, EXAMPLE_VI, TWO_AXIS_SPEC) == 0
        summary = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert summary["points"] == 4
        assert summary["min"] is None and summary["max"] is None
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",inf") for row in rows)

    @pytest.mark.parametrize("network,axis,message", [
        (EXAMPLE_DC, {"name": "r_r", "min": 1e-300, "max": 15.0, "count": 3, "spacing": "log"},
         "sweep point 0 (r_r=1e-300): state matrix has eigenvalues in the right half-plane"),
        (EXAMPLE, {"name": "nu", "min": 1.0, "max": 1e308, "count": 2},
         "sweep point 1 (nu=1e+308): noise input matrix has non-finite entries"),
    ], ids=["right-half-plane", "overflowing-noise"])
    def test_numerical_failure_names_its_point(self, capsys, tmp_path, network, axis, message):
        assert self.run(tmp_path, network, {"axes": [axis], "metric": "h2"}) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {message}") and "Traceback" not in err

    def test_invalid_axis_value_exits_one(self, capsys, tmp_path):
        spec = {"axes": [{"name": "delta", "min": -1.0, "max": 1.0, "count": 3}], "metric": "h2"}
        assert self.run(tmp_path, EXAMPLE, spec) == 1
        assert capsys.readouterr().err == "error: IDROOP inverter requires delta > 0\n"

    @settings(max_examples=100, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_sweep_spec_never_raises(self, capsys, tmp_path, data):
        spec = json.loads(json.dumps(TWO_AXIS_SPEC))
        path = data.draw(st.sampled_from(_json_paths(spec)))
        replacement = SPEC_REPLACEMENTS.get(type(reduce(getitem, path, spec)), ANY_REPLACEMENT)
        _edit(spec, path, data.draw(replacement))
        for network in (EXAMPLE, EXAMPLE_VI):
            code = self.run(tmp_path, network, spec, "--horizon", "1")
            captured = capsys.readouterr()
            assert code in (0, 1, 2)
            assert "Traceback" not in captured.err
            if code == 0:
                json.loads(captured.out, parse_constant=_reject_constant)

