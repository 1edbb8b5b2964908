import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gridfreq import (
    ValidationError,
    document_to_obj,
    load_document,
    parse_document,
    reduce_document,
    save_document,
)
from gridfreq.cli import main

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
}

NON_FINITE_FLAGS = {
    "dt-nan": (["--dt", "nan"], "dt must be finite"),
    "dt-inf-horizon-inf": (["--dt", "inf", "--horizon", "inf"], "dt must be finite"),
    "horizon-inf": (["--horizon", "inf"], "horizon must be finite"),
    "horizon-nan": (["--horizon", "nan"], "horizon must be finite"),
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

    @pytest.mark.parametrize("flags,message", NON_FINITE_FLAGS.values(),
                             ids=NON_FINITE_FLAGS.keys())
    def test_non_finite_step_flags_rejected(self, capsys, tmp_path, flags, message):
        assert main(["simulate", "--network", EXAMPLE, "--out", str(tmp_path), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert message in err

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
        assert main(["steady-state", "--network", str(path)]) in (0, 1, 2)
