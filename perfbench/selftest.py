"""Self-tests of the benchmark's checkers, oracle and input generator.

    python3 perfbench/selftest.py

Each checker must pass a correct output and reject a deliberately corrupted
one.  Needs numpy and scipy, not gridfreq: correct outputs come from the
oracle, which never imports the program.
"""

from __future__ import annotations

import json
import math
import random
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen_inputs  # noqa: E402
import oracle  # noqa: E402

DATA = HERE.parent / "src" / "gridfreq" / "data"


def bundled(mode: str) -> dict:
    suffix = {"IDROOP": "", "CP": "-cp", "DC": "-dc", "VI": "-vi"}[mode]
    return json.loads((DATA / f"example-10bus{suffix}.json").read_text())


def mixed_doc(seed=3, n=60, n_gen=12) -> dict:
    return gen_inputs.mixed_document(random.Random(seed), n, n_gen)


class OracleTest(unittest.TestCase):
    def test_routes_agree_with_closed_forms(self):
        for mode in ("DC", "CP"):
            doc = bundled(mode)
            value = oracle.h2(oracle.closed_loop(doc))["value"]
            b, e, k = doc["buses"][0], doc["inverters"][0], doc["noise"][0]
            ref = oracle.closed_form(mode, 10, b["inertia"], b["damping"], b["governor_droop"],
                                     e.get("r_r", 0.0), k["k1"], k["k2"])
            self.assertLess(abs(value - ref) / ref, 1e-12)

    def test_virtual_inertia_is_infinite_with_its_gain(self):
        doc = bundled("VI")
        result = oracle.h2(oracle.closed_loop(doc))
        self.assertEqual(result["kind"], "infinite")
        b, e, k = doc["buses"][0], doc["inverters"][0], doc["noise"][0]
        self.assertAlmostEqual(result["feedthrough_gain"],
                               k["k3"] * e["m_v"] / (b["inertia"] + e["m_v"]), places=14)

    def test_discrete_variance_tends_to_h2(self):
        system = oracle.closed_loop(bundled("DC"))
        h2 = oracle.h2(system)["value"]
        coarse = oracle.discrete_variance(system, 0.01, 500.0)["mean"]
        fine = oracle.discrete_variance(system, 0.001, 500.0)["mean"]
        self.assertLess(abs(fine - h2), abs(coarse - h2))
        self.assertLess(abs(fine - h2) / h2, 1e-3)

    def test_power_flow_pins_the_first_generator(self):
        doc = mixed_doc()
        arrays = oracle.doc_arrays(doc)
        theta_gen = oracle.dc_power_flow(doc)
        self.assertEqual(theta_gen[0], 0.0)
        self.assertEqual(theta_gen.size, len(arrays["gen_ids"]))


class CheckerTest(unittest.TestCase):
    def test_h2_value_moved_by_1e4_is_rejected(self):
        ref = oracle.h2(oracle.closed_loop(bundled("IDROOP")))
        self.assertEqual(checks.h2_matches("x", "finite", ref["value"], None, ref,
                                           checks.RTOL_QUADRATURE), [])
        moved = ref["value"] * (1 + 1e-4)
        self.assertTrue(checks.h2_matches("x", "finite", moved, None, ref,
                                          checks.RTOL_QUADRATURE))
        self.assertTrue(checks.h2_matches("x", "infinite", None, 1.0, ref,
                                          checks.RTOL_QUADRATURE))

    def test_gramian_value_moved_by_1e8_is_rejected(self):
        ref = oracle.h2(oracle.closed_loop(bundled("DC")))
        moved = ref["value"] * (1 + 1e-8)
        self.assertTrue(checks.h2_matches("x", "finite", moved, None, ref, checks.RTOL_EXACT))

    def test_wrong_feedthrough_gain_is_rejected(self):
        ref = oracle.h2(oracle.closed_loop(bundled("VI")))
        gain = ref["feedthrough_gain"]
        self.assertEqual(checks.h2_matches("vi", "infinite", None, gain, ref, 0), [])
        self.assertTrue(checks.h2_matches("vi", "infinite", None, gain * 1.001, ref, 0))

    def test_droop_sweep_must_be_constant(self):
        values = [2.5] * 9
        self.assertEqual(checks.droop_sweep(values, 2.5), [])
        values[4] = 2.5 * (1 + 1e-10)
        self.assertTrue(checks.droop_sweep(values, 2.5))

    def test_idroop_sweep(self):
        refs = [3.0, 2.0, 2.8]
        self.assertEqual(checks.idroop_sweep(refs, refs, 2.5), [])
        self.assertTrue(checks.idroop_sweep(refs, refs, 1.5))  # nothing beats droop
        moved = [3.0, 2.0 * (1 + 1e-4), 2.8]
        self.assertTrue(checks.idroop_sweep(moved, refs, 2.5))
        self.assertTrue(checks.idroop_sweep(refs[:2], refs, 2.5))  # a point missing

    def test_modal_sum(self):
        self.assertEqual(checks.modal_sum(53.0, 53.0, 53.0), [])
        self.assertTrue(checks.modal_sum(53.0 * (1 + 1e-4), 53.0, 53.0))

    def test_variance_band(self):
        system = oracle.closed_loop(bundled("DC"))
        h2 = oracle.h2(system)["value"]
        discrete = oracle.discrete_variance(system, 0.01, 500.0)
        self.assertEqual(checks.variance_band("v", [discrete["mean"]] * 2, h2, discrete), [])
        self.assertTrue(checks.variance_band("v", [1.5 * h2, discrete["mean"]], h2, discrete))

    def test_nadir_order(self):
        good = {"CP": -0.5, "DC": -0.3, "VI": -0.2, "IDROOP": -0.25}
        self.assertEqual(checks.nadir_order(good), [])
        self.assertTrue(checks.nadir_order({**good, "VI": -0.3, "DC": -0.2}))
        self.assertTrue(checks.nadir_order({**good, "CP": -0.3, "DC": -0.5}))

    def test_steady_state_rejects_swapped_angles(self):
        doc = mixed_doc()
        theta = oracle.dc_power_flow(doc)
        out = {"omega0": oracle.sync_frequency(doc), "theta_star": theta.tolist(),
               "optimality": {"passed": True}}
        self.assertEqual(checks.steady_state("ss", out, out["omega0"], theta), [])
        swapped = list(theta)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        self.assertTrue(checks.steady_state("ss", {**out, "theta_star": swapped},
                                            out["omega0"], theta))
        self.assertTrue(checks.steady_state("ss", {**out, "omega0": out["omega0"] * 1.0001},
                                            out["omega0"], theta))
        self.assertTrue(checks.steady_state("ss", {**out, "optimality": {"passed": False}},
                                            out["omega0"], theta))

    def test_stability_rejects_rows_out_of_generator_order(self):
        rows = [(True, 0.1, 0.5), (False, None, None), (True, 0.2, 0.7)]
        out = {"passed": True, "conditions": [
            {"applies": a, "condition1": c1, "condition2": c2, "passed": True}
            for a, c1, c2 in rows]}
        self.assertEqual(checks.stability("st", out, rows), [])
        shuffled = dict(out, conditions=[out["conditions"][i] for i in (2, 1, 0)])
        self.assertTrue(checks.stability("st", shuffled, rows))


class TrajectoryCheckTest(unittest.TestCase):
    """A hand-made trajectory whose metrics are computed here with loops."""

    n, n_idroop, dt, horizon = 2, 1, 0.5, 10.0

    def setUp(self):
        rows = int(round(self.horizon / self.dt)) + 1
        n = self.n
        self.table = []
        for r in range(rows):
            t = r * self.dt
            omega = [-0.1 * (1 - math.exp(-t)) + 0.01 * math.sin(t + i) for i in range(n)]
            q_r = [-w / 15.0 for w in omega]
            self.table.append([t] + [0.2 * t] * n + omega + q_r + [0.3])
        omega_rows = [row[1 + n:1 + 2 * n] for row in self.table]
        tail10 = omega_rows[int(math.floor(0.9 * rows)):]
        settling = sum(sum(r) for r in tail10) / (len(tail10) * n)
        tail50 = omega_rows[rows // 2:]
        self.metrics = {
            "nadir": min(min(r) for r in omega_rows),
            "settling_frequency": settling,
            "peak_inverter_power": max(abs(v) for row in self.table for v in row[1 + 2 * n:1 + 3 * n]),
            "empirical_output_variance": sum(sum(v * v for v in r) for r in tail50) / len(tail50),
        }

    def csv(self, table):
        n = self.n
        header = (["t"] + [f"theta_dev_{i}" for i in range(n)] + [f"omega_dev_{i}" for i in range(n)]
                  + [f"q_r_dev_{i}" for i in range(n)] + ["x_0"])
        return "\n".join([",".join(header)] + [",".join(repr(v) for v in row) for row in table]) + "\n"

    def check(self, table, metrics):
        return checks.trajectory("traj", self.csv(table), metrics, self.horizon, self.dt,
                                 self.n, self.n_idroop)

    def test_consistent_trajectory_passes(self):
        self.assertEqual(self.check(self.table, self.metrics), [])

    def test_missing_row_is_rejected(self):
        self.assertTrue(self.check(self.table[:-1], self.metrics))

    def test_missing_column_is_rejected(self):
        self.assertTrue(self.check([row[:-1] for row in self.table], self.metrics))

    def test_metrics_not_from_the_csv_are_rejected(self):
        for key in self.metrics:
            bad = dict(self.metrics, **{key: self.metrics[key] * (1 + 1e-9)})
            self.assertTrue(self.check(self.table, bad), key)

    def test_fingerprint_change_is_rejected(self):
        self.assertEqual(checks.same("x", "a", "a"), [])
        self.assertTrue(checks.same("x", "a", "b"))


class InputGeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = gen_inputs.generate(5, Path(tmp) / "a")
            b = gen_inputs.generate(5, Path(tmp) / "b")
            c = gen_inputs.generate(6, Path(tmp) / "c")
            for name in a:
                self.assertEqual(Path(a[name]).read_bytes(), Path(b[name]).read_bytes())
            self.assertNotEqual(Path(a["mixed-400"]).read_bytes(),
                                Path(c["mixed-400"]).read_bytes())

    def test_mixed_noise_on_generators_only(self):
        doc = mixed_doc()
        kinds = {b["id"]: b["kind"] for b in doc["buses"]}
        self.assertTrue(all(kinds[e["bus"]] == "generator" for e in doc["noise"]))
        self.assertGreater(sum(k == "load" for k in kinds.values()), len(kinds) / 2)


if __name__ == "__main__":
    unittest.main()
