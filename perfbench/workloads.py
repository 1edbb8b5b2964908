"""The benchmark's three workloads.

Each workload loads and Kron-reduces its documents through gridfreq (the
set-up that ``setup_s`` times), lists one round of operations, and checks
the first round's outputs against ``oracle`` and ``checks``.  Later rounds
must reproduce the first round's outputs bit for bit.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import gridfreq as gf

import checks
import oracle

DATA = Path("src/gridfreq/data")
BUNDLED = {"IDROOP": "example-10bus.json", "CP": "example-10bus-cp.json",
           "DC": "example-10bus-dc.json", "VI": "example-10bus-vi.json"}
MODES = ("CP", "DC", "VI", "IDROOP")
DT = 0.01
# Step responses run long enough that the slowest mode has decayed below
# this share of the settled value; the checks hold them to the same share.
SETTLE_RTOL = 1e-6


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def sim_seed(seed: int, k: int) -> int:
    """Non-negative simulation seed k of a workload seed."""
    return (1000 * seed + k) % 2 ** 32


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class Workload:
    """Shared plumbing: documents, the program's reduced systems, oracle docs."""

    name = ""

    def __init__(self, root: Path, inputs: dict, scratch: Path, seed: int):
        self.root = root
        self.seed = seed
        self.scratch = scratch
        self.paths = {f"bundled-{m}": str(root / DATA / f) for m, f in BUNDLED.items()}
        self.paths.update({k: v for k, v in inputs.items() if self.wants(k)})
        self.systems = {}
        self.count = lambda key, value: None

    def wants(self, input_name: str) -> bool:
        return False

    def load(self) -> None:
        """Load and Kron-reduce every document through the program."""
        self.systems = {k: gf.reduce_document(gf.load_document(p)) for k, p in self.paths.items()}

    def doc(self, key: str) -> dict:
        return json.loads(Path(self.paths[key]).read_text())

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb()

    def collect(self, output):
        """Complete an operation's output after its timing stops."""
        return output

    def extra(self, output) -> dict:
        """Per-operation numbers kept in the run's records."""
        return {}

    def post_check(self) -> list:
        """Checks that need extra, untimed program calls."""
        return []


def _h2_route(system):
    """The program's own choice of H2 route, as the CLI makes it."""
    model = gf.assemble_closed_loop(system.network, system.configs, system.noise)
    if model.derivative_noise_present:
        return _h2_tuple(gf.h2_frequency_weighted(model), checks.RTOL_QUADRATURE)
    return _h2_tuple(gf.h2_gramian(model), checks.RTOL_EXACT)


def _h2_tuple(result, rtol):
    """(kind, value, feedthrough gain, tolerance of the route that made it)."""
    return result.kind, result.value, result.feedthrough_gain, rtol


class H2Tuning(Workload):
    """delta x nu sweeps, the four bundled fleet modes, and a scaling series."""

    name = "h2-tuning"
    GRID = 6
    AXES = (("delta", 0.5, 10.0, "linear"), ("nu", 0.001, 2.0, "log"))

    def wants(self, input_name):
        return input_name.startswith("ring-")

    def rings(self):
        return sorted((k for k in self.paths if k.startswith("ring-")),
                      key=lambda k: int(k.split("-")[1]))

    def grid(self):
        axes = []
        for _, lo, hi, spacing in self.AXES:
            axes.append(np.geomspace(lo, hi, self.GRID) if spacing == "log"
                        else np.linspace(lo, hi, self.GRID))
        return [(a, b) for a in axes[0] for b in axes[1]]

    def operations(self, in_process):
        spec = gf.SweepSpec(axes=tuple(gf.SweepAxis(n, lo, hi, self.GRID, s)
                                       for n, lo, hi, s in self.AXES), metric="h2")

        def sweep(key):
            system = self.systems[key]
            rows = gf.run_sweep(system.network, system.configs, system.noise, spec)
            return [v for *_, v in rows]

        ops = [(f"sweep-{m}", lambda m=m: sweep(f"bundled-{m}")) for m in ("IDROOP", "DC")]
        ops += [(f"h2-{m}", lambda m=m: _h2_route(self.systems[f"bundled-{m}"])) for m in MODES]
        ops += [(f"scale-{k}", lambda k=k: _h2_route(self.systems[k])) for k in self.rings()]
        return ops

    def fingerprint(self, output):
        return repr(output)

    def check(self, out):
        fails = []
        refs = {k: oracle.h2(oracle.closed_loop(self.doc(k))) for k in self.paths}
        for key in [f"bundled-{m}" for m in MODES] + self.rings():
            op = key.replace("bundled-", "h2-") if key.startswith("bundled") else f"scale-{key}"
            kind, value, gain, rtol = out[op]
            fails += checks.h2_matches(op, kind, value, gain, refs[key], rtol)
            cf = _closed_form(self.doc(key))
            if cf is not None:
                fails += checks.close(f"{op} closed form", value, cf, checks.RTOL_EXACT)
        vi = self.doc("bundled-VI")
        b, e, k = vi["buses"][0], vi["inverters"][0], vi["noise"][0]
        fails += checks.close("h2-VI gain k3*m_v/(m+m_v)", out["h2-VI"][2],
                              k["k3"] * e["m_v"] / (b["inertia"] + e["m_v"]), checks.RTOL_FORMULA)

        droop_ref = refs["bundled-DC"]["value"]
        fails += checks.droop_sweep(out["sweep-DC"], droop_ref)
        base = self.doc("bundled-IDROOP")
        sweep_refs = []
        for delta, nu in self.grid():
            doc = copy.deepcopy(base)
            for inv in doc["inverters"]:
                inv["delta"], inv["nu"] = float(delta), float(nu)
            sweep_refs.append(oracle.h2(oracle.closed_loop(doc))["value"])
        fails += checks.idroop_sweep(out["sweep-IDROOP"], sweep_refs, droop_ref)
        return fails

    def detail(self, records):
        sweeps = [r for r in records if r["op"].startswith("sweep-")]
        points = len(self.grid()) * len(sweeps)
        rounds = max(r["round"] for r in records) + 1
        scale = [sum(r["s"] for r in records if r["round"] == k and r["op"].startswith("scale-"))
                 for k in range(rounds)]
        first = [r for r in records if r["round"] == 0 and r["op"].startswith("scale-")]
        return {
            "sweep_points_per_s": {"value": points / sum(r["s"] for r in sweeps), "unit": "1/s"},
            "h2_scaling_s": {"value": statistics.median(scale), "unit": "s"},
            "h2_scaling_peak_rss_mb": {r["op"]: round(r["rss_mb"], 1) for r in first},
        }


def _closed_form(doc):
    """Closed form for a homogeneous droop or constant-power fleet, else None."""
    modes = {inv["mode"] for inv in doc["inverters"]}
    if modes not in ({"DC"}, {"CP"}):
        return None
    keys = ("inertia", "damping", "governor_droop")
    if len({tuple(b[k] for k in keys) for b in doc["buses"]}) != 1:
        return None
    mode = modes.pop()
    b, e, k = doc["buses"][0], doc["inverters"][0], doc["noise"][0]
    return oracle.closed_form(mode, len(doc["buses"]), b["inertia"], b["damping"],
                              b["governor_droop"], e.get("r_r", 0.0), k["k1"], k["k2"])


class NoiseEnsemble(Workload):
    """Step responses of the four modes and seeded noise runs of DC and iDroop."""

    name = "noise-ensemble"
    STEP_HORIZON = 200.0
    NOISE_HORIZON = 500.0
    NOISE_MODES = ("DC", "IDROOP")
    SEEDS_PER_FLEET = 2

    def __init__(self, root, inputs, scratch, seed):
        super().__init__(root, inputs, scratch, seed)
        self.sim_seeds = [sim_seed(seed, k) for k in range(self.SEEDS_PER_FLEET)]
        self.models = {}

    def operations(self, in_process):
        def step(mode):
            system = self.systems[f"bundled-{mode}"]
            model = self.models[mode] = gf.assemble_closed_loop(
                system.network, system.configs, system.noise)
            config = gf.SimConfig(dt=DT, horizon=self.STEP_HORIZON,
                                  disturbances=system.disturbances)
            return self._summary(gf.simulate_deterministic(model, config))

        def noise(mode, seed):
            config = gf.SimConfig(dt=DT, horizon=self.NOISE_HORIZON, seed=seed,
                                  noise_enabled=True)
            return self._summary(gf.simulate_stochastic(self.models[mode], config))

        ops = [(f"step-{m}", lambda m=m: step(m)) for m in MODES]
        ops += [(f"noise-{m}-{s}", lambda m=m, s=s: noise(m, s))
                for m in self.NOISE_MODES for s in self.sim_seeds]
        return ops

    @staticmethod
    def _summary(trajectory):
        metrics = gf.compute_metrics(trajectory)
        return {
            "metrics": metrics,
            "x_last": trajectory.x[-1].copy(),
            "steps": trajectory.times.size - 1,
            "sha": _sha(trajectory.states.tobytes()),
        }

    def fingerprint(self, output):
        return output["sha"]

    def extra(self, output):
        return {"steps": output["steps"]}

    def check(self, out):
        fails = []
        nadirs = {}
        for mode in MODES:
            doc = self.doc(f"bundled-{mode}")
            system = oracle.closed_loop(doc)
            # The settling mean covers the last 10% of the run; transients
            # must have decayed to the tolerance by then.
            decay = np.exp(oracle.spectral_abscissa(system) * 0.9 * self.STEP_HORIZON)
            if decay > SETTLE_RTOL:
                fails.append(f"step-{mode}: horizon too short to settle (decay {decay:.1e})")
            step = sum(d["delta_p"] for d in doc.get("disturbances", []))
            base = oracle.sync_frequency(doc)
            omega_after = oracle.sync_frequency(doc, extra_injection=step)
            m = out[f"step-{mode}"]["metrics"]
            fails += checks.close(f"step-{mode} settling frequency", m.settling_frequency,
                                  omega_after - base, SETTLE_RTOL)
            if mode == "IDROOP":
                x_ref = [-omega_after / inv["r_r"]
                         for inv in sorted(doc["inverters"], key=lambda e: e["bus"])
                         if inv["mode"] == "IDROOP"]
                for k, (x, ref) in enumerate(zip(out["step-IDROOP"]["x_last"], x_ref)):
                    fails += checks.close(f"step-IDROOP x_{k} final", float(x), ref, SETTLE_RTOL)
            nadirs[mode] = m.nadir
        fails += checks.nadir_order(nadirs)

        for mode in self.NOISE_MODES:
            system = oracle.closed_loop(self.doc(f"bundled-{mode}"))
            h2 = oracle.h2(system)["value"]
            discrete = oracle.discrete_variance(system, DT, self.NOISE_HORIZON)
            estimates = [out[f"noise-{mode}-{s}"]["metrics"].empirical_output_variance
                         for s in self.sim_seeds]
            fails += checks.variance_band(f"noise-{mode}", estimates, h2, discrete)
        return fails

    def post_check(self):
        """Zero noise gains must reproduce the deterministic run bit for bit."""
        fails = []
        for mode in self.NOISE_MODES:
            system = self.systems[f"bundled-{mode}"]
            quiet = gf.assemble_closed_loop(system.network, system.configs)
            config = gf.SimConfig(dt=DT, horizon=30.0, disturbances=system.disturbances)
            plain = gf.simulate_deterministic(quiet, config).states
            noisy = gf.simulate_stochastic(quiet, replace(config, seed=self.sim_seeds[0],
                                                          noise_enabled=True)).states
            if plain.tobytes() != noisy.tobytes():
                fails.append(f"{mode}: zero-gain stochastic run differs from deterministic run")
        return fails

    def detail(self, records):
        steps = sum(r["steps"] for r in records)
        return {"sim_steps_per_s": {"value": steps / sum(r["s"] for r in records),
                                    "unit": "steps/s"}}


class CliSession(Workload):
    """A command-line session: one process per command."""

    name = "cli-session"
    NOISE_HORIZON = 300.0
    FILES = {"simulate": ("trajectory.csv", "metrics.json"), "sweep": ("sweep.csv",)}
    SWEEP_SPEC = {"axes": [{"name": "delta", "min": 1.0, "max": 8.0, "count": 3},
                           {"name": "nu", "min": 0.01, "max": 1.0, "count": 3,
                            "spacing": "log"}],
                  "metric": "h2"}

    def __init__(self, root, inputs, scratch, seed):
        super().__init__(root, inputs, scratch, seed)
        self.spec_path = scratch / "sweep-spec.json"

    def wants(self, input_name):
        return input_name.startswith("mixed-")

    def mixed(self):
        return sorted((k for k in self.paths if k.startswith("mixed-")),
                      key=lambda k: int(k.split("-")[1]))

    def commands(self):
        p = self.paths
        out = str(self.scratch / "cli")
        cmds = [
            ("steady-state", ["steady-state", "--network", p["bundled-IDROOP"]]),
            ("stability", ["stability", "--network", p["bundled-IDROOP"]]),
            ("h2-closed-form", ["h2", "--network", p["bundled-DC"], "--closed-form"]),
            ("modal", ["modal", "--network", p["bundled-IDROOP"]]),
            ("simulate", ["simulate", "--network", p["bundled-DC"], "--out", f"{out}/simulate"]),
            ("sweep", ["sweep", "--network", p["bundled-IDROOP"], "--sweep",
                       str(self.spec_path), "--out", f"{out}/sweep"]),
            ("simulate-noise", ["simulate", "--network", p["bundled-IDROOP"], "--out",
                                f"{out}/simulate-noise", "--stochastic", "--seed",
                                str(sim_seed(self.seed, 0)), "--horizon", str(self.NOISE_HORIZON)]),
        ]
        for key in self.mixed():
            cmds.append((f"steady-state-{key}", ["steady-state", "--network", p[key]]))
            cmds.append((f"stability-{key}", ["stability", "--network", p[key]]))
        return cmds

    def operations(self, in_process):
        self.spec_path.write_text(json.dumps(self.SWEEP_SPEC))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])

        def run(argv):
            if in_process:
                import gridfreq.cli

                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = gf.cli.main(argv)
                return code, stdout.getvalue()
            proc = subprocess.run([sys.executable, "-m", "gridfreq.cli", *argv], env=env,
                                  cwd=self.root, capture_output=True, text=True, check=False)
            return proc.returncode, proc.stdout

        def command(argv):
            code, stdout = run(argv)
            if code != 0:
                raise RuntimeError(f"gridfreq {argv[0]} exited with {code}")
            return {"stdout": stdout, "argv": argv}

        return [(name, lambda argv=argv: command(argv)) for name, argv in self.commands()]

    def collect(self, output):
        """Attach the files a command wrote; runs outside the command's timing."""
        argv = output["argv"]
        files = {}
        if argv[0] in self.FILES:
            folder = Path(argv[argv.index("--out") + 1])
            files = {f: (folder / f).read_bytes() for f in self.FILES[argv[0]]}
        if "trajectory.csv" in files:
            self.count("cli.trajectory_csv_mb", len(files["trajectory.csv"]) / 1e6)
        output["files"] = files
        return output

    def extra(self, output):
        return {"csv_mb": len(output["files"].get("trajectory.csv", b"")) / 1e6}

    def fingerprint(self, output):
        return _sha(output["stdout"].encode(), *(output["files"][k] for k in sorted(output["files"])))

    def peak_rss_mb(self):
        return _peak_rss_mb(resource.RUSAGE_CHILDREN)

    def check(self, out):
        fails = []
        for key in ["bundled-IDROOP"] + self.mixed():
            doc = self.doc(key)
            suffix = "" if key == "bundled-IDROOP" else f"-{key}"
            ss = json.loads(out[f"steady-state{suffix}"]["stdout"])
            fails += checks.steady_state(f"steady-state{suffix}", ss, oracle.sync_frequency(doc),
                                         oracle.dc_power_flow(doc))
            st = json.loads(out[f"stability{suffix}"]["stdout"])
            fails += checks.stability(f"stability{suffix}", st, oracle.stability_rows(doc))

        dc_doc = self.doc("bundled-DC")
        h2 = json.loads(out["h2-closed-form"]["stdout"])
        fails += checks.close("h2 --closed-form value", h2.get("value"),
                              oracle.h2(oracle.closed_loop(dc_doc))["value"], checks.RTOL_EXACT)
        fails += checks.close("h2 --closed-form closed_form", h2.get("closed_form"),
                              _closed_form(dc_doc), checks.RTOL_FORMULA)

        idroop_doc = self.doc("bundled-IDROOP")
        idroop = oracle.closed_loop(idroop_doc)
        modal = json.loads(out["modal"]["stdout"])
        fails += checks.modal_sum(modal["sum_of_modes"], modal["full_model"].get("value"),
                                  oracle.h2(idroop)["value"])

        n = len(dc_doc["buses"])
        for name, doc, horizon in (("simulate", dc_doc, 30.0),
                                   ("simulate-noise", idroop_doc, self.NOISE_HORIZON)):
            files = out[name]["files"]
            metrics = json.loads(files["metrics.json"])
            n_idroop = sum(inv["mode"] == "IDROOP" for inv in doc["inverters"])
            fails += checks.trajectory(name, files["trajectory.csv"].decode(), metrics,
                                       horizon, DT, n, n_idroop)
            if json.loads(out[name]["stdout"]) != metrics:
                fails.append(f"{name}: stdout summary differs from metrics.json")
        noise_var = json.loads(out["simulate-noise"]["files"]["metrics.json"])
        fails += checks.variance_band("simulate-noise", [noise_var["empirical_output_variance"]],
                                      oracle.h2(idroop)["value"],
                                      oracle.discrete_variance(idroop, DT, self.NOISE_HORIZON))

        sweep_rows = out["sweep"]["files"]["sweep.csv"].decode().splitlines()[1:]
        values = [float(row.split(",")[2]) for row in sweep_rows]
        refs = []
        axes = self.SWEEP_SPEC["axes"]
        for delta in np.linspace(axes[0]["min"], axes[0]["max"], axes[0]["count"]):
            for nu in np.geomspace(axes[1]["min"], axes[1]["max"], axes[1]["count"]):
                doc = copy.deepcopy(idroop_doc)
                for inv in doc["inverters"]:
                    inv["delta"], inv["nu"] = float(delta), float(nu)
                refs.append(oracle.h2(oracle.closed_loop(doc))["value"])
        if len(values) != len(refs):
            fails.append(f"sweep.csv has {len(values)} rows, expected {len(refs)}")
        for k, (v, ref) in enumerate(zip(values, refs)):
            fails += checks.close(f"sweep.csv point {k}", v, ref, checks.RTOL_QUADRATURE)
        return fails

    def detail(self, records):
        sims = [r for r in records if r["op"].startswith("simulate")]
        mb = sum(r["csv_mb"] for r in sims)
        return {
            "cli_command_median_s": {"value": statistics.median(r["s"] for r in records),
                                     "unit": "s"},
            "trajectory_mb_per_s": {"value": mb / sum(r["s"] for r in sims), "unit": "MB/s"},
        }


WORKLOADS = {w.name: w for w in (H2Tuning, NoiseEnsemble, CliSession)}
