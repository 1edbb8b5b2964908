"""The CLI against the benchmark's gridfreq-free oracle, on random documents.

``perfbench/oracle.py`` builds every reference from the document JSON alone:
the synchronous frequency, a DC power flow on the unreduced network, the
stability rows and, in relative-angle descriptor form, the closed loop and
its H2 norm.  ``perfbench/gen_inputs.py`` draws the documents and
``perfbench/checks.py`` holds the tolerances.  The three are loaded by file
path, so a change to any of them is checked here as well as by the benchmark.
"""

import contextlib
import importlib.util
import io
import json
import random
from pathlib import Path

from gridfreq.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle, checks, gen_inputs = (_load(name) for name in ("oracle", "checks", "gen_inputs"))


def _document(seed):
    """A connected document of 3-15 buses, from two generators to all of them."""
    rng = random.Random(seed)
    n = rng.randint(3, 15)
    return gen_inputs.mixed_document(rng, n, rng.randint(2, n))


def _run(path, command):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([command, "--network", str(path)]) == 0
    return json.loads(out.getvalue())


def test_cli_agrees_with_the_oracle(tmp_path):
    """Seeds 0-59: steady-state and stability on every document, and h2 on
    the all-generator ones, which the oracle's closed loop needs."""
    fails = []
    for seed in range(60):
        doc = _document(seed)
        path = tmp_path / f"{seed}.json"
        path.write_text(json.dumps(doc))
        fails += checks.steady_state(f"seed {seed} steady-state", _run(path, "steady-state"),
                                     oracle.sync_frequency(doc), oracle.dc_power_flow(doc))
        fails += checks.stability(f"seed {seed} stability", _run(path, "stability"),
                                  oracle.stability_rows(doc))
        if all(bus["kind"] == "generator" for bus in doc["buses"]):
            out = _run(path, "h2")
            fails += checks.h2_matches(f"seed {seed} h2", out["kind"], out.get("value"),
                                       out.get("feedthrough_gain"),
                                       oracle.h2(oracle.closed_loop(doc)), checks.RTOL_EXACT)
    assert fails == []
