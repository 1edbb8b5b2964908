"""One workload run in a fresh interpreter, started by run.py.

It imports gridfreq from <root>/src, loads and reduces the workload's
documents, prints READY (the parent times set-up up to that line), then
runs whole rounds of the workload's operations in a closed loop, one at a
time, for about --seconds, and prints one RESULT line of JSON.

With --trace 1 every round is a pass that also reloads the documents and
runs in-process (the CLI through gridfreq.cli.main); passes alternate
between tracing off and on, and the result holds per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
from tracing import TRACED, Tracer


def run_round(wl, ops, k, records, tracer=None) -> dict:
    outputs = {}
    for name, fn in ops:
        span = None
        if tracer is not None:
            tracer.op = f"{k}:{name}"
            span = tracer.open(f"bench.op.{name}")
        t0 = time.perf_counter()
        try:
            out = fn()
            ok = True
        except Exception as exc:  # an operation that fails is counted, not fatal
            print(f"round {k} {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            out, ok = None, False
        seconds = time.perf_counter() - t0
        record = {"round": k, "op": name, "s": seconds, "ok": ok}
        if ok:
            outputs[name] = out = wl.collect(out)
            record.update(wl.extra(out))
        if span is not None:
            tracer.close(span)
        record["rss_mb"] = wl.peak_rss_mb()
        records.append(record)
    return outputs


class Verifier:
    """Checks the first round in full; later rounds must repeat its outputs."""

    def __init__(self, wl):
        self.wl = wl
        self.reference = None
        self.failures = []

    def __call__(self, k, outputs):
        if self.reference is None:
            try:
                self.failures += self.wl.check(outputs)
            except (KeyError, TypeError, ValueError) as exc:
                self.failures.append(f"check could not read an output: {exc!r}")
            self.reference = {n: self.wl.fingerprint(o) for n, o in outputs.items()}
            return
        for name, out in outputs.items():
            self.failures += checks.same(f"round {k} {name}", self.wl.fingerprint(out),
                                         self.reference.get(name))


def untraced(wl, seconds):
    ops = wl.operations(in_process=False)
    verify = Verifier(wl)
    records, walls = [], []
    start = time.perf_counter()
    k = 0
    while True:
        outputs = run_round(wl, ops, k, records)
        walls.append(sum(r["s"] for r in records if r["round"] == k))
        verify(k, outputs)
        del outputs
        k += 1
        if k >= 3 and time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    verify.failures += wl.post_check()
    # A round's wall time as the sum of each operation's median over the
    # rounds: one slow moment on a shared machine moves one sample of one
    # operation, not the whole round.
    wall = sum(statistics.median(r["s"] for r in records if r["op"] == name) for name, _ in ops)
    return {
        "rounds": k,
        "records": records,
        "failures": verify.failures,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB"},
        },
        "detail": wl.detail([r for r in records if r["ok"]]),
    }


def traced(wl, seconds, spans_path):
    """Passes alternate untraced and traced, after one untraced warm-up pass."""
    tracer = Tracer()
    verify = Verifier(wl)
    records = []
    walls = {False: [], True: []}
    start = time.perf_counter()
    k = 0
    while k < 3 or time.perf_counter() - start + walls[k % 2 == 1][-1] <= seconds:
        on = k % 2 == 1
        if on:
            tracer.install()
            wl.count = tracer.count
            root = tracer.open("bench.pass")
        t0 = time.perf_counter()
        wl.load()
        outputs = run_round(wl, wl.operations(in_process=True), k, records,
                            tracer if on else None)
        if k:
            walls[on].append(time.perf_counter() - t0)
        if on:
            tracer.close(root)
            tracer.uninstall()
            wl.count = lambda key, value: None
        verify(k, outputs)
        del outputs
        k += 1
    verify.failures += wl.post_check()
    tracer.dump(spans_path)
    return {
        "rounds": k,
        "records": records,
        "failures": verify.failures,
        "metrics": layer_metrics(tracer, walls),
    }


def layer_metrics(tracer, walls) -> dict:
    """Per-pass means of span durations, self times and counters."""
    passes = len(walls[True])
    own = tracer.self_times(tracer.spans)
    inclusive, calls, self_by = defaultdict(float), defaultdict(int), defaultdict(float)
    for s in tracer.spans:
        calls[s.name] += 1
        self_by[s.name.split(".")[0]] += own[s.sid]
        self_by[s.name] += own[s.sid]
        # Attributed time counts toward the span and every enclosing span,
        # once per name, so overlapping pool threads never add up past wall.
        names, node = set(), s
        while node is not None:
            if node.name not in names:
                names.add(node.name)
                inclusive[node.name] += own[s.sid]
            node = tracer.spans[node.parent] if node.parent is not None else None

    values = {}
    for layer, names in TRACED.items():
        for fn in names:
            values[f"{layer}.{fn}_s"] = (inclusive[f"{layer}.{fn}"] / passes, "s")
    for fn in TRACED["analysis"]:
        values[f"analysis.{fn}_calls"] = (calls[f"analysis.{fn}"] / passes, "count")
    for layer in ("io", "network", "dynamics", "analysis", "sim", "bench"):
        values[f"{layer}.self_s"] = (self_by[layer] / passes, "s")
    values["sweep.run_sweep_self_s"] = (self_by["sweep.run_sweep"] / passes, "s")
    values["cli.main_self_s"] = (self_by["cli.main"] / passes, "s")
    for name, unit in (("io.documents", "count"), ("network.buses_eliminated", "count"),
                       ("dynamics.assemble_calls", "count"), ("sim.steps", "count"),
                       ("sim.state_mb", "MB"), ("sweep.points", "count"),
                       ("cli.trajectory_csv_mb", "MB")):
        values[name] = (tracer.counts[name] / passes, unit)
    values["dynamics.model_states_max"] = (tracer.counts["dynamics.model_states_max"], "count")
    traced_wall = statistics.fmean(walls[True])
    values["trace.wall_s"] = (traced_wall, "s")
    values["trace.overhead_s"] = (traced_wall - statistics.fmean(walls[False]), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import workloads

    inputs = json.loads(args.inputs.read_text())
    wl = workloads.WORKLOADS[args.workload](root, inputs, args.scratch, args.seed)
    wl.load()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    args.scratch.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result = traced(wl, args.seconds, args.spans)
    else:
        result = untraced(wl, args.seconds)
    import numpy
    import scipy

    result["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "sweep_pool_threads": min(4, os.cpu_count() or 1),
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
