"""gridfreq benchmark: one workload run, from the root of a gridfreq checkout.

    python3 perfbench/run.py --workload h2-tuning --seed 1 --seconds 20 --trace 0

Workloads: h2-tuning, noise-ensemble, cli-session (see perfbench/README.md).
The runner generates the seed's input documents, times set-up in several
fresh interpreters, then starts one fresh worker process for the workload.
Every metric is printed with its unit; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  The
full record of the run goes to perfbench/out/result-<workload>-<seed>-<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("h2-tuning", "noise-ensemble", "cli-session")
# Set-up is timed in fresh interpreters before and after the worker (plus
# the worker's own start), so the samples span the whole run rather than
# one moment of a shared machine.
SETUP_PROBES = 4
IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 30.0
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import gridfreq; "
                  "print(time.perf_counter() - t)")


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    # One BLAS thread per process: with the sweep's pool of min(4, nproc)
    # threads, no more threads compute than there are cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


def start_worker(argv, env, timeout):
    """Run a worker; returns (seconds until its READY line, other stdout lines)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], env=env,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker {' '.join(argv[:2])} exited with {code}")
    return ready, lines


def import_seconds(env) -> float:
    """Median time of `import gridfreq` in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, check=True,
                             capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gridfreq" / "__init__.py").is_file():
        print("error: run from the root of a gridfreq checkout (no src/gridfreq here)",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import gen_inputs

    out_dir = HERE / "out"
    run_dir = out_dir / f"run-{os.getpid()}"
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    try:
        inputs = gen_inputs.generate(args.seed, run_dir / "inputs")
        inputs_file = run_dir / "inputs.json"
        inputs_file.write_text(json.dumps(inputs))
        env = worker_env(root)
        common = ["--workload", args.workload, "--root", str(root), "--inputs", str(inputs_file),
                  "--scratch", str(run_dir / "scratch"), "--seed", str(args.seed)]
        probe = common + ["--setup-only"]
        setup = [start_worker(probe, env, PROBE_TIMEOUT_S)[0] for _ in range(SETUP_PROBES)]
        spans = out_dir / f"spans-{tag}.json"
        ready, lines = start_worker(common + ["--seconds", str(args.seconds), "--trace",
                                              str(args.trace), "--spans", str(spans)],
                                    env, WORKER_TIMEOUT_S)
        setup.append(ready)
        setup += [start_worker(probe, env, PROBE_TIMEOUT_S)[0] for _ in range(SETUP_PROBES)]
        result = json.loads(next(l for l in lines if l.startswith("RESULT "))[len("RESULT "):])
        if args.trace:
            result["metrics"]["cli.import_s"] = {"value": import_seconds(env), "unit": "s"}
        else:
            result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = result.pop("records")
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    correct = not result["failures"]
    result.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_samples_s=setup, attempted=attempted, failed=failed, correct=correct,
                  operations={r["op"]: [x["s"] for x in records if x["op"] == r["op"]]
                              for r in records})
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {result['rounds']} rounds, "
          f"{attempted} operations attempted, {failed} failed, correct {correct}")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for name, m in sorted(result.get("detail", {}).items()):
        if isinstance(m, dict) and "unit" in m:
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}  (workload-specific, not gated)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
