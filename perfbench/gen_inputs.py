"""Deterministic input documents for the benchmark, built from a workload seed.

    python3 perfbench/gen_inputs.py --seed 7 --out perfbench/out/inputs-7

writes the ring-with-chord scaling networks (ring-<n>.json) and the mixed
generator/load documents (mixed-<n>.json).  The same seed always gives
byte-identical files.  Only the standard library is used, so the runner can
generate inputs without importing numpy.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

# Scaling series: the Kronecker Gramian fits up to 30 buses (about 340 MB at
# 30); 40 buses goes through the frequency-weighted route instead.
RING_GRAMIAN_SIZES = (10, 20, 30)
RING_WEIGHTED_SIZES = (40,)
# Mixed documents: (buses, generators); the rest are load buses.
MIXED_SIZES = ((400, 40), (800, 60))
NOISE = {"k1": 0.1, "k2": 5.0, "k3": 5.0}


def _schema(comment, buses, lines, inverters, noise):
    return {"schema_version": "1", "comment": comment, "buses": buses, "lines": lines,
            "inverters": inverters, "noise": noise}


def ring_document(rng: random.Random, n: int, mode: str) -> dict:
    """Ring of n identical generators plus one chord from bus 0 to a bus in
    the middle half; line susceptances are drawn from U[2, 8]."""
    buses = [{"id": i, "kind": "generator", "inertia": 1.0, "damping": 0.1,
              "governor_droop": 15.0, "injection": 0.0} for i in range(n)]
    lines = [{"from": i, "to": (i + 1) % n, "susceptance": round(rng.uniform(2.0, 8.0), 6)}
             for i in range(n)]
    chord = rng.randrange(n // 4 + 1, 3 * n // 4)
    lines.append({"from": 0, "to": chord, "susceptance": round(rng.uniform(2.0, 8.0), 6)})
    params = {"DC": {"r_r": 15.0}, "IDROOP": {"r_r": 15.0, "delta": 6.0, "nu": 0.9}}[mode]
    inverters = [{"bus": i, "mode": mode, "q0": 0.0, **params} for i in range(n)]
    noise = [{"bus": i, **NOISE} for i in range(n)]
    return _schema(f"ring of {n} with one chord, {mode} fleet", buses, lines, inverters, noise)


def mixed_document(rng: random.Random, n: int, n_gen: int) -> dict:
    """Random connected network of n buses, n_gen of them generators.

    A random spanning tree plus n/5 extra lines.  Generators inject
    U[0.5, 2] and loads draw the total back so the imbalance is -0.05 per
    generator; load buses carry no damping.  Inverter modes are drawn from
    CP/DC/VI/IDROOP.  Noise sits on generator buses only, because the
    program drops noise declared on load buses during Kron reduction.
    """
    gen_ids = sorted(rng.sample(range(n), n_gen))
    is_gen = set(gen_ids)
    pairs = set()
    lines = []

    def add(i, j):
        key = (min(i, j), max(i, j))
        if i != j and key not in pairs:
            pairs.add(key)
            lines.append({"from": key[0], "to": key[1],
                          "susceptance": round(rng.uniform(1.0, 10.0), 6)})

    for i in range(1, n):
        add(i, rng.randrange(i))
    for _ in range(n // 5):
        add(rng.randrange(n), rng.randrange(n))

    gen_injection = {i: round(rng.uniform(0.5, 2.0), 6) for i in gen_ids}
    loads = [i for i in range(n) if i not in is_gen]
    weights = [rng.uniform(0.5, 1.5) for _ in loads]
    demand = sum(gen_injection.values()) + 0.05 * n_gen
    load_injection = {i: -round(demand * w / sum(weights), 6) for i, w in zip(loads, weights)}

    buses = []
    for i in range(n):
        if i in is_gen:
            buses.append({"id": i, "kind": "generator",
                          "inertia": round(rng.uniform(0.5, 5.0), 6),
                          "damping": round(rng.uniform(0.05, 0.5), 6),
                          "governor_droop": round(rng.uniform(10.0, 30.0), 6),
                          "injection": gen_injection[i]})
        else:
            buses.append({"id": i, "kind": "load", "damping": 0.0,
                          "injection": load_injection[i]})

    inverters = []
    for i in gen_ids:
        mode = rng.choice(("CP", "DC", "VI", "IDROOP"))
        entry = {"bus": i, "mode": mode, "q0": round(rng.uniform(-0.2, 0.2), 6)}
        if mode != "CP":
            entry["r_r"] = round(rng.uniform(10.0, 30.0), 6)
        if mode == "VI":
            entry["m_v"] = round(rng.uniform(0.05, 0.3), 6)
        if mode == "IDROOP":
            entry["delta"] = round(rng.uniform(2.0, 10.0), 6)
            entry["nu"] = round(rng.uniform(0.1, 2.0), 6)
        inverters.append(entry)
    noise = [{"bus": i, "k1": round(rng.uniform(0.0, 0.2), 6),
              "k2": round(rng.uniform(0.0, 5.0), 6), "k3": round(rng.uniform(0.0, 5.0), 6)}
             for i in gen_ids]
    return _schema(f"{n} buses, {n_gen} generators, random tree plus {n // 5} extra lines",
                   buses, lines, inverters, noise)


def generate(seed: int, out: Path) -> dict:
    """Write every input document for ``seed`` under ``out``; returns name -> path."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    docs = {}
    for n in RING_GRAMIAN_SIZES:
        docs[f"ring-{n}"] = ring_document(rng, n, "DC")
    for n in RING_WEIGHTED_SIZES:
        docs[f"ring-{n}"] = ring_document(rng, n, "IDROOP")
    for n, n_gen in MIXED_SIZES:
        docs[f"mixed-{n}"] = mixed_document(rng, n, n_gen)
    paths = {}
    for name, doc in docs.items():
        path = out / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        paths[name] = str(path)
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for name, path in generate(args.seed, args.out).items():
        print(name, path)


if __name__ == "__main__":
    main()
