"""Spans around calls into gridfreq's public functions, taken from outside.

``Tracer.install()`` replaces each traced function, in every loaded gridfreq
module that holds a reference to it (``from .analysis import h2_gramian``
binds a second name), with a wrapper that records a span.  ``uninstall()``
puts the originals back.  Spans stay in memory until ``dump()``.

Self time is attributed wall time: every instant of a traced pass goes to
the innermost open spans, split evenly when the sweep's worker threads run
several at once, so the self times of one pass add up exactly to its wall
time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# Public functions whose calls are timed, by layer.  A layer is a gridfreq
# module; names follow the module's own.
TRACED = {
    "io": ("load_document", "reduce_document"),
    "network": ("validate_network", "build_laplacian", "kron_reduce_network"),
    "control": ("check_decentralized_stability",),
    "dynamics": ("assemble_closed_loop", "steady_state"),
    "analysis": ("h2_frequency_weighted", "h2_gramian", "solve_lyapunov", "modal_decompose",
                 "mode_norms", "verify_steady_state_optimality"),
    "sim": ("simulate_stochastic", "simulate_deterministic", "compute_metrics"),
    "sweep": ("run_sweep",),
    "cli": ("main",),
}


class Span:
    __slots__ = ("sid", "name", "parent", "op", "start", "end")

    def __init__(self, sid, name, parent, op):
        self.sid, self.name, self.parent, self.op = sid, name, parent, op
        self.start = self.end = 0.0


def _trajectory_counts(args, traj):
    return {"sim.steps": traj.times.size - 1, "sim.state_mb": traj.states.nbytes / 1e6}


# Counters read off a traced call's arguments and result.
COUNT_HOOKS = {
    "io.load_document": lambda args, out: {"io.documents": 1},
    "network.kron_reduce_network": lambda args, out: {
        "network.buses_eliminated": args[0].n_buses - len(out[1])},
    "dynamics.assemble_closed_loop": lambda args, out: {
        "dynamics.assemble_calls": 1, "dynamics.model_states_max": out.n_states},
    "sim.simulate_stochastic": _trajectory_counts,
    "sim.simulate_deterministic": _trajectory_counts,
    "sweep.run_sweep": lambda args, out: {"sweep.points": len(out)},
}

# Counters kept as a maximum rather than a sum.
MAX_COUNTERS = {"dynamics.model_states_max"}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.op = None

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        # A span opened in a pool thread with nothing open there belongs to
        # whatever the main thread has open (the run_sweep that fanned out).
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span = Span(len(self.spans), name, parent.sid if parent else None, self.op)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value: float) -> None:
        with self._lock:
            if name in MAX_COUNTERS:
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value

    # -- patching ---------------------------------------------------------
    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                for key, value in hook(args, out).items():
                    self.count(key, value)
            return out

        return traced

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"gridfreq.{layer}") for layer in TRACED}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gridfreq" or key.startswith("gridfreq."))]
        for layer, names in TRACED.items():
            home = homes[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------
    def self_times(self, spans: list[Span]) -> dict[int, float]:
        """Attributed wall time of each span (see module docstring)."""
        events = []
        for s in spans:
            events.append((s.start, 1, s))
            events.append((s.end, 0, s))
        events.sort(key=lambda e: (e[0], e[1]))
        active: dict[int, Span] = {}
        open_children: dict[int, int] = defaultdict(int)
        own = defaultdict(float)
        last = None
        for t, kind, s in events:
            if last is not None and active:
                leaves = [sid for sid in active if open_children[sid] == 0]
                share = (t - last) / len(leaves)
                for sid in leaves:
                    own[sid] += share
            last = t
            if kind == 1:
                active[s.sid] = s
                if s.parent in active:
                    open_children[s.parent] += 1
            else:
                del active[s.sid]
                if s.parent in active:
                    open_children[s.parent] -= 1
        return own

    def dump(self, path: Path) -> None:
        rows = [{"id": s.sid, "name": s.name, "parent": s.parent, "op": s.op,
                 "start": s.start, "end": s.end} for s in self.spans]
        path.write_text(json.dumps(rows) + "\n")
