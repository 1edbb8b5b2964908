"""Transmission network model: buses, lines, susceptance Laplacian, Kron reduction.

The network is an undirected graph whose edges carry positive per-unit
susceptances.  A network is validated once, when its cached read-only
Laplacian (:attr:`PowerNetwork.laplacian`) is first read, and every analysis
reads that matrix; the fleet gate applies the same per-bus rules to the
buses it is handed.  All dynamic analysis in this package runs on a network
where every bus hosts a generator; load buses are eliminated beforehand with
:func:`kron_reduce` / :func:`kron_reduce_network`.  The library trusts the
reduction's output; the tests check it against the Laplacian invariants
(symmetry, zero row sums, no positive off-diagonal, semidefiniteness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import NumericalError, ValidationError, _integer, _is_finite, _is_integer

__all__ = [
    "Bus",
    "Line",
    "PowerNetwork",
    "build_laplacian",
    "kron_reduce",
    "kron_reduce_network",
    "validate_network",
]

GENERATOR = "generator"
LOAD = "load"


@dataclass(frozen=True)
class Bus:
    """A network bus, either a generator or a (reducible) load.

    Generator buses carry the swing-dynamics parameters: inertia (s^2*pu),
    damping (pu per rad/s), governor droop (rad/s per pu; its inverse enters
    the dynamics) and a constant power injection (pu).  Load buses carry an
    injection only and must be Kron-reduced away before dynamic analysis.
    """

    id: int
    kind: str = GENERATOR
    inertia: float | None = None
    damping: float = 0.0
    governor_droop: float | None = None
    injection: float = 0.0

    @property
    def is_generator(self) -> bool:
        return self.kind == GENERATOR


@dataclass(frozen=True)
class Line:
    """Transmission line between two buses with positive susceptance (pu).

    Conductances (losses) are outside the model; only the susceptance enters
    the DC power flow.
    """

    from_bus: int
    to_bus: int
    susceptance: float


@dataclass(frozen=True)
class PowerNetwork:
    """Immutable bus/line collection; bus ids must be contiguous 0..n-1."""

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]

    def __init__(self, buses, lines):
        object.__setattr__(self, "buses", tuple(buses))
        object.__setattr__(self, "lines", tuple(lines))

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def generator_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses if b.is_generator)

    def injections(self) -> np.ndarray:
        return np.array([b.injection for b in self.buses], dtype=float)

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Susceptance-weighted graph Laplacian, read-only and built once.

        The first read validates the network and raises ValidationError
        naming every violation, or the bus whose susceptances sum past the
        float range.  Entry (i, j) is -b_ij for each line, the
        diagonal holds the sum of incident susceptances, and all other
        entries are zero.
        """
        violations = validate_network(self)
        if violations:
            raise ValidationError("invalid network: " + "; ".join(violations))
        n = self.n_buses
        lap = np.zeros((n, n))
        with np.errstate(over="ignore"):  # an overflowing diagonal is named below
            for line in self.lines:
                i, j, b = line.from_bus, line.to_bus, line.susceptance
                lap[i, j] -= b
                lap[j, i] -= b
                lap[i, i] += b
                lap[j, j] += b
        overflow = np.flatnonzero(~np.isfinite(lap.diagonal()))
        if overflow.size:
            raise ValidationError(f"invalid network: bus {overflow[0]}: susceptances sum to "
                                  "a non-finite Laplacian entry")
        lap.flags.writeable = False
        return lap


def _components(adjacency: np.ndarray) -> list[list[int]]:
    """Connected components of a boolean adjacency matrix, found by frontier
    BFS, as sorted id lists ordered by their smallest id; they serve both the
    disconnection check and the load-island check of the reduction."""
    left = np.ones(adjacency.shape[0], dtype=bool)
    components = []
    while left.any():
        frontier = np.arange(left.size) == left.argmax()
        members = frontier.copy()
        while frontier.any():
            frontier = adjacency[frontier].any(axis=0) & ~members
            members |= frontier
        components.append(np.flatnonzero(members).tolist())
        left &= ~members
    return components


def _bus_violations(bus: Bus) -> list[str]:
    """One bus's violations of the network's bus rules; the fleet gate applies them too."""
    violations = []
    if bus.kind not in (GENERATOR, LOAD):
        violations.append(f"bus {bus.id}: unknown kind {bus.kind!r}")
    if not (_is_finite(bus.damping) and bus.damping >= 0):
        violations.append(f"bus {bus.id}: damping must be finite and >= 0, got {bus.damping}")
    if not _is_finite(bus.injection):
        violations.append(f"bus {bus.id}: injection must be finite, got {bus.injection}")
    if bus.is_generator:
        for label, value in (("inertia", bus.inertia), ("governor droop", bus.governor_droop)):
            # an infinite inertia or droop enters the dynamics as its zero inverse
            if not (_is_finite(value) and value > 0 or value == math.inf):
                violations.append(f"generator bus {bus.id}: {label} must be > 0")
            elif not math.isfinite(1.0 / value):
                violations.append(f"generator bus {bus.id}: {label} {value} has no finite inverse")
    elif bus.inertia is not None or bus.governor_droop is not None:
        violations.append(f"load bus {bus.id}: must not carry inertia/governor parameters")
    return violations


def validate_network(network: PowerNetwork) -> list[str]:
    """Collect structural violations; returns an empty list iff valid.

    Never raises: :attr:`PowerNetwork.laplacian` turns the diagnostics into
    a hard failure.
    """
    n = network.n_buses
    ids = [b.id for b in network.buses]
    if ids != list(range(n)):  # downstream checks index by id
        return [f"bus ids must be contiguous 0..{n - 1}, got {ids}"]

    violations = [v for bus in network.buses for v in _bus_violations(bus)]

    seen_pairs = set()
    adjacency = np.zeros((n, n), dtype=bool)
    for line in network.lines:
        name = f"line {line.from_bus}-{line.to_bus}"
        if line.from_bus == line.to_bus:
            violations.append(f"{name}: self-loop")
            continue
        if not all(_is_integer(end) and 0 <= end < n for end in (line.from_bus, line.to_bus)):
            violations.append(f"{name}: references an unknown bus id")
            continue
        pair = frozenset((line.from_bus, line.to_bus))
        if pair in seen_pairs:
            violations.append(f"{name}: duplicate (parallel lines are not merged)")
        seen_pairs.add(pair)
        b = line.susceptance
        if not (_is_finite(b) and b > 0 or b == math.inf):  # inf: a non-finite Laplacian entry
            violations.append(f"{name}: susceptance must be > 0, got {b}")
        adjacency[line.from_bus, line.to_bus] = adjacency[line.to_bus, line.from_bus] = True

    components = _components(adjacency)
    if len(components) > 1:
        violations.append(f"network is disconnected: components {components}")
    return violations


def build_laplacian(network: PowerNetwork) -> np.ndarray:
    """The network's read-only susceptance Laplacian, :attr:`PowerNetwork.laplacian`."""
    return network.laplacian


def kron_reduce(laplacian: np.ndarray, retained) -> np.ndarray:
    """Eliminate all buses not in ``retained`` via the Schur complement.

    Rows/columns of the result follow ``sorted(retained)``, a set of integer
    bus ids.  The eliminated block must be invertible, which holds whenever
    every eliminated bus connects (possibly indirectly) to a retained one.
    A result past the float range raises NumericalError naming the eliminated buses.
    """
    lap = np.asarray(laplacian, dtype=float)
    n = lap.shape[0]
    retained = sorted(set(_integer(i, f"retained id {i!r}") for i in retained))
    if not retained:
        raise ValidationError("Kron reduction needs a nonempty retained set")
    if retained[0] < 0 or retained[-1] >= n:
        raise ValidationError(f"retained ids {retained} out of range 0..{n - 1}")
    eliminated = sorted(set(range(n)) - set(retained))
    if not eliminated:
        return lap.copy()

    # A load island (a component with no retained bus) makes the eliminated
    # block singular; report the first by name instead of failing inside the
    # linear solve.
    for component in _components(lap != 0.0):
        if set(component).isdisjoint(retained):
            raise ValidationError(
                f"eliminated buses {component} form an island "
                "with no connection to retained buses; the reduction is singular"
            )

    l_rr = lap[np.ix_(retained, retained)]
    l_re = lap[np.ix_(retained, eliminated)]
    l_ee = lap[np.ix_(eliminated, eliminated)]
    with np.errstate(all="ignore"):  # a non-finite result is named below
        reduced = l_rr - l_re @ np.linalg.solve(l_ee, l_re.T)
        reduced = 0.5 * (reduced + reduced.T)
    if not np.isfinite(reduced).all():
        raise NumericalError(f"Kron reduction eliminating buses {eliminated} is not finite; "
                             "their lines are too weak or their injections too large")
    return reduced


def kron_reduce_network(network: PowerNetwork) -> tuple[PowerNetwork, dict[int, int]]:
    """Reduce a mixed network to its generator buses.

    Load-bus injections are redistributed onto the retained buses by the
    same Schur elimination that produces the reduced susceptances, so the
    reduced network is dynamically equivalent under the DC flow model.
    Returns the reduced network and a map from original generator ids to
    new contiguous ids.
    """
    lap = network.laplacian
    gens = list(network.generator_ids)
    if not gens:
        raise ValidationError("network has no generator buses to retain")
    if len(gens) == network.n_buses:
        return network, {i: i for i in gens}

    # Bordering L with the injections p carries them through the one
    # elimination: the Schur complement of [[L, p], [p^T, 0]] holds the
    # reduced Laplacian and, in its last column, p_r - L_re L_ee^-1 p_e.
    # The network is connected, so the border's ties hide no load island.
    n = network.n_buses
    p = network.injections()
    bordered = np.block([[lap, p[:, None]], [p[None, :], np.zeros((1, 1))]])
    reduced = kron_reduce(bordered, gens + [n])
    buses = [replace(network.buses[orig], id=new, injection=float(reduced[new, -1]))
             for new, orig in enumerate(gens)]
    rows, cols = np.nonzero(np.triu(-reduced[:-1, :-1], 1) > 1e-12)
    lines = [Line(int(i), int(j), float(-reduced[i, j])) for i, j in zip(rows, cols)]
    return PowerNetwork(buses, lines), {orig: new for new, orig in enumerate(gens)}
