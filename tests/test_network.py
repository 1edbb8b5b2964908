import re
from dataclasses import replace

import numpy as np
import pytest

from gridfreq import (
    Bus,
    Line,
    PowerNetwork,
    ValidationError,
    build_laplacian,
    kron_reduce,
    kron_reduce_network,
    validate_network,
)
from gridfreq.network import _components
from conftest import random_connected_network
from oracles import laplacian_violations
import oracles


def simple_net(n, lines, **bus_kwargs):
    defaults = dict(inertia=1.0, damping=0.1, governor_droop=15.0)
    defaults.update(bus_kwargs)
    return PowerNetwork([Bus(id=i, **defaults) for i in range(n)], lines)


class TestBuildLaplacian:
    def test_single_bus(self):
        lap = build_laplacian(simple_net(1, []))
        assert lap.shape == (1, 1) and lap[0, 0] == 0.0

    def test_two_bus_unit_line(self):
        lap = build_laplacian(simple_net(2, [Line(0, 1, 1.0)]))
        assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_triangle_hand_evaluated(self):
        lines = [Line(0, 1, 1.0), Line(0, 2, 2.0), Line(1, 2, 3.0)]
        lap = build_laplacian(simple_net(3, lines))
        expected = np.array([[3.0, -1.0, -2.0], [-1.0, 4.0, -3.0], [-2.0, -3.0, 5.0]])
        assert np.array_equal(lap, expected)

    def test_rejects_disconnected_and_names_components(self):
        net = simple_net(4, [Line(0, 1, 1.0), Line(2, 3, 1.0)])
        with pytest.raises(ValidationError, match=r"\[0, 1\].*\[2, 3\]"):
            build_laplacian(net)

    def test_read_only_and_built_once(self):
        net = simple_net(3, [Line(0, 1, 1.0), Line(1, 2, 2.0)])
        lap = net.laplacian
        assert build_laplacian(net) is lap
        with pytest.raises(ValueError, match="read-only"):
            lap[0, 1] = 0.0
        assert np.array_equal(lap, [[1.0, -1.0, 0.0], [-1.0, 3.0, -2.0], [0.0, -2.0, 2.0]])

    def test_zero_eigenvalue_with_uniform_eigenvector(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net = random_connected_network(rng)
            lap = build_laplacian(net)
            n = net.n_buses
            assert np.abs(lap @ np.ones(n)).max() < 1e-9
            eigs = np.linalg.eigvalsh(lap)
            assert abs(eigs[0]) < 1e-9
            assert eigs[1] > 1e-9  # connected: exactly one zero eigenvalue
            assert not laplacian_violations(lap)


class TestKronReduce:
    def test_retain_all_is_identity(self):
        lap = build_laplacian(simple_net(3, [Line(0, 1, 1.0), Line(1, 2, 2.0)]))
        assert np.array_equal(kron_reduce(lap, {0, 1, 2}), lap)

    def test_series_combination(self):
        # path 0-1-2 with unit susceptances: eliminating the middle bus gives
        # the series value 1/(1/1 + 1/1) = 0.5
        lap = build_laplacian(simple_net(3, [Line(0, 1, 1.0), Line(1, 2, 1.0)]))
        reduced = kron_reduce(lap, {0, 2})
        assert np.allclose(reduced, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)

    def test_star_center_elimination(self):
        # star with unit legs: pairwise effective susceptance 1/3
        lines = [Line(3, i, 1.0) for i in range(3)]
        lap = build_laplacian(simple_net(4, lines))
        reduced = kron_reduce(lap, {0, 1, 2})
        expected = np.full((3, 3), -1.0 / 3.0) + np.eye(3)
        assert np.allclose(reduced, expected, atol=1e-14)

    def test_empty_retained_rejected(self):
        lap = build_laplacian(simple_net(2, [Line(0, 1, 1.0)]))
        with pytest.raises(ValidationError, match="nonempty"):
            kron_reduce(lap, set())

    @pytest.mark.parametrize("retained,shown", [([0, 2.7], "2.7"), ([True, 3], "True"),
                                                 (np.array([0.0, 2.0]), repr(np.float64(0.0)))])
    def test_non_integer_retained_rejected(self, retained, shown):
        # int() would keep bus 2 for 2.7 and bus 1 for True
        lap = build_laplacian(simple_net(4, [Line(0, 1, 1.0), Line(1, 2, 1.0), Line(2, 3, 1.0)]))
        with pytest.raises(ValidationError) as excinfo:
            kron_reduce(lap, retained)
        assert str(excinfo.value) == f"retained id {shown}: must be an integer"

    def test_numpy_integer_retained_accepted(self):
        lap = build_laplacian(simple_net(3, [Line(0, 1, 1.0), Line(1, 2, 1.0)]))
        assert np.array_equal(kron_reduce(lap, np.array([0, 2])), kron_reduce(lap, [0, 2]))

    def test_load_island_named(self):
        # hand-built Laplacian of two components: eliminating the island is singular
        lap = np.array(
            [
                [1.0, -1.0, 0.0, 0.0],
                [-1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 2.0, -2.0],
                [0.0, 0.0, -2.0, 2.0],
            ]
        )
        with pytest.raises(ValidationError, match=r"\[2, 3\]"):
            kron_reduce(lap, {0, 1})

    def test_preserves_laplacian_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            net = random_connected_network(rng, n_min=4, n_max=9)
            lap = build_laplacian(net)
            keep = sorted(rng.choice(net.n_buses, size=int(rng.integers(1, net.n_buses)),
                                     replace=False).tolist())
            reduced = kron_reduce(lap, keep)
            assert not laplacian_violations(reduced, row_sum_tol=1e-10)

    def test_composition_consistency(self):
        # eliminating {0} and then {1} (index-shifted) equals eliminating {0, 1}
        rng = np.random.default_rng(3)
        for _ in range(10):
            net = random_connected_network(rng, n_min=5, n_max=9)
            lap = build_laplacian(net)
            n = net.n_buses
            joint = kron_reduce(lap, range(2, n))
            sequential = kron_reduce(kron_reduce(lap, range(1, n)), range(1, n - 1))
            assert np.allclose(joint, sequential, atol=1e-10)

    def test_eliminate_one_then_other_matches_joint(self):
        rng = np.random.default_rng(5)
        net = random_connected_network(rng, n_min=6, n_max=6)
        lap = build_laplacian(net)
        joint = kron_reduce(lap, {0, 1, 2, 3})  # eliminate {4, 5}
        step1 = kron_reduce(lap, {0, 1, 2, 3, 4})  # eliminate 5
        step2 = kron_reduce(step1, {0, 1, 2, 3})  # then 4
        assert np.allclose(joint, step2, atol=1e-10)


class TestKronReduceNetwork:
    def test_load_injection_redistributes(self):
        buses = [
            Bus(id=0, inertia=1.0, damping=0.1, governor_droop=15.0),
            Bus(id=1, kind="load", injection=-0.6),
            Bus(id=2, inertia=1.0, damping=0.1, governor_droop=15.0),
        ]
        lines = [Line(0, 1, 1.0), Line(1, 2, 1.0)]
        reduced, id_map = kron_reduce_network(PowerNetwork(buses, lines))
        assert id_map == {0: 0, 2: 1}
        assert reduced.n_buses == 2
        # symmetric ties: the load splits evenly, total injection conserved
        p = reduced.injections()
        assert np.allclose(p, [-0.3, -0.3])
        assert len(reduced.lines) == 1
        assert reduced.lines[0].susceptance == pytest.approx(0.5)

    def test_all_generator_network_unchanged(self):
        net = simple_net(3, [Line(0, 1, 1.0), Line(1, 2, 2.0)])
        reduced, id_map = kron_reduce_network(net)
        assert reduced is net
        assert id_map == {0: 0, 1: 1, 2: 2}


class TestValidateNetwork:
    def test_valid_two_bus(self):
        assert validate_network(simple_net(2, [Line(0, 1, 1.0)])) == []

    def test_negative_susceptance_cited(self):
        violations = validate_network(simple_net(2, [Line(0, 1, -1.0)]))
        assert len(violations) == 1
        assert "line 0-1" in violations[0] and "susceptance" in violations[0]

    def test_nan_susceptance_cited(self):
        violations = validate_network(simple_net(2, [Line(0, 1, float("nan"))]))
        assert violations == ["line 0-1: susceptance must be > 0, got nan"]

    def test_two_components_listed(self):
        net = simple_net(4, [Line(0, 1, 1.0), Line(2, 3, 1.0)])
        violations = validate_network(net)
        assert len(violations) == 1
        assert "[0, 1]" in violations[0] and "[2, 3]" in violations[0]

    def test_duplicate_line_rejected(self):
        net = simple_net(2, [Line(0, 1, 1.0), Line(1, 0, 2.0)])
        assert any("duplicate" in v for v in validate_network(net))

    def test_load_with_dynamics_parameters(self):
        buses = [
            Bus(id=0, inertia=1.0, damping=0.1, governor_droop=15.0),
            Bus(id=1, kind="load", inertia=2.0),
        ]
        violations = validate_network(PowerNetwork(buses, [Line(0, 1, 1.0)]))
        assert any("load bus 1" in v for v in violations)

    def test_nonpositive_generator_parameters(self):
        buses = [Bus(id=0, inertia=-1.0, damping=0.1, governor_droop=15.0),
                 Bus(id=1, inertia=1.0, damping=-0.2, governor_droop=0.0)]
        violations = validate_network(PowerNetwork(buses, [Line(0, 1, 1.0)]))
        assert any("inertia" in v for v in violations)
        assert any("governor droop" in v for v in violations)
        assert any("damping" in v for v in violations)

    @pytest.mark.parametrize("field,value,expected", [
        ("damping", float("nan"), "bus {}: damping must be finite"),
        ("damping", float("inf"), "bus {}: damping must be finite"),
        ("injection", float("nan"), "bus {}: injection must be finite"),
        ("injection", float("-inf"), "bus {}: injection must be finite"),
        ("damping", "x", "bus {}: damping must be finite and >= 0, got x"),
        ("inertia", "x", "generator bus {}: inertia must be > 0"),
        ("inertia", True, "generator bus {}: inertia must be > 0"),
        ("injection", None, "bus {}: injection must be finite, got None"),
        ("susceptance", "x", ["line 0-1: susceptance must be > 0, got x"]),
        ("susceptance", None, ["line 0-1: susceptance must be > 0, got None"]),
        ("to_bus", "x", ["line 0-x: references an unknown bus id", "network is disconnected"]),
        ("to_bus", 1.0, ["line 0-1.0: references an unknown bus id", "network is disconnected"]),
    ], ids=["damping-nan", "damping-inf", "injection-nan", "injection--inf", "damping-str",
            "inertia-str", "inertia-bool", "injection-none", "susceptance-str", "susceptance-none",
            "to-bus-str", "to-bus-float"])
    def test_non_finite_bus_numbers_named(self, field, value, expected):
        """A bus or line number that is not a number of its range is a named
        violation, of each bus (a pattern over the bus id) or of the line,
        and not a raw error."""
        if field in ("to_bus", "susceptance"):
            net = simple_net(2, [replace(Line(0, 1, 1.0), **{field: value})])
        else:
            net = simple_net(2, [Line(0, 1, 1.0)], **{field: value})
        if isinstance(expected, str):
            expected = [expected.format(bus) for bus in (0, 1)]
        violations = validate_network(net)
        assert len(violations) == len(expected)
        assert all(e in v for e, v in zip(expected, violations))
        with pytest.raises(ValidationError, match=re.escape(expected[-1])):
            net.laplacian


def random_tree_edges(rng, members):
    """Edges of a random spanning tree over the given bus ids."""
    order = rng.permutation(members)
    return [(int(order[k]), int(order[rng.integers(k)])) for k in range(1, order.size)]


class TestComponents:
    """The numpy component finder against a plain breadth-first search."""

    def test_random_graphs_match_oracle(self):
        rng = np.random.default_rng(19)
        split = 0
        for _ in range(60):
            n = int(rng.integers(1, 50))
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.0, 4.0 / n), 1)
            edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(upper))]
            expected = oracles.components(n, edges)
            assert _components(upper | upper.T) == expected
            violations = validate_network(simple_net(n, [Line(i, j, 1.0) for i, j in edges]))
            if len(expected) > 1:
                split += 1
                assert violations == [f"network is disconnected: components {expected}"]
            else:
                assert violations == []
        assert split > 20  # most draws have several components

    def test_300_bus_load_islands_named(self):
        rng = np.random.default_rng(23)
        n = 300
        buses = rng.permutation(n)
        islands, grid = (buses[:9], buses[9:14]), buses[14:]
        edges = random_tree_edges(rng, grid) + [
            edge for island in islands for edge in random_tree_edges(rng, island)]
        lap = np.zeros((n, n))
        for i, j in edges:
            b = rng.uniform(0.5, 10.0)
            lap[[i, j], [j, i]] -= b
            lap[[i, j], [i, j]] += b
        retained = rng.choice(grid, size=40, replace=False).tolist()
        untied = [c for c in oracles.components(n, edges) if not set(c) & set(retained)]
        assert len(untied) == 2
        with pytest.raises(ValidationError) as excinfo:
            kron_reduce(lap, retained)
        assert str(excinfo.value) == (
            f"eliminated buses {untied[0]} form an island with no connection to retained "
            "buses; the reduction is singular")
        # tied to the grid through one line each, the islands reduce away
        for island in islands:
            lap[[island[0], grid[0]], [grid[0], island[0]]] -= 1.0
            lap[[island[0], grid[0]], [island[0], grid[0]]] += 1.0
        assert not laplacian_violations(kron_reduce(lap, retained), row_sum_tol=1e-10)
