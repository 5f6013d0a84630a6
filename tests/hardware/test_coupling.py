"""Unit tests for coupling-map generators."""

import networkx as nx
import pytest

from repro.hardware.coupling import (
    heavy_hex_graph,
    ibm_eagle_coupling,
    line_graph,
    ring_graph,
)


class TestHeavyHex:
    def test_connected_and_integer_labelled(self):
        g = heavy_hex_graph(2, 2)
        assert nx.is_connected(g)
        assert set(g.nodes()) == set(range(g.number_of_nodes()))

    def test_max_degree_three(self):
        g = heavy_hex_graph(3, 3)
        assert max(dict(g.degree()).values()) <= 3

    def test_subdivision_doubles_structure(self):
        hexagonal = nx.hexagonal_lattice_graph(2, 2)
        heavy = heavy_hex_graph(2, 2)
        assert heavy.number_of_nodes() == hexagonal.number_of_nodes() + hexagonal.number_of_edges()
        assert heavy.number_of_edges() == 2 * hexagonal.number_of_edges()

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            heavy_hex_graph(0, 3)


class TestEagle:
    def test_exactly_127_qubits(self):
        g = ibm_eagle_coupling()
        assert g.number_of_nodes() == 127
        assert nx.is_connected(g)
        assert max(dict(g.degree()).values()) <= 3

    def test_custom_size(self):
        g = ibm_eagle_coupling(30)
        assert g.number_of_nodes() == 30
        assert nx.is_connected(g)

    def test_deterministic(self):
        g1, g2 = ibm_eagle_coupling(50), ibm_eagle_coupling(50)
        assert sorted(g1.edges()) == sorted(g2.edges())

    def test_invalid(self):
        with pytest.raises(ValueError):
            ibm_eagle_coupling(0)


class TestSimpleTopologies:
    def test_line(self):
        g = line_graph(10)
        assert g.number_of_edges() == 9
        assert nx.is_connected(g)

    def test_ring(self):
        g = ring_graph(8)
        assert g.number_of_edges() == 8
        assert all(d == 2 for _, d in g.degree())
        with pytest.raises(ValueError):
            ring_graph(2)
