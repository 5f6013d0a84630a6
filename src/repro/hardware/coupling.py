"""Qubit connectivity (coupling-map) generators.

The paper models each device's qubit topology as an undirected graph
``G_i = (V_i, E_i)`` (§4).  Superconducting IBM devices use the *heavy-hex*
lattice: a hexagonal lattice with an extra qubit on every edge, giving a
maximum degree of 3.  The scheduler itself treats connectivity as a black box
(§5.2), but the graphs are still used for capacity accounting, for the
qubit-region tracker and for the connectivity audit.
"""

from __future__ import annotations

import networkx as nx

__all__ = [
    "heavy_hex_graph",
    "ibm_eagle_coupling",
    "line_graph",
    "ring_graph",
]


def _relabel_to_integers(graph: nx.Graph) -> nx.Graph:
    """Relabel nodes to contiguous integers 0..n-1 (deterministic order).

    Nodes may be heterogeneous (lattice coordinates and edge-subdivision
    markers), so ordering is by ``repr`` which is stable across runs.
    """
    mapping = {node: idx for idx, node in enumerate(sorted(graph.nodes(), key=repr))}
    return nx.relabel_nodes(graph, mapping, copy=True)


def heavy_hex_graph(rows: int = 3, cols: int = 3) -> nx.Graph:
    """Build a heavy-hex lattice.

    A hexagonal lattice of the given size is generated and every edge is
    subdivided by an additional vertex, reproducing the heavy-hex structure
    of IBM's Falcon/Eagle/Heron processors (vertex degree at most 3).

    Parameters
    ----------
    rows, cols:
        Size of the underlying hexagonal lattice.

    Returns
    -------
    networkx.Graph with integer node labels ``0..n-1``.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    hexagonal = nx.hexagonal_lattice_graph(rows, cols)
    heavy = nx.Graph()
    heavy.add_nodes_from(hexagonal.nodes())
    for u, v in hexagonal.edges():
        midpoint = ("edge", u, v)
        heavy.add_node(midpoint)
        heavy.add_edge(u, midpoint)
        heavy.add_edge(midpoint, v)
    return _relabel_to_integers(heavy)


def _trim_to_size(graph: nx.Graph, num_qubits: int) -> nx.Graph:
    """Return a connected subgraph of exactly *num_qubits* nodes (BFS order)."""
    if graph.number_of_nodes() < num_qubits:
        raise ValueError(
            f"graph has only {graph.number_of_nodes()} nodes, cannot trim to {num_qubits}"
        )
    start = min(graph.nodes())
    order = list(nx.bfs_tree(graph, start).nodes())
    keep = order[:num_qubits]
    sub = graph.subgraph(keep).copy()
    if not nx.is_connected(sub):  # pragma: no cover - BFS prefix is always connected
        raise RuntimeError("trimmed subgraph unexpectedly disconnected")
    return _relabel_to_integers(sub)


def ibm_eagle_coupling(num_qubits: int = 127) -> nx.Graph:
    """A 127-qubit Eagle-class heavy-hex coupling map.

    The exact IBM layout is not required by the scheduler (connectivity is
    treated as a black box, §5.2); this function produces a heavy-hex lattice
    trimmed to exactly *num_qubits* connected nodes with max degree 3.
    """
    if num_qubits <= 0:
        raise ValueError("num_qubits must be positive")
    rows = cols = 2
    graph = heavy_hex_graph(rows, cols)
    while graph.number_of_nodes() < num_qubits:
        if rows <= cols:
            rows += 1
        else:
            cols += 1
        graph = heavy_hex_graph(rows, cols)
    return _trim_to_size(graph, num_qubits)


def line_graph(num_qubits: int) -> nx.Graph:
    """A 1-D chain of qubits."""
    if num_qubits <= 0:
        raise ValueError("num_qubits must be positive")
    return nx.path_graph(num_qubits)


def ring_graph(num_qubits: int) -> nx.Graph:
    """A ring of qubits."""
    if num_qubits < 3:
        raise ValueError("a ring needs at least 3 qubits")
    return nx.cycle_graph(num_qubits)
