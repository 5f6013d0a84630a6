"""Synthetic circuit generators.

The case study (§7) generates 1,000 synthetic jobs whose circuits require
130-250 qubits, have depth 5-20 and 10,000-100,000 shots, with gate sets
abstracted to single-/two-qubit gate counts.  :func:`random_circuit_spec`
draws from that distribution; the other generators provide
domain-flavoured workloads (GHZ state preparation, QAOA) for the example
applications.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.circuits.circuit import CircuitSpec

__all__ = [
    "check_circuit_ranges",
    "random_circuit_spec",
    "ghz_spec",
    "qaoa_spec",
]

#: Default fraction of (qubit, layer) slots occupied by a two-qubit gate in a
#: random circuit.  Together with the case-study job sizes this places final
#: fidelities in the 0.60-0.70 band reported by the paper.
DEFAULT_TWO_QUBIT_DENSITY = 0.18


def check_circuit_ranges(
    qubit_range: Tuple[int, int],
    depth_range: Tuple[int, int],
    shots_range: Tuple[int, int],
    two_qubit_density: float,
) -> None:
    """Raise ``ValueError`` unless the ranges are non-empty and start at 1 or
    above and the density lies in ``[0, 0.5]`` (NaN included)."""
    if qubit_range[0] > qubit_range[1] or qubit_range[0] <= 0:
        raise ValueError(f"invalid qubit_range {qubit_range}")
    if depth_range[0] > depth_range[1] or depth_range[0] <= 0:
        raise ValueError(f"invalid depth_range {depth_range}")
    if shots_range[0] > shots_range[1] or shots_range[0] <= 0:
        raise ValueError(f"invalid shots_range {shots_range}")
    if not 0.0 <= two_qubit_density <= 0.5:
        raise ValueError("two_qubit_density must be in [0, 0.5]")


def random_circuit_spec(
    rng: np.random.Generator,
    qubit_range: Tuple[int, int] = (130, 250),
    depth_range: Tuple[int, int] = (5, 20),
    shots_range: Tuple[int, int] = (10_000, 100_000),
    two_qubit_density: float = DEFAULT_TWO_QUBIT_DENSITY,
    name: str = "random",
) -> CircuitSpec:
    """Draw a random abstract circuit.

    Parameters
    ----------
    rng:
        Seeded NumPy generator.
    qubit_range, depth_range, shots_range:
        Inclusive ranges for the uniform draws (defaults match §7).
    two_qubit_density:
        Fraction of qubit-layer slots occupied by a two-qubit gate; two
        qubits are consumed per gate, the remainder of the slots hold
        single-qubit gates.
    """
    check_circuit_ranges(qubit_range, depth_range, shots_range, two_qubit_density)
    num_qubits = int(rng.integers(qubit_range[0], qubit_range[1] + 1))
    depth = int(rng.integers(depth_range[0], depth_range[1] + 1))
    num_shots = int(rng.integers(shots_range[0], shots_range[1] + 1))

    slots = num_qubits * depth
    num_two_qubit = int(round(slots * two_qubit_density))
    num_single = max(slots - 2 * num_two_qubit, 0)
    return CircuitSpec(
        num_qubits=num_qubits,
        depth=depth,
        num_shots=num_shots,
        num_two_qubit_gates=num_two_qubit,
        num_single_qubit_gates=num_single,
        name=name,
    )


def ghz_spec(num_qubits: int, num_shots: int = 20_000) -> CircuitSpec:
    """A GHZ-state preparation circuit on *num_qubits* qubits.

    One Hadamard followed by a CNOT ladder: depth ≈ num_qubits, ``q - 1``
    two-qubit gates, one single-qubit gate.
    """
    if num_qubits < 2:
        raise ValueError("a GHZ state needs at least 2 qubits")
    return CircuitSpec(
        num_qubits=num_qubits,
        depth=num_qubits,
        num_shots=num_shots,
        num_two_qubit_gates=num_qubits - 1,
        num_single_qubit_gates=1,
        name=f"ghz_{num_qubits}",
    )


def qaoa_spec(
    num_qubits: int,
    num_layers: int = 3,
    edge_density: float = 0.1,
    num_shots: int = 50_000,
    rng: Optional[np.random.Generator] = None,
) -> CircuitSpec:
    """A QAOA MaxCut-style circuit on a random graph.

    Each layer applies one two-qubit ZZ interaction per problem-graph edge and
    one single-qubit mixer rotation per qubit.
    """
    if num_qubits < 2:
        raise ValueError("QAOA needs at least 2 qubits")
    if num_layers <= 0:
        raise ValueError("num_layers must be positive")
    if not 0.0 < edge_density <= 1.0:
        raise ValueError("edge_density must be in (0, 1]")
    max_edges = num_qubits * (num_qubits - 1) // 2
    if rng is None:
        num_edges = int(round(max_edges * edge_density))
    else:
        num_edges = int(rng.binomial(max_edges, edge_density))
    num_edges = max(num_edges, num_qubits - 1)  # keep the problem graph connected-ish
    depth = num_layers * 3 + 1  # cost layer + mixer layer + barrier-ish layer, plus state prep
    return CircuitSpec(
        num_qubits=num_qubits,
        depth=depth,
        num_shots=num_shots,
        num_two_qubit_gates=num_layers * num_edges,
        num_single_qubit_gates=num_layers * num_qubits + num_qubits,
        name=f"qaoa_{num_qubits}q_{num_layers}p",
    )
