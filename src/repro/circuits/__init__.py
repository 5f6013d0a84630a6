"""Abstract quantum-circuit specifications, generators and partitioning.

The paper abstracts each job's circuit to its resource footprint: number of
qubits, depth, shots and single-/two-qubit gate counts (§7: "the gate sets
used in these jobs are abstracted to the number of single-qubit and two-qubit
gates, without specifying explicit gate types").  This subpackage provides:

* :class:`~repro.circuits.circuit.CircuitSpec` — the abstract circuit,
* :mod:`~repro.circuits.generators` — synthetic circuit generators (random
  circuits matching the case-study distribution, GHZ and QAOA-like shapes),
* :mod:`~repro.circuits.partition` — qubit partitioning across devices
  (even, capacity-greedy, proportional and weight-normalised splits used by
  the allocation strategies of §5).
"""

from repro.circuits.circuit import CircuitSpec
from repro.circuits.generators import (
    ghz_spec,
    qaoa_spec,
    random_circuit_spec,
)
from repro.circuits.partition import (
    allocation_from_weights,
    allocation_from_weights_batch,
    partition_even,
    partition_greedy_fill,
    partition_proportional,
    validate_allocation,
)

__all__ = [
    "CircuitSpec",
    "allocation_from_weights",
    "allocation_from_weights_batch",
    "ghz_spec",
    "partition_even",
    "partition_greedy_fill",
    "partition_proportional",
    "qaoa_spec",
    "random_circuit_spec",
    "validate_allocation",
]
