"""Performance metrics of the paper (§5.4 and §6).

* :mod:`repro.metrics.error_score` — calibration-derived device error score,
  Eq. (2),
* :mod:`repro.metrics.timing` — CLOPS/QV execution-time model (Eq. 3) and
  classical communication overhead (Eq. 9),
* :mod:`repro.metrics.fidelity` — single-/two-qubit/readout fidelities
  (Eqs. 4-6), their per-device product (Eq. 7, :class:`FidelityBreakdown`)
  and the inter-device communication penalty (Eq. 8),
* :mod:`repro.metrics.aggregate` — aggregation of job records into the rows
  of Table 2.
"""

from repro.metrics.aggregate import (
    StrategySummary,
    empty_summary,
    summarize_records,
)
from repro.metrics.error_score import ErrorScoreWeights, error_score, error_score_from_averages
from repro.metrics.fidelity import (
    FidelityBreakdown,
    communication_penalty,
    final_fidelity,
    merge_segment_fidelities,
    readout_fidelity,
    single_qubit_fidelity,
    two_qubit_fidelity,
)
from repro.metrics.timing import (
    communication_time,
    execution_time,
    processing_time_minutes,
)

__all__ = [
    "ErrorScoreWeights",
    "FidelityBreakdown",
    "StrategySummary",
    "communication_penalty",
    "communication_time",
    "empty_summary",
    "error_score",
    "error_score_from_averages",
    "execution_time",
    "final_fidelity",
    "merge_segment_fidelities",
    "processing_time_minutes",
    "readout_fidelity",
    "single_qubit_fidelity",
    "summarize_records",
    "two_qubit_fidelity",
]
