"""Experiment runners and result presentation.

* :mod:`repro.analysis.experiments` — high-level runners that reproduce the
  paper's case study (Table 2, Fig. 6) and the ablation studies,
* :mod:`repro.analysis.reporting` — plain-text rendering of the result
  tables,
* :mod:`repro.analysis.histogram` — histogram utilities and ASCII rendering
  for the fidelity distributions of Fig. 6,
* :mod:`repro.analysis.training_curve` — summarisation of the PPO training
  curve of Fig. 5.
"""

from repro.analysis.connectivity import ConnectivityAudit, audit_connectivity
from repro.analysis.experiments import (
    CaseStudyResult,
    run_case_study,
    run_policy_simulation,
    sweep_communication_penalty,
    sweep_error_score_weights,
)
from repro.analysis.histogram import ascii_histogram, fidelity_distributions
from repro.analysis.reporting import format_table2
from repro.analysis.training_curve import summarize_training_curve

__all__ = [
    "CaseStudyResult",
    "ConnectivityAudit",
    "ascii_histogram",
    "audit_connectivity",
    "fidelity_distributions",
    "format_table2",
    "run_case_study",
    "run_policy_simulation",
    "summarize_training_curve",
    "sweep_communication_penalty",
    "sweep_error_score_weights",
]
