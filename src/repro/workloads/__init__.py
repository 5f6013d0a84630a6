"""Named workloads and arrival models used by the examples and benchmarks.

Synthetic workloads (:mod:`repro.workloads.synthetic`):

* :func:`~repro.workloads.synthetic.ghz_sweep_jobs` — GHZ-state preparation
  circuits of increasing width,
* :func:`~repro.workloads.synthetic.qaoa_portfolio_jobs` — a batch of QAOA
  portfolio-optimisation-style circuits,
* :func:`~repro.workloads.synthetic.mixed_tenant_jobs` — a mixed multi-tenant
  trace combining the above with Poisson arrivals.

Non-stationary arrival models (:mod:`repro.workloads.arrivals`, used by the
scenario subsystem's traffic shaping — see :mod:`repro.dynamics`):

* :func:`~repro.workloads.arrivals.mmpp_arrival_times` — two-state
  Markov-modulated Poisson bursts,
* :func:`~repro.workloads.arrivals.diurnal_arrival_times` — sinusoidal-rate
  nonhomogeneous Poisson arrivals (sampled by thinning),
* :func:`~repro.workloads.arrivals.bulk_diurnal_arrival_times` — the chunked
  vectorised form for million-arrival traces,
* :func:`~repro.workloads.arrivals.heavy_tail_qubit_sizes` — Pareto-tailed
  job sizes,
* :func:`~repro.workloads.arrivals.generate_traffic_jobs` — a full workload
  from a :class:`~repro.dynamics.TrafficSpec`.

Share-split workloads (:mod:`repro.workloads.split`, the one builder behind
tenant mixes, region topologies and scenario traffic):

* :func:`~repro.workloads.split.apportion` — a job count split over weights
  (largest remainder),
* :func:`~repro.workloads.split.split_workload` — each part's jobs generated,
  merged in arrival order and renumbered,
* :func:`~repro.workloads.split.draw_parts` — an existing workload attributed
  to parts by one seeded weighted draw per job,
* :func:`~repro.workloads.split.config_jobs` — the jobs a
  :class:`~repro.cloud.config.SimulationConfig` describes, optionally shaped
  by a traffic spec and range overrides.
"""

from repro.workloads.arrivals import (
    bulk_diurnal_arrival_times,
    diurnal_arrival_times,
    generate_traffic_jobs,
    heavy_tail_qubit_sizes,
    mmpp_arrival_times,
)
from repro.workloads.synthetic import (
    ghz_sweep_jobs,
    mixed_tenant_jobs,
    qaoa_portfolio_jobs,
)

__all__ = [
    "bulk_diurnal_arrival_times",
    "diurnal_arrival_times",
    "generate_traffic_jobs",
    "ghz_sweep_jobs",
    "heavy_tail_qubit_sizes",
    "mixed_tenant_jobs",
    "mmpp_arrival_times",
    "qaoa_portfolio_jobs",
]
