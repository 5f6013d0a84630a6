"""repro — Reproduction of "Adaptive Job Scheduling in Quantum Clouds Using
Reinforcement Learning" (ICPP 2025).

The package is organised bottom-up:

* **Substrates** — :mod:`repro.des` (discrete-event simulation kernel),
  :mod:`repro.gymapi` (Gymnasium-style environment API), :mod:`repro.rl`
  (pure-NumPy PPO), :mod:`repro.hardware` (coupling maps, calibration data,
  device catalogue), :mod:`repro.circuits` (abstract circuits and
  partitioning), :mod:`repro.metrics` (error score, timing, fidelity,
  aggregation).
* **Framework** — :mod:`repro.cloud` (QCloudSimEnv, QCloud, QDevice, Broker,
  the FlatDispatcher that feeds every run, JobRecordsManager),
  :mod:`repro.scheduling` (the four
  allocation strategies plus baselines), :mod:`repro.dynamics`
  (non-stationary scenarios: calibration drift, outages/maintenance, traffic
  shaping, deterministic trace record/replay) and :mod:`repro.serve` (the
  multi-tenant QoS layer: tenants with priority classes and SLOs, admission
  control, preemptive weighted-fair dispatch, per-tenant SLO accounting).
* **Experiments** — :mod:`repro.engine` (the parallel experiment engine:
  declarative strategy × seed × config grids, serial/process-pool execution,
  content-keyed result caching), :mod:`repro.rlenv` (the allocation MDP and
  PPO training), :mod:`repro.workloads` (named workloads, arrival models
  and the builder that splits one workload over tenants or regions) and
  :mod:`repro.analysis` (case-study runners, tables, histograms, training
  curves — all thin fronts over the engine).

Quick start
-----------
>>> from repro.cloud import QCloudSimEnv, SimulationConfig
>>> env = QCloudSimEnv(SimulationConfig(policy="speed", num_jobs=10))
>>> records = env.run_until_complete()
>>> summary = env.summary()

Multi-strategy / multi-seed experiments run through the engine::

    from repro.engine import ExperimentRunner, ExperimentSpec
    spec = ExperimentSpec(base_config=SimulationConfig(num_jobs=100),
                          strategies=("speed", "fidelity", "fair"),
                          replicates=4)
    result = ExperimentRunner(backend="process").run(spec)
"""

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "analysis",
    "circuits",
    "cloud",
    "des",
    "dynamics",
    "engine",
    "gymapi",
    "hardware",
    "metrics",
    "rl",
    "rlenv",
    "scheduling",
    "serve",
    "workloads",
]
