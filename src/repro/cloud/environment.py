"""The top-level quantum-cloud simulation environment (paper §3, ``QCloudSimEnv``).

``QCloudSimEnv`` extends the DES :class:`~repro.des.environment.Environment`
and wires together the fleet (:class:`~repro.cloud.qcloud.QCloud`), the
broker, the job generator and the records manager, so that a complete
simulation is three lines::

    env = QCloudSimEnv(config)           # or pass devices/jobs/policy explicitly
    env.run_until_complete()
    summary = env.summary()

Non-stationary runs add one knob: a scenario (named preset, a
:class:`~repro.dynamics.Scenario` instance, or a recorded ``.jsonl`` trace)
injects calibration drift, outages and traffic shaping through the
:class:`~repro.dynamics.ScenarioEngine`; see :mod:`repro.dynamics`.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence

from repro.cloud.broker import Broker
from repro.cloud.communication import ClassicalCommunicationModel
from repro.cloud.config import SimulationConfig
from repro.cloud.job_generator import JobGenerator, generate_synthetic_jobs
from repro.cloud.qcloud import QCloud
from repro.cloud.qjob import QJob
from repro.cloud.records import JobRecord, JobRecordsManager
from repro.des.environment import Environment
from repro.hardware.backends import build_default_fleet, get_device_profile
from repro.metrics.aggregate import StrategySummary, summarize_records

__all__ = ["QCloudSimEnv"]


class QCloudSimEnv(Environment):
    """A ready-to-run quantum-cloud simulation.

    There are two ways to construct one:

    * from a :class:`~repro.cloud.config.SimulationConfig` (synthetic
      workload, catalogue devices, policy by name), or
    * by passing ``devices``, ``jobs`` and a ``policy`` instance explicitly
      (full control, used by the tests and by custom experiments).

    Parameters
    ----------
    config:
        Simulation configuration; used for any component not given explicitly.
    devices:
        Device profiles or device instances (overrides ``config.device_names``).
    jobs:
        Explicit job list (overrides the synthetic workload).
    policy:
        Policy instance (overrides ``config.policy``).  Required when the
        configured policy is ``"rlbase"`` (a trained model must be supplied).
    scenario:
        World-dynamics scenario: a registered preset name, a ``.jsonl`` trace
        path, or a :class:`~repro.dynamics.Scenario` instance (overrides
        ``config.scenario``).  ``None`` with no configured scenario keeps the
        static world — and is byte-identical to the ``"static"`` preset.
    tenants:
        Multi-tenant mix: a registered preset name or a
        :class:`~repro.serve.TenantMix` instance (overrides
        ``config.tenants``).  Selecting a mix swaps the plain broker for the
        :class:`~repro.serve.ServeBroker` (admission control, fair-share
        dispatch, preemption) and shapes the workload from the tenants'
        traffic specs; the ``single`` preset stays byte-identical to a plain
        run.
    records:
        Records manager (overrides the default in-memory
        :class:`~repro.cloud.records.JobRecordsManager`).  Pass a
        :class:`~repro.cloud.records_stream.StreamingRecordsManager` for
        O(1)-memory million-job runs.
    fast_path:
        Engine override.  By default (``None``) the engine follows the
        configuration: the flat-event dispatcher (:mod:`repro.cloud.fastpath`)
        drives every run that :func:`~repro.cloud.fastpath.flat_path_eligible`
        accepts, and the per-job broker processes drive everything else.
        ``False`` forces the per-job engine (the reference for identity tests
        and benchmark baselines); ``True`` demands the flat engine and raises
        ``ValueError`` on an ineligible configuration.  Both engines give
        byte-identical results; :attr:`fast_path_active` reports which ran.
    job_table:
        A :class:`~repro.cloud.fastpath.JobTable` as the workload — the
        streaming bulk form that never materialises per-job objects.
        Requires an eligible configuration (raises ``ValueError`` otherwise)
        and the flat engine.  Mutually exclusive with ``jobs``.
    adaptive:
        Adaptive QoS policy: a registered preset name (``"static"``,
        ``"reactive"``, ``"predictive"``) or an
        :class:`~repro.adaptive.AdaptivePolicySpec` instance (overrides
        ``config.adaptive``).  A non-static policy attaches the
        closed-loop control plane (:class:`~repro.adaptive.AdaptiveEngine`)
        to the broker; ``None`` and the ``static`` preset are byte-identical
        to the open-loop engine.
    """

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        devices: Optional[Sequence[object]] = None,
        jobs: Optional[Sequence[QJob]] = None,
        policy: Optional[Any] = None,
        scenario: Optional[Any] = None,
        tenants: Optional[Any] = None,
        records: Optional[JobRecordsManager] = None,
        fast_path: Optional[bool] = None,
        job_table: Optional[Any] = None,
        adaptive: Optional[Any] = None,
    ) -> None:
        super().__init__()
        self.config = config if config is not None else SimulationConfig()

        # -- scenario ----------------------------------------------------------
        if scenario is None and self.config.scenario is not None:
            scenario = self.config.scenario
        if isinstance(scenario, str):
            from repro.dynamics import resolve_scenario

            scenario = resolve_scenario(scenario)
        #: The resolved scenario (or ``None`` for a plain static run).
        self.scenario = scenario

        # -- tenants ------------------------------------------------------------
        if tenants is None and self.config.tenants is not None:
            tenants = self.config.tenants
        if isinstance(tenants, str):
            from repro.serve import resolve_tenant_mix

            tenants = resolve_tenant_mix(tenants)
        #: The resolved tenant mix (or ``None`` for a plain single-queue run).
        self.tenant_mix = tenants

        # -- adaptive QoS --------------------------------------------------------
        if adaptive is None and self.config.adaptive is not None:
            adaptive = self.config.adaptive
        if adaptive is not None:
            from repro.adaptive import resolve_adaptive_policy

            adaptive = resolve_adaptive_policy(adaptive)
        #: The resolved adaptive policy spec (or ``None`` for open-loop runs).
        self.adaptive_policy = adaptive

        # -- devices -----------------------------------------------------------
        if devices is None:
            devices = [
                get_device_profile(
                    name,
                    num_qubits=self.config.device_qubits,
                    quantum_volume=self.config.quantum_volume,
                )
                for name in self.config.device_names
            ]
        communication = ClassicalCommunicationModel(
            latency_per_qubit=self.config.comm_latency_per_qubit,
            fidelity_penalty=self.config.comm_fidelity_penalty,
            accounting=self.config.comm_accounting,
        )
        self.cloud = QCloud(self, devices, communication=communication)

        # -- policy --------------------------------------------------------------
        if policy is None:
            from repro.scheduling.registry import create_policy

            policy = create_policy(self.config.policy)
        self.policy = policy

        # -- records, broker, job source ----------------------------------------
        self.records = records if records is not None else JobRecordsManager()
        if self.tenant_mix is not None:
            from repro.serve import ServeBroker

            self.broker: Broker = ServeBroker(
                self,
                self.cloud,
                self.policy,
                self.records,
                tenants=self.tenant_mix,
                max_requeues=self.config.max_requeues,
                checkpointing=self.config.checkpointing,
            )
        else:
            self.broker = Broker(
                self,
                self.cloud,
                self.policy,
                self.records,
                max_requeues=self.config.max_requeues,
                checkpointing=self.config.checkpointing,
            )

        if job_table is not None and jobs is not None:
            raise ValueError("pass either jobs or job_table, not both")

        explicit_jobs = jobs is not None
        if jobs is None and job_table is None:
            if self.scenario is not None:
                from repro.dynamics import scenario_jobs

                jobs = scenario_jobs(self.scenario, self.config)
                if jobs is not None and self.tenant_mix is not None:
                    # Scenario traffic shaped the arrivals; the mix decides
                    # whose jobs they are.
                    from repro.serve import route_jobs_to_tenants

                    jobs = route_jobs_to_tenants(jobs, self.tenant_mix, self.config.seed)
            if jobs is None and self.tenant_mix is not None:
                from repro.serve import tenant_jobs

                jobs = tenant_jobs(self.tenant_mix, self.config)
            if jobs is None:
                jobs = generate_synthetic_jobs(
                    num_jobs=self.config.num_jobs,
                    seed=self.config.seed,
                    qubit_range=self.config.qubit_range,
                    depth_range=self.config.depth_range,
                    shots_range=self.config.shots_range,
                    two_qubit_density=self.config.two_qubit_density,
                    arrival=self.config.arrival,
                    arrival_rate=self.config.arrival_rate,
                )
        if (
            explicit_jobs
            and self.tenant_mix is not None
            and len(self.tenant_mix.tenants) > 1
            and all(job.tenant is None for job in jobs)
        ):
            # An explicitly supplied, fully untagged workload (e.g. a CSV
            # file) in a multi-tenant run: route it by tenant share like
            # scenario traffic, instead of silently attributing everything
            # to the default tenant.  Workloads carrying any tenant tag are
            # taken at face value.  Routing stamps *clones* so the caller's
            # job objects stay reusable with other mixes.
            from repro.serve import route_jobs_to_tenants

            jobs = route_jobs_to_tenants(
                [job.clone() for job in jobs], self.tenant_mix, self.config.seed
            )

        # -- dispatch engine -----------------------------------------------------
        from repro.cloud.fastpath import FlatDispatcher, JobTable, flat_path_eligible

        eligible = flat_path_eligible(
            self.broker, self.tenant_mix, self.scenario, self.adaptive_policy
        )
        if job_table is not None and fast_path is False:
            raise ValueError("job_table runs on the flat engine; it cannot take fast_path=False")
        if (job_table is not None or fast_path) and not eligible:
            raise ValueError(
                f"{'job_table' if job_table is not None else 'fast_path=True'} requires a "
                "fast-path-eligible configuration (plain broker, no tenant mix, no "
                "world dynamics, no active adaptive policy)"
            )
        #: Whether the flat-event dispatcher is driving this run.
        self.fast_path_active = eligible if fast_path is None else bool(fast_path)
        if self.fast_path_active:
            table = job_table if job_table is not None else JobTable.from_jobs(jobs)
            self.job_generator = FlatDispatcher(self, self.broker, table, records=self.records)
        else:
            self.job_generator = JobGenerator(self, self.broker, jobs, records=self.records)

        #: The world-dynamics runtime (``None`` for plain static runs).
        self.scenario_engine = None
        if self.scenario is not None:
            from repro.dynamics import ScenarioEngine

            self.scenario_engine = ScenarioEngine(self, self.scenario)
            self.scenario_engine.install()

        #: The adaptive-QoS runtime (``None`` when no adaptive policy is set;
        #: a static policy builds the engine but installs nothing).
        self.adaptive_engine = None
        if self.adaptive_policy is not None:
            from repro.adaptive import AdaptiveEngine

            self.adaptive_engine = AdaptiveEngine(self, self.adaptive_policy)
            self.adaptive_engine.install()

        self.job_generator.start()

    # -- running -----------------------------------------------------------------
    def _jobs_complete_watcher(self) -> Generator[object, object, None]:
        """DES process that finishes once every submitted job has finished."""
        yield self.job_generator.process
        yield self.job_generator.all_jobs_done()

    def run_until_complete(self) -> List[JobRecord]:
        """Run the simulation until every job has been processed.

        Returns the completed job records (failed jobs are excluded; they are
        listed in ``broker.failed_jobs``).

        Scenarios with perpetual event sources (drift, stochastic outages)
        keep the event queue populated forever, so those runs stop on an
        all-jobs-finished event instead of queue exhaustion; plain runs keep
        the historical drain-the-queue behaviour (byte-identical results).
        """
        perpetual = (
            self.scenario_engine is not None and self.scenario_engine.perpetual
        ) or (self.adaptive_engine is not None and self.adaptive_engine.perpetual)
        if perpetual:
            self.run(until=self.process(self._jobs_complete_watcher()))
        else:
            self.run()
        return self.records.completed_records

    # -- tracing -------------------------------------------------------------------
    def save_trace(self, path: str) -> str:
        """Dump the run's workload and applied world events to a JSONL trace.

        The trace replays deterministically via
        :func:`repro.dynamics.load_trace`; see :mod:`repro.dynamics.trace`.
        """
        from repro.dynamics import save_trace

        return save_trace(self, path)

    # -- results -------------------------------------------------------------------
    @property
    def completed_records(self) -> List[JobRecord]:
        """Records of all completed jobs so far."""
        return self.records.completed_records

    def summary(self, strategy: Optional[str] = None) -> StrategySummary:
        """Aggregate the completed jobs into one row of Table 2."""
        name = strategy if strategy is not None else getattr(self.policy, "name", "custom")
        return summarize_records(self.completed_records, strategy=name)

    def tenant_reports(self) -> list:
        """Per-tenant SLO reports (multi-tenant serving runs only).

        Raises ``RuntimeError`` when no tenant mix is configured — per-tenant
        accounting needs the serve broker's tenant attribution.
        """
        if self.tenant_mix is None:
            raise RuntimeError(
                "tenant_reports() needs a multi-tenant run; set SimulationConfig.tenants "
                "(e.g. 'single' or 'free-tier-vs-premium') or pass tenants=..."
            )
        return self.broker.tenant_reports()

    def adaptive_report(self) -> dict:
        """Control-plane snapshot (adaptive runs only).

        Raises ``RuntimeError`` when no adaptive policy is configured.
        """
        if self.adaptive_engine is None:
            raise RuntimeError(
                "adaptive_report() needs an adaptive run; set "
                "SimulationConfig.adaptive (e.g. 'reactive' or 'predictive') "
                "or pass adaptive=..."
            )
        return self.adaptive_engine.report()

    def device_utilization_report(self) -> dict:
        """Per-device execution statistics (sub-jobs completed, qubit-seconds)."""
        return {
            device.name: {
                "completed_subjobs": device.completed_subjobs,
                "busy_time": device.busy_time,
                "qubit_seconds": device.qubit_seconds,
                "free_qubits": device.free_qubits,
                "aborted_subjobs": device.aborted_subjobs,
                "outages": device.outage_count,
            }
            for device in self.cloud.devices
        }
