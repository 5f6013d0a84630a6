"""The top-level quantum-cloud simulation environment (paper §3, ``QCloudSimEnv``).

``QCloudSimEnv`` extends the DES :class:`~repro.des.environment.Environment`
and wires together the fleet (:class:`~repro.cloud.qcloud.QCloud`), the
broker, the dispatch engine (:class:`~repro.cloud.fastpath.FlatDispatcher`)
and the records manager, so that a complete simulation is three lines::

    env = QCloudSimEnv(config)           # or pass devices/jobs/policy explicitly
    env.run_until_complete()
    summary = env.summary()

Non-stationary runs add one knob: a scenario (named preset, a
:class:`~repro.dynamics.Scenario` instance, or a recorded ``.jsonl`` trace)
injects calibration drift, outages and traffic shaping through the
:class:`~repro.dynamics.ScenarioEngine`; see :mod:`repro.dynamics`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.cloud.broker import Broker
from repro.cloud.communication import ClassicalCommunicationModel
from repro.cloud.config import SimulationConfig
from repro.cloud.qcloud import QCloud
from repro.cloud.qjob import QJob
from repro.cloud.records import JobRecord, JobRecordsManager
from repro.des.environment import Environment
from repro.hardware.backends import build_default_fleet, get_device_profile
from repro.metrics.aggregate import StrategySummary, summarize_records
from repro.registry import AXES_BY_FIELD
from repro.workloads.split import config_jobs

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
    job_table:
        A :class:`~repro.cloud.fastpath.JobTable` as the workload, with any
        scenario.  With a tenant mix the table must carry its jobs
        (:meth:`~repro.cloud.fastpath.JobTable.from_jobs`), whose tenant
        tags it needs: a streaming table (the bulk form that never
        materialises per-job objects) raises ``ValueError``.  Mutually
        exclusive with ``jobs``.
    adaptive:
        Adaptive QoS policy: a registered preset name (``"static"``,
        ``"reactive"``, ``"predictive"``) or an
        :class:`~repro.adaptive.AdaptivePolicySpec` instance (overrides
        ``config.adaptive``).  A non-static policy attaches the
        closed-loop control plane (:class:`~repro.adaptive.AdaptiveEngine`)
        to the broker; ``None`` and the ``static`` preset are byte-identical
        to an open-loop run.
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
        job_table: Optional[Any] = None,
        adaptive: Optional[Any] = None,
    ) -> None:
        super().__init__()
        self.config = config if config is not None else SimulationConfig()

        # -- named axes: an argument overrides its config field; each registry
        # is imported only when its axis is in use.
        def resolve(field: str, ref: Any) -> Any:
            ref = ref if ref is not None else getattr(self.config, field)
            return None if ref is None else AXES_BY_FIELD[field].registry.resolve(ref)

        #: The resolved scenario (or ``None`` for a plain static run).
        self.scenario = resolve("scenario", scenario)
        #: The resolved tenant mix (or ``None`` for a plain single-queue run).
        self.tenant_mix = resolve("tenants", tenants)
        #: The resolved adaptive policy spec (or ``None`` for open-loop runs).
        self.adaptive_policy = resolve("adaptive", adaptive)

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
        if job_table is not None and self.tenant_mix is not None:
            if job_table.jobs is None:
                raise ValueError(
                    "a tenant mix needs each job's tenant tag, and a streaming JobTable "
                    "has no jobs; build the table with JobTable.from_jobs(...)"
                )
            # The table's jobs carry the tenant tags: run them as a job list.
            jobs, job_table = job_table.jobs, None

        explicit_jobs = jobs is not None
        if jobs is None and job_table is None:
            jobs = self._default_jobs()
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
        from repro.cloud.fastpath import FlatDispatcher, JobTable

        table = job_table if job_table is not None else JobTable.from_jobs(jobs)
        #: The dispatch engine: feeds the workload to the broker and runs it.
        self.job_generator = FlatDispatcher(self, self.broker, table)

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

        self.broker.expect(len(self.job_generator))
        self.job_generator.start()

    def _default_jobs(self) -> List[QJob]:
        """The workload the config, scenario and tenant mix describe.

        A replay scenario brings its recorded jobs and a traffic scenario
        generates them from its arrival model; a tenant mix then decides
        whose jobs they are.  Without scenario jobs, a tenant mix that shapes
        the workload builds its own, and every other run gets the config's
        default workload.
        """
        config, scenario, mix = self.config, self.scenario, self.tenant_mix
        jobs = None
        if scenario is not None and scenario.replay_jobs is not None:
            jobs = [job.clone() for job in scenario.replay_jobs]
        elif scenario is not None and scenario.traffic is not None:
            from repro.engine.spec import derive_seed

            seed = derive_seed(config.seed, "scenario-traffic", scenario.name, scenario.seed)
            jobs = config_jobs(config, config.num_jobs, seed, traffic=scenario.traffic)
        if mix is not None:
            from repro.serve import route_jobs_to_tenants, tenant_jobs

            if jobs is not None:
                return route_jobs_to_tenants(jobs, mix, config.seed)
            jobs = tenant_jobs(mix, config)
        if jobs is None:
            jobs = config_jobs(config, config.num_jobs, config.seed)
        return jobs

    # -- running -----------------------------------------------------------------
    def run_until_complete(self) -> List[JobRecord]:
        """Run the simulation until every job has been processed.

        Returns the completed job records (failed jobs are excluded; they are
        listed in ``broker.failed_jobs``).

        Perpetual event sources (scenario drift and stochastic outages, the
        adaptive control loop) keep the event queue populated forever, so
        those runs stop on the broker's ``all_ended`` event, which succeeds
        when the last job completes, fails or is rejected; other runs drain
        the queue, and raise ``RuntimeError`` if it drains while some job
        has not ended (e.g. it waits for a device that never comes back).
        """
        perpetual = (
            self.scenario_engine is not None and self.scenario_engine.perpetual
        ) or (self.adaptive_engine is not None and self.adaptive_engine.perpetual)
        if perpetual:
            self.run(until=self.broker.all_ended)
        else:
            self.run()
            if self.broker.unended:
                raise RuntimeError(
                    f"the event queue drained at t={self.now} with "
                    f"{self.broker.unended} job(s) never ended"
                )
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
