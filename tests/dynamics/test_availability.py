"""Outages and maintenance: offline planning, kills, requeues, recovery."""

import numpy as np
import pytest

from repro.circuits.generators import random_circuit_spec
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.qjob import QJob
from repro.dynamics import MaintenanceWindow, OutageSpec, Scenario
from tests.timeline import timeline


def _job(job_id, num_qubits, arrival_time=0.0):
    rng = np.random.default_rng(job_id)
    circuit = random_circuit_spec(rng, qubit_range=(num_qubits, num_qubits))
    return QJob(job_id=job_id, circuit=circuit, arrival_time=arrival_time)


def _profiles():
    from repro.hardware.backends import get_device_profile

    return [get_device_profile("ibm_strasbourg"), get_device_profile("ibm_kyiv")]


def _two_device_env(scenario, jobs, policy="speed"):
    return QCloudSimEnv(
        SimulationConfig(num_jobs=len(jobs), policy=policy),
        devices=_profiles(),
        jobs=jobs,
        scenario=scenario,
    )


class TestMaintenance:
    def test_graceful_window_diverts_new_jobs(self):
        # speed prefers ibm_strasbourg (220k CLOPS); a window covering the
        # second job's arrival must divert it to ibm_kyiv.
        scenario = Scenario(
            name="maint",
            maintenance=(MaintenanceWindow(start=1.0, duration=100_000.0,
                                           device="ibm_strasbourg"),),
        )
        jobs = [_job(0, 100, arrival_time=0.0), _job(1, 100, arrival_time=500.0)]
        env = _two_device_env(scenario, jobs)
        records = env.run_until_complete()
        assert records[0].devices == ["ibm_strasbourg"]  # started before the window
        assert records[1].devices == ["ibm_kyiv"]
        assert records[0].retries == 0  # graceful window drains running work

    def test_fleet_wide_window_blocks_everything(self):
        scenario = Scenario(
            name="fleet-maint",
            maintenance=(MaintenanceWindow(start=1.0, duration=300.0, device=None),),
        )
        jobs = [_job(0, 100, arrival_time=10.0)]
        env = _two_device_env(scenario, jobs)
        records = env.run_until_complete()
        # The job cannot start until the fleet comes back at t=301.
        assert records[0].start_time >= 301.0

    def test_killing_window_requeues_in_flight_job(self):
        scenario = Scenario(
            name="kill",
            maintenance=(MaintenanceWindow(start=1.0, duration=100_000.0,
                                           device="ibm_strasbourg", kill_running=True),),
        )
        jobs = [_job(0, 100, arrival_time=0.0)]
        env = _two_device_env(scenario, jobs)
        records = env.run_until_complete()
        record = records[0]
        assert record.retries == 1
        assert record.devices == ["ibm_kyiv"]
        requeues = [e for e in env.records.events if e.event == "requeue"]
        assert len(requeues) == 1
        strasbourg = env.cloud.device("ibm_strasbourg")
        assert strasbourg.aborted_subjobs == 1
        assert strasbourg.outage_count == 1
        # Reservations were rolled back when the job was requeued.
        assert strasbourg.free_qubits == strasbourg.num_qubits

    def test_split_job_requeued_when_one_device_dies(self):
        # 200 qubits forces a 2-device split; killing one device mid-run
        # requeues the whole job even though the sibling fragment survived.
        # The requeued job cannot fit on ibm_kyiv alone, so it waits for the
        # maintenance window to end and only then re-plans across both.
        scenario = Scenario(
            name="split-kill",
            maintenance=(MaintenanceWindow(start=1.0, duration=5000.0,
                                           device="ibm_strasbourg", kill_running=True),),
        )
        jobs = [_job(0, 200, arrival_time=0.0)]
        env = _two_device_env(scenario, jobs)
        records = env.run_until_complete()
        assert len(records) == 1
        assert records[0].retries == 1
        assert records[0].start_time >= 5001.0
        assert sorted(records[0].devices) == ["ibm_kyiv", "ibm_strasbourg"]

    def test_device_utilization_report_counts_outages(self):
        scenario = Scenario(
            name="report",
            maintenance=(MaintenanceWindow(start=1.0, duration=10.0, device="ibm_kyiv"),),
        )
        env = _two_device_env(scenario, [_job(0, 50)])
        env.run_until_complete()
        report = env.device_utilization_report()
        assert report["ibm_kyiv"]["outages"] == 1

    def test_overlapping_window_is_deferred_to_the_previous_end(self):
        # The second window opens inside the first: it starts when the first
        # ends and still runs for its full duration.
        scenario = Scenario(
            name="overlap",
            maintenance=(MaintenanceWindow(start=1.0, duration=100.0, device="ibm_kyiv"),
                         MaintenanceWindow(start=50.0, duration=20.0, device="ibm_kyiv")),
        )
        env = _two_device_env(scenario, [_job(0, 50, arrival_time=500.0)])
        env.run_until_complete()
        applied = [(e.time, e.kind) for e in env.scenario_engine.applied_events]
        assert applied == [(1.0, "offline"), (101.0, "online"),
                           (101.0, "offline"), (121.0, "online")]

    def test_back_to_back_windows_keep_their_starts(self):
        # A window starting exactly when the previous one ends is not shifted.
        scenario = Scenario(
            name="back-to-back",
            maintenance=(MaintenanceWindow(start=1.0, duration=10.0, device="ibm_kyiv"),
                         MaintenanceWindow(start=11.0, duration=5.0,
                                           device="ibm_strasbourg")),
        )
        env = _two_device_env(scenario, [_job(0, 50, arrival_time=500.0)])
        env.run_until_complete()
        applied = [(e.time, e.kind, e.device) for e in env.scenario_engine.applied_events]
        assert applied == [(1.0, "offline", "ibm_kyiv"), (11.0, "online", "ibm_kyiv"),
                           (11.0, "offline", "ibm_strasbourg"),
                           (16.0, "online", "ibm_strasbourg")]


class TestOutages:
    def test_outage_requeue_completes_on_recovery(self):
        # Single-device fleet: the outage kills the job, nothing else can run
        # it, and it must wait for the recovery signal to re-plan.
        from repro.hardware.backends import get_device_profile

        scenario = Scenario(
            name="solo-outage", outages=OutageSpec(mtbf=200.0, mttr=500.0), seed=4
        )
        env = QCloudSimEnv(
            SimulationConfig(num_jobs=1, policy="speed"),
            devices=[get_device_profile("ibm_kyiv")],
            jobs=[_job(0, 100)],
            scenario=scenario,
        )
        records = env.run_until_complete()
        offline = [e for e in env.scenario_engine.applied_events if e.kind == "offline"]
        if offline:  # outage actually hit the job's execution window
            assert records[0].retries >= 1
        assert len(records) == 1

    def test_flaky_fleet_preset_completes_all_jobs(self):
        env = QCloudSimEnv(SimulationConfig(num_jobs=25, policy="fair", scenario="flaky-fleet"))
        records = env.run_until_complete()
        assert len(records) + len(env.broker.failed_jobs) == 25
        assert len(records) == 25  # the fleet heals, so everything completes

    def test_offline_devices_excluded_from_planning(self):
        env = _two_device_env(None, [_job(0, 100, arrival_time=100.0)])
        env.cloud.device("ibm_strasbourg").set_offline()
        records = env.run_until_complete()
        assert records[0].devices == ["ibm_kyiv"]

    def test_set_offline_online_signal(self):
        env = _two_device_env(None, [_job(0, 50)])
        device = env.cloud.device("ibm_kyiv")
        assert device.set_offline() is True
        assert device.set_offline() is False  # idempotent
        assert device.set_online() is True
        assert device.set_online() is False
        assert device.outage_count == 1

    def test_overlapping_causes_do_not_cancel_each_other(self):
        """An outage that repairs inside a maintenance window must not bring
        the device back early: each offline cause clears independently."""
        env = _two_device_env(None, [_job(0, 50)])
        device = env.cloud.device("ibm_kyiv")
        assert device.set_offline(cause="maintenance") is True
        assert device.set_offline(cause="outage") is False  # already offline
        assert device.set_online("outage") is False          # maintenance persists
        assert not device.online
        assert device.set_online("maintenance") is True      # last cause cleared
        assert device.online
        assert device.outage_count == 1  # one offline transition

    def test_outage_during_maintenance_window_end_to_end(self):
        """The flaky-fleet shape: a stochastic outage overlapping a window
        keeps the device offline until the *window* ends."""
        scenario = Scenario(
            name="overlap",
            maintenance=(MaintenanceWindow(start=10.0, duration=2000.0,
                                           device="ibm_strasbourg"),),
            outages=OutageSpec(mtbf=100.0, mttr=20.0, devices=("ibm_strasbourg",)),
            seed=2,
        )
        jobs = [_job(0, 100, arrival_time=50.0)]
        env = _two_device_env(scenario, jobs)
        records = env.run_until_complete()
        # The job arrived inside the window, so it ran on the healthy device.
        assert records[0].devices == ["ibm_kyiv"]
        events = [e for e in env.scenario_engine.applied_events
                  if e.device == "ibm_strasbourg"]
        # Outages did overlap the window (otherwise this test is vacuous) ...
        assert any(e.source.startswith("outage") and e.time < 2010.0 for e in events)
        # ... yet replaying the cause transitions shows the device stayed
        # offline from window start to window end, outage repairs included.
        causes = set()
        for event in events:
            if event.kind == "offline":
                causes.add(event.payload["cause"])
            elif event.kind == "online":
                causes.discard(event.payload["cause"])
            if 10.0 <= event.time < 2010.0:
                assert "maintenance" in causes, f"window broken at t={event.time}"

    def test_kills_follow_start_order(self):
        # Eight 10-qubit jobs start on one device in arrival order; one kill
        # aborts them all, and they are requeued in that start order.
        from repro.hardware.backends import get_device_profile

        jobs = [_job(tag, 10, arrival_time=0.1 * tag) for tag in range(8)]
        env = QCloudSimEnv(
            SimulationConfig(num_jobs=8, max_requeues=0),
            devices=[get_device_profile("ibm_kyiv")],
            jobs=jobs,
        )
        device = env.cloud.device("ibm_kyiv")

        timeline(env, (1.0, lambda: device.set_offline(kill_running=True)))
        env.run()
        starts = [e.job_id for e in env.records.events if e.event == "start"]
        failed = [e.job_id for e in env.records.events if e.event == "failed"]
        assert starts == list(range(8))
        assert failed == starts
        assert device.aborted_subjobs == 8

    @pytest.mark.parametrize("policy", ["speed", "fair"])
    def test_killing_outages_replay_identically_in_one_process(self, policy):
        """Two runs of one seed in one process agree even when an outage
        kills several sub-jobs at once: kills follow start order, not object
        addresses."""

        def run():
            env = QCloudSimEnv(SimulationConfig(
                num_jobs=120, seed=0, policy=policy, scenario="flaky-fleet",
                qubit_range=(20, 90), arrival="poisson", arrival_rate=0.05,
            ))
            env.run_until_complete()
            events = [(e.job_id, e.event, e.time, e.detail) for e in env.records.events]
            return env, events, [r.as_dict() for r in env.records.completed_records]

        first = run()
        second = run()  # the first run stays alive, so objects land elsewhere
        requeue_times = [e[2] for e in first[1] if e[1] == "requeue"]
        # Some outage killed more than one sub-job at once.
        assert len(requeue_times) > len(set(requeue_times))
        assert second[1] == first[1]
        assert second[2] == first[2]


class TestUserCodeAvailability:
    """Availability changes made by user code (not a scenario).  Their full
    outputs are pinned in the records corpus (``availability/*``)."""

    def test_graceful_offline_mid_run(self):
        def run():
            jobs = [_job(0, 100, arrival_time=0.0), _job(1, 100, arrival_time=500.0),
                    _job(2, 100, arrival_time=50_000.0)]
            env = _two_device_env(None, jobs)
            strasbourg = env.cloud.device("ibm_strasbourg")

            timeline(env, (100.0, lambda: strasbourg.set_offline(kill_running=False)),
                     (1_000.0, strasbourg.set_online))
            records = env.run_until_complete()
            return [r.as_dict() for r in records]

        devices = {r["job_id"]: r["devices"] for r in run()}
        assert devices == {0: "ibm_strasbourg", 1: "ibm_kyiv", 2: "ibm_strasbourg"}

    @pytest.mark.parametrize("checkpointing", [False, True], ids=["restart", "checkpoint"])
    @pytest.mark.parametrize("num_qubits", [100, 200], ids=["unsplit", "split"])
    def test_kill_requeues(self, num_qubits, checkpointing):
        # 100 qubits run on ibm_strasbourg alone; 200 split over both
        # devices.  A user-code kill mid-run aborts the attempt, which
        # requeues the job (and resumes it under checkpointing).
        def run():
            jobs = [_job(0, num_qubits), _job(1, 60, arrival_time=0.5)]
            env = QCloudSimEnv(
                SimulationConfig(num_jobs=len(jobs), checkpointing=checkpointing),
                devices=_profiles(), jobs=jobs,
            )
            strasbourg = env.cloud.device("ibm_strasbourg")

            def back():
                strasbourg.set_online()
                env.cloud.signal_capacity_change()

            timeline(env, (1.0, lambda: strasbourg.set_offline(kill_running=True)),
                     (50.0, back))
            records = env.run_until_complete()
            events = [(e.job_id, e.event, e.time, e.detail) for e in env.records.events]
            return [r.as_dict() for r in records], events, env.device_utilization_report()

        records, events, devices = run()
        job0 = next(r for r in records if r["job_id"] == 0)
        assert job0["retries"] == 1
        assert devices["ibm_strasbourg"]["aborted_subjobs"] >= 1
        assert all(stats["free_qubits"] == 127 for stats in devices.values())
        kinds = [e[1] for e in events if e[0] == 0]
        assert "requeue" in kinds
        assert ("resume" in kinds) == checkpointing

    def test_failed_attempt_wakes_blocked_head(self):
        # A 200-qubit job splits over both devices; a 100-qubit job arrives
        # behind it and is blocked (54 qubits free).  A kill on one device
        # aborts the split job, which fails at max_requeues=0 once its
        # surviving fragment ends.  The released qubits must wake the
        # blocked head, not only on a requeue.
        def run():
            jobs = [_job(0, 200), _job(1, 100, arrival_time=0.5)]
            env = QCloudSimEnv(
                SimulationConfig(num_jobs=len(jobs), max_requeues=0),
                devices=_profiles(), jobs=jobs,
            )

            strasbourg = env.cloud.device("ibm_strasbourg")
            timeline(env, (1.0, lambda: strasbourg.set_offline(kill_running=True)))
            records = env.run_until_complete()
            failed = [j.job_id for j in env.broker.failed_jobs]
            return [r.as_dict() for r in records], failed

        records, failed = run()
        assert failed == [0]
        assert [r["job_id"] for r in records] == [1]
        assert records[0]["devices"] == "ibm_kyiv"

    def test_blocked_head_wakes_on_capacity_signal(self):
        # A device is offline when three jobs too wide for the remaining
        # fleet arrive; it returns at t=100 through set_online() plus the
        # capacity signal ScenarioEngine.apply sends.  The blocked head
        # must re-plan on that signal.
        def run():
            jobs = [_job(i, 560 + 20 * i, arrival_time=10.0) for i in range(3)]
            env = QCloudSimEnv(SimulationConfig(num_jobs=3), jobs=jobs)
            device = env.cloud.devices[0]
            device.set_offline(kill_running=False)

            def recover():
                device.set_online()
                env.cloud.signal_capacity_change()

            timeline(env, (100.0, recover))
            records = env.run_until_complete()
            return [r.as_dict() for r in records], env.broker.unended

        records, unended = run()
        assert len(records) == 3 and unended == 0
        assert all(r["start_time"] >= 100.0 for r in records)

    def test_run_until_complete_reports_jobs_that_never_end(self):
        # Two devices leave for good while three of four wide jobs wait:
        # the queue drains with those three never ended.
        jobs = [_job(i, 400 + 30 * i) for i in range(4)]
        env = QCloudSimEnv(SimulationConfig(num_jobs=4, policy="speed"), jobs=jobs)

        def leave():
            env.cloud.devices[0].set_offline(kill_running=False)
            env.cloud.devices[1].set_offline(kill_running=False)

        timeline(env, (0.5, leave))
        with pytest.raises(RuntimeError, match="3 job"):
            env.run_until_complete()
        assert env.broker.unended == 3
