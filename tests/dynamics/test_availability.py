"""Outages and maintenance: offline planning, kills, requeues, recovery."""

import numpy as np
import pytest

from repro.circuits.generators import random_circuit_spec
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.cloud.qjob import QJob
from repro.dynamics import MaintenanceWindow, OutageSpec, Scenario


def _job(job_id, num_qubits, arrival_time=0.0):
    rng = np.random.default_rng(job_id)
    circuit = random_circuit_spec(rng, qubit_range=(num_qubits, num_qubits))
    return QJob(job_id=job_id, circuit=circuit, arrival_time=arrival_time)


def _profiles():
    from repro.hardware.backends import get_device_profile

    return [get_device_profile("ibm_strasbourg"), get_device_profile("ibm_kyiv")]


def _two_device_env(scenario, jobs, policy="speed", fast_path=None):
    return QCloudSimEnv(
        SimulationConfig(num_jobs=len(jobs), policy=policy),
        devices=_profiles(),
        jobs=jobs,
        scenario=scenario,
        fast_path=fast_path,
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
        from repro.hardware.backends import get_device_profile

        env = QCloudSimEnv(
            SimulationConfig(num_jobs=1),
            devices=[get_device_profile("ibm_kyiv")],
            jobs=[_job(0, 10, arrival_time=1e9)],
        )
        device = env.cloud.device("ibm_kyiv")
        aborted = []

        def run(tag):
            result = yield env.process(device.execute(_job(tag, 10).circuit))
            assert result.aborted
            aborted.append(tag)

        for tag in range(8):
            env.process(run(tag))

        def outage():
            yield env.timeout(1.0)
            device.set_offline(kill_running=True)

        env.process(outage())
        env.run(until=2.0)
        assert aborted == list(range(8))

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


class TestFlatEngineAvailability:
    """Availability changes made by user code (not a scenario) on a run the
    flat-event engine drives."""

    def test_graceful_offline_mid_run_matches_per_job_engine(self):
        def run(fast_path):
            jobs = [_job(0, 100, arrival_time=0.0), _job(1, 100, arrival_time=500.0),
                    _job(2, 100, arrival_time=50_000.0)]
            env = _two_device_env(None, jobs, fast_path=fast_path)
            strasbourg = env.cloud.device("ibm_strasbourg")

            def toggle():
                yield env.timeout(100.0)
                strasbourg.set_offline(kill_running=False)
                yield env.timeout(1_000.0)
                strasbourg.set_online()

            env.process(toggle())
            records = env.run_until_complete()
            events = [(e.job_id, e.event, e.time, e.detail) for e in env.records.events]
            return env.fast_path_active, [r.as_dict() for r in records], events

        flat, per_job = run(None), run(False)
        assert flat[0] and not per_job[0]
        assert flat[1:] == per_job[1:]
        devices = {r["job_id"]: r["devices"] for r in flat[1]}
        assert devices == {0: "ibm_strasbourg", 1: "ibm_kyiv", 2: "ibm_strasbourg"}

    @pytest.mark.parametrize("checkpointing", [False, True], ids=["restart", "checkpoint"])
    @pytest.mark.parametrize("num_qubits", [100, 200], ids=["unsplit", "split"])
    def test_flat_kill_requeues_like_per_job_engine(self, num_qubits, checkpointing):
        # 100 qubits run on ibm_strasbourg alone; 200 split over both
        # devices.  A user-code kill mid-run aborts the attempt, which
        # requeues the job exactly as the per-job engine does.
        def run(fast_path):
            jobs = [_job(0, num_qubits), _job(1, 60, arrival_time=0.5)]
            env = QCloudSimEnv(
                SimulationConfig(num_jobs=len(jobs), checkpointing=checkpointing),
                devices=_profiles(), jobs=jobs, fast_path=fast_path,
            )
            strasbourg = env.cloud.device("ibm_strasbourg")

            def outage():
                yield env.timeout(1.0)
                strasbourg.set_offline(kill_running=True)
                yield env.timeout(50.0)
                strasbourg.set_online()
                env.cloud.signal_capacity_change()

            env.process(outage())
            records = env.run_until_complete()
            events = [(e.job_id, e.event, e.time, e.detail) for e in env.records.events]
            return (env.fast_path_active, [r.as_dict() for r in records], events,
                    env.device_utilization_report(), env.now)

        flat, per_job = run(None), run(False)
        assert flat[0] and not per_job[0]
        assert flat[1:] == per_job[1:]
        job0 = next(r for r in flat[1] if r["job_id"] == 0)
        assert job0["retries"] == 1
        assert flat[3]["ibm_strasbourg"]["aborted_subjobs"] >= 1
        assert all(stats["free_qubits"] == 127 for stats in flat[3].values())
        kinds = [e[1] for e in flat[2] if e[0] == 0]
        assert "requeue" in kinds
        assert ("resume" in kinds) == checkpointing

    def test_failed_attempt_wakes_blocked_head(self):
        # A 200-qubit job splits over both devices; a 100-qubit job arrives
        # behind it and is blocked (54 qubits free).  A kill on one device
        # aborts the split job, which fails at max_requeues=0 once its
        # surviving fragment ends.  The released qubits must wake the
        # blocked head on both engines, not only on a requeue.
        def run(fast_path):
            jobs = [_job(0, 200), _job(1, 100, arrival_time=0.5)]
            env = QCloudSimEnv(
                SimulationConfig(num_jobs=len(jobs), max_requeues=0),
                devices=_profiles(), jobs=jobs, fast_path=fast_path,
            )

            def outage():
                yield env.timeout(1.0)
                env.cloud.device("ibm_strasbourg").set_offline(kill_running=True)

            env.process(outage())
            records = env.run_until_complete()
            events = [(e.job_id, e.event, e.time, e.detail) for e in env.records.events]
            failed = [j.job_id for j in env.broker.failed_jobs]
            return (env.fast_path_active, [r.as_dict() for r in records], events, failed,
                    env.device_utilization_report(), env.now)

        flat, per_job = run(None), run(False)
        assert flat[0] and not per_job[0]
        assert flat[1:] == per_job[1:]
        assert flat[3] == [0]
        assert [r["job_id"] for r in flat[1]] == [1]
        assert flat[1][0]["devices"] == "ibm_kyiv"

    def test_blocked_head_wakes_on_capacity_signal(self):
        # A device is offline when three jobs too wide for the remaining
        # fleet arrive; it returns at t=100 through set_online() plus the
        # capacity signal ScenarioEngine.apply sends.  The blocked head
        # must re-plan on that signal on both engines.
        def run(fast_path):
            jobs = [_job(i, 560 + 20 * i, arrival_time=10.0) for i in range(3)]
            env = QCloudSimEnv(SimulationConfig(num_jobs=3), jobs=jobs, fast_path=fast_path)
            device = env.cloud.devices[0]
            device.set_offline(kill_running=False)

            def recover():
                yield env.timeout(100.0)
                device.set_online()
                env.cloud.signal_capacity_change()

            env.process(recover())
            records = env.run_until_complete()
            return env.fast_path_active, [r.as_dict() for r in records], env.broker.unended

        flat, per_job = run(None), run(False)
        assert flat[0] and not per_job[0]
        assert len(flat[1]) == 3 and flat[2] == 0
        assert flat[1:] == per_job[1:]
        assert all(r["start_time"] >= 100.0 for r in flat[1])

    @pytest.mark.parametrize("fast_path", [None, False], ids=["flat", "per_job"])
    def test_run_until_complete_reports_jobs_that_never_end(self, fast_path):
        # Two devices leave for good while three of four wide jobs wait:
        # the queue drains with those three never ended.
        jobs = [_job(i, 400 + 30 * i) for i in range(4)]
        env = QCloudSimEnv(SimulationConfig(num_jobs=4, policy="speed"), jobs=jobs,
                           fast_path=fast_path)

        def leave():
            yield env.timeout(0.5)
            env.cloud.devices[0].set_offline(kill_running=False)
            env.cloud.devices[1].set_offline(kill_running=False)

        env.process(leave())
        with pytest.raises(RuntimeError, match="3 job"):
            env.run_until_complete()
        assert env.broker.unended == 3
