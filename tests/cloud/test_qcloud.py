"""Unit tests for the QCloud fleet container."""

import pytest

from repro.cloud.qcloud import QCloud
from repro.cloud.qdevice import IBMQuantumDevice
from repro.des.environment import Environment
from repro.hardware.backends import get_device_profile


@pytest.fixture
def cloud(env):
    profiles = [
        get_device_profile("ibm_strasbourg", num_qubits=12, quantum_volume=32),
        get_device_profile("ibm_kyiv", num_qubits=12, quantum_volume=32),
    ]
    return QCloud(env, profiles)


class TestConstruction:
    def test_profiles_wrapped_into_devices(self, cloud):
        assert len(cloud.devices) == 2
        assert all(isinstance(d, IBMQuantumDevice) for d in cloud.devices)

    def test_accepts_device_instances(self, env, small_profile):
        device = IBMQuantumDevice(env, small_profile)
        cloud = QCloud(env, [device])
        assert cloud.devices[0] is device

    def test_rejects_empty_fleet(self, env):
        with pytest.raises(ValueError):
            QCloud(env, [])

    def test_rejects_duplicate_names(self, env, small_profile):
        d1 = IBMQuantumDevice(env, small_profile)
        d2 = IBMQuantumDevice(env, small_profile)
        with pytest.raises(ValueError):
            QCloud(env, [d1, d2])

    def test_rejects_unknown_specification(self, env):
        with pytest.raises(TypeError):
            QCloud(env, ["ibm_kyiv"])


class TestQueries:
    def test_capacity_queries(self, cloud):
        assert cloud.total_qubits == 24
        assert cloud.free_qubits == 24
        assert cloud.max_device_qubits == 12
        assert cloud.fits_single_device(12)
        assert cloud.requires_partitioning(13)
        assert cloud.can_ever_fit(24)
        assert not cloud.can_ever_fit(25)

    def test_device_lookup(self, cloud):
        assert cloud.device("ibm_kyiv").name == "ibm_kyiv"
        with pytest.raises(KeyError):
            cloud.device("ibm_nowhere")
        assert cloud.device_names() == ["ibm_strasbourg", "ibm_kyiv"]

    def test_utilization_snapshot(self, cloud, env):
        def proc(env, cloud):
            yield cloud.devices[0].request_qubits(6)

        env.process(proc(env, cloud))
        env.run()
        util = cloud.utilization()
        assert util["ibm_strasbourg"] == pytest.approx(0.5)
        assert util["ibm_kyiv"] == 0.0
        assert cloud.free_qubits == 18


    def test_online_view_tracks_availability(self, cloud):
        strasbourg = cloud.device("ibm_strasbourg")
        view = cloud.online_devices
        assert view == cloud.devices
        assert cloud.online_devices is view  # cached between changes
        strasbourg.set_offline(cause="maintenance")
        assert cloud.online_devices == [cloud.device("ibm_kyiv")]
        strasbourg.set_offline(cause="outage")
        strasbourg.set_online("maintenance")  # the outage still holds it
        assert strasbourg not in cloud.online_devices
        strasbourg.set_online("outage")
        assert cloud.online_devices == cloud.devices
        assert view == cloud.devices  # earlier snapshots are never mutated


class TestCapacityReleasedSignal:
    def test_waiters_are_woken_once_per_release(self, cloud, env):
        log = []

        def waiter(env, cloud, name):
            yield cloud.capacity_released
            log.append((name, env.now))

        def releaser(env, cloud):
            yield env.timeout(4)
            cloud.notify_capacity_released()

        env.process(waiter(env, cloud, "w1"))
        env.process(waiter(env, cloud, "w2"))
        env.process(releaser(env, cloud))
        env.run()
        assert sorted(log) == [("w1", 4), ("w2", 4)]
        assert cloud.jobs_completed == 1

    def test_signal_is_renewed_after_firing(self, cloud, env):
        log = []

        def waiter(env, cloud):
            yield cloud.capacity_released
            log.append(env.now)
            yield cloud.capacity_released
            log.append(env.now)

        def releaser(env, cloud):
            yield env.timeout(1)
            cloud.notify_capacity_released()
            yield env.timeout(2)
            cloud.notify_capacity_released()

        env.process(waiter(env, cloud))
        env.process(releaser(env, cloud))
        env.run()
        assert log == [1, 3]
