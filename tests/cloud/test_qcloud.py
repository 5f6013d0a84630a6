"""Unit tests for the QCloud fleet container."""

import pytest

from repro.cloud.qcloud import QCloud
from repro.cloud.qdevice import IBMQuantumDevice
from repro.des.environment import Environment
from repro.hardware.backends import get_device_profile
from tests.timeline import timeline


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

    def test_device_lookup(self, cloud):
        assert cloud.device("ibm_kyiv").name == "ibm_kyiv"
        with pytest.raises(KeyError):
            cloud.device("ibm_nowhere")
        assert cloud.device_names() == ["ibm_strasbourg", "ibm_kyiv"]

    def test_utilization_snapshot(self, cloud):
        cloud.devices[0].reserve_qubits(6)
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

        for name in ("w1", "w2"):
            cloud.capacity_released.callbacks.append(
                lambda _event, name=name: log.append((name, env.now))
            )
        env.timeout(4).callbacks.append(lambda _event: cloud.signal_capacity_change())
        env.run()
        assert sorted(log) == [("w1", 4), ("w2", 4)]

    def test_signal_is_renewed_after_firing(self, cloud, env):
        log = []

        def wake(_event):
            log.append(env.now)
            if len(log) < 2:
                cloud.capacity_released.callbacks.append(wake)

        cloud.capacity_released.callbacks.append(wake)
        timeline(env, (1, cloud.signal_capacity_change), (2, cloud.signal_capacity_change))
        env.run()
        assert log == [1, 3]
