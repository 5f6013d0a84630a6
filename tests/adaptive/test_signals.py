"""The SignalBus: counters and rolling metrics maintained from broker hooks."""

from collections import Counter

import pytest

from repro.adaptive import AdaptivePolicySpec, ProactiveCheckpointer
from repro.adaptive.signals import UNTENANTED
from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv
from repro.hardware.backends import DEFAULT_DEVICE_NAMES

# A spec that installs the signal bus (via any enabled controller) without
# touching admission rates or checkpointing, so runs stay comparable.
_SENSE_ONLY = AdaptivePolicySpec(name="sense-only", slo_planner=True)

# Predictive control (proactive checkpointing included) with checkpointing on,
# outages that kill running work, one requeue allowed and a fleet of three
# 100-qubit devices: jobs are shed, killed, requeued and resumed, and fail
# both for exceeding the fleet and at the requeue limit.
_EVERY_PATH = dict(
    tenants="noisy-neighbor",
    num_jobs=300,
    seed=3,
    adaptive="predictive",
    scenario="flaky-fleet",
    checkpointing=True,
    max_requeues=1,
    device_names=list(DEFAULT_DEVICE_NAMES[:3]),
    device_qubits=100,
)


def _run(tenants=None, adaptive=_SENSE_ONLY, **kwargs):
    config = SimulationConfig(
        num_jobs=kwargs.pop("num_jobs", 30),
        seed=kwargs.pop("seed", 11),
        policy="speed",
        tenants=tenants,
        adaptive=None,
        **kwargs,
    )
    env = QCloudSimEnv(config, adaptive=adaptive)
    records = env.run_until_complete()
    return env, records


class TestCountersMatchGroundTruth:
    @pytest.mark.parametrize(
        "run, paths",
        [
            (dict(tenants="noisy-neighbor", num_jobs=60), set()),
            (
                _EVERY_PATH,
                {"rejected", "requeue", "resume", "exceeds total cloud capacity",
                 "exceeded requeue limit"},
            ),
        ],
        ids=["serve", "every-lifecycle-path"],
    )
    def test_serve_run_counters(self, run, paths):
        env, records = _run(**run)
        signals = env.adaptive_engine.signals
        broker = env.broker
        events = env.records.events
        taken = {e.event for e in events} | {
            e.detail.split(" (")[0] for e in events if e.event == "failed"
        }
        assert paths <= taken

        assert sum(s.submitted for s in signals.tenants.values()) == run["num_jobs"]
        # Per-tenant attribution matches the broker's own map and job lists.
        submitted = Counter(broker.tenant_of.values())
        shed = Counter(job.tenant for job in broker.rejected_jobs)
        completed = Counter(record.tenant for record in records)
        failed = Counter(job.tenant for job in broker.failed_jobs)
        assert set(signals.tenants) == set(submitted)
        for name, sig in signals.tenants.items():
            assert sig.submitted == submitted[name] == sig.admitted + sig.shed
            assert sig.shed == shed[name]
            assert sig.completed == completed[name]
            assert sig.failed == failed[name]
        # One checkpoint decision per execution attempt.
        starts = sum(1 for e in events if e.event == "start")
        for controller in env.adaptive_engine.controllers:
            if isinstance(controller, ProactiveCheckpointer):
                assert controller.decisions == starts

    def test_plain_run_uses_untenanted_bucket(self):
        env, records = _run(tenants=None, num_jobs=20)
        signals = env.adaptive_engine.signals
        assert set(signals.tenants) == {UNTENANTED}
        sig = signals.tenants[UNTENANTED]
        assert sig.submitted == 20
        assert sig.completed == len(records)
        assert sig.shed == 0

    def test_rates_derive_from_counters(self):
        env, _ = _run(tenants="noisy-neighbor", num_jobs=60)
        for sig in env.adaptive_engine.signals.tenants.values():
            assert sig.admitted + sig.shed == sig.submitted
            assert sig.shed_rate == (sig.shed / sig.submitted if sig.submitted else 0.0)


class TestRollingMetrics:
    def test_p95_sketch_sees_every_completion(self):
        env, records = _run(num_jobs=30)
        signals = env.adaptive_engine.signals
        assert signals.global_wait_p95.count == len(records)
        p95 = signals.recent_p95()
        waits = sorted(r.wait_time for r in records)
        assert p95 is not None
        assert waits[0] <= p95 <= waits[-1]

    def test_mean_service_time_matches_records(self):
        import pytest

        env, records = _run(num_jobs=20)
        mean = env.adaptive_engine.signals.mean_service_time()
        expected = sum(r.effective_service_time for r in records) / len(records)
        assert mean == pytest.approx(expected)

    def test_queue_depth_drains_to_zero(self):
        env, _ = _run(tenants="noisy-neighbor", num_jobs=40)
        signals = env.adaptive_engine.signals
        assert signals.queue_depth() == 0
        for name in signals.tenants:
            assert signals.queue_depth(name) == 0

    def test_unknown_tenant_reads_as_empty(self):
        env, _ = _run(num_jobs=5)
        signals = env.adaptive_engine.signals
        assert signals.recent_p95("ghost") is None

    def test_device_utilization_non_negative(self):
        # Utilisation can exceed 1.0: devices multi-program jobs across
        # their qubit capacity, so busy_time accumulates per job.
        env, _ = _run(num_jobs=20)
        utils = env.adaptive_engine.signals.device_utilization()
        assert utils, "fleet reported no devices"
        for util in utils.values():
            assert util >= 0.0

    def test_snapshot_is_json_safe(self):
        import json

        env, _ = _run(tenants="noisy-neighbor", num_jobs=30)
        json.dumps(env.adaptive_engine.signals.snapshot())
