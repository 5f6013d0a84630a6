"""Cross-region spillover: terminally failed jobs migrate deterministically.

The scenario is engineered so the migration path must fire: region ``a``
suffers a fleet-wide kill-running maintenance window shortly into the run
and ``max_requeues=0`` turns every killed job into a terminal shard failure,
which the router then re-routes to region ``b`` (paying the hop's transfer
latency and fidelity penalty).
"""

import pytest

from repro.cloud.config import SimulationConfig
from repro.dynamics import SCENARIOS, MaintenanceWindow, Scenario, register_scenario
from repro.region import RegionSpec, RegionTopology, RegionalCloud

KILL_SCENARIO = "spill-test-kill"


@pytest.fixture()
def topology():
    register_scenario(
        Scenario(
            name=KILL_SCENARIO,
            maintenance=(
                MaintenanceWindow(
                    start=50.0, duration=50_000.0, device=None, kill_running=True
                ),
            ),
        )
    )
    yield RegionTopology(
        name="spill-test",
        regions=(
            RegionSpec(
                name="a",
                device_names=("ibm_strasbourg", "ibm_brussels"),
                workload_share=0.5,
                scenario=KILL_SCENARIO,
            ),
            RegionSpec(
                name="b",
                device_names=("ibm_kyiv", "ibm_quebec", "ibm_kawasaki"),
                workload_share=0.5,
            ),
        ),
    )
    SCENARIOS.pop(KILL_SCENARIO)


def _config(**overrides):
    payload = dict(num_jobs=10, policy="fidelity", max_requeues=0, seed=7)
    payload.update(overrides)
    return SimulationConfig(**payload)


class TestMigration:
    def test_killed_jobs_migrate_and_complete(self, topology):
        cloud = RegionalCloud(config=_config(), topology=topology)
        records = cloud.run_until_complete()
        assert cloud.migrations, "the kill window must force at least one migration"
        assert all(source == "a" and target == "b" and round_index >= 1
                   for _, source, target, round_index in cloud.migrations)
        # Every job either completed (possibly after migrating) or is in the
        # terminal failure report.
        assert len(records) + len(cloud.failed) == 10

        migrated_ids = {m[0] for m in cloud.migrations}
        migrated_records = [r for r in records if r.job_id in migrated_ids]
        assert migrated_records
        for record in migrated_records:
            # Origin-side arrival restored; the hop's transfer latency is
            # surfaced as communication time.
            assert record.arrival_time == 0.0
            assert record.communication_time > 0.0
            assert cloud.region_of[record.job_id] == "b"

    def test_migration_is_deterministic(self, topology):
        first = RegionalCloud(config=_config(), topology=topology)
        first_records = first.run_until_complete()
        second = RegionalCloud(config=_config(), topology=topology)
        second_records = second.run_until_complete()
        assert [r.as_dict() for r in first_records] == [
            r.as_dict() for r in second_records
        ]
        assert first.migrations == second.migrations
        assert first.failed == second.failed

    def test_region_reports_track_migrations(self, topology):
        cloud = RegionalCloud(config=_config(), topology=topology)
        cloud.run_until_complete()
        reports = cloud.region_reports()
        assert reports["a"]["migrated_out"] == len(cloud.migrations)
        assert reports["b"]["migrated_in"] == len(cloud.migrations)
        assert reports["a"]["migrated_in"] == 0

    def test_zero_rounds_reports_failures_instead(self, topology):
        cloud = RegionalCloud(
            config=_config(), topology=topology, max_migration_rounds=0
        )
        records = cloud.run_until_complete()
        assert cloud.migrations == []
        assert cloud.failed, "without migration rounds the killed jobs stay failed"
        for failure in cloud.failed:
            assert failure["regions_tried"] == ["a"]
        assert len(records) + len(cloud.failed) == 10
        # Terminal failures flow into the records manager's event stream.
        failed_events = [e for e in cloud.records.events if e.event == "failed"]
        assert len(failed_events) == len(cloud.failed)

    def test_rejects_multi_region_tenants_and_scenario(self, topology):
        with pytest.raises(ValueError):
            RegionalCloud(config=_config(tenants="single"), topology=topology)
        with pytest.raises(ValueError):
            RegionalCloud(config=_config(scenario="drift"), topology=topology)

    def test_cannot_run_twice(self, topology):
        cloud = RegionalCloud(config=_config(), topology=topology)
        cloud.run_until_complete()
        with pytest.raises(RuntimeError):
            cloud.run_until_complete()
