"""Streaming records through the merged cross-shard stream (O(1) memory)."""

import json

import pytest

from repro.cloud.config import SimulationConfig
from repro.cloud.records_stream import StreamingRecordsManager
from repro.region import RegionalCloud


def _config(**overrides):
    payload = dict(num_jobs=12, policy="fidelity", seed=5, regions="dual")
    payload.update(overrides)
    return SimulationConfig(**payload)


class TestStreamingMerge:
    def test_aggregates_match_the_stored_run(self):
        baseline = RegionalCloud(config=_config())
        base_records = baseline.run_until_complete()
        assert len(base_records) == 12

        stream = StreamingRecordsManager()
        cloud = RegionalCloud(config=_config(), records=stream)
        returned = cloud.run_until_complete()
        # Streaming keeps no per-record storage: the merge aggregates instead.
        assert returned == []
        assert stream.completed == 12
        expected = sum(r.fidelity for r in base_records) / len(base_records)
        assert stream.mean_fidelity == pytest.approx(expected)

        aggregates = stream.aggregates()
        assert aggregates["completed"] == 12
        assert aggregates["turnaround_p50"] is not None
        assert aggregates["turnaround_p50"] > 0.0

    def test_jsonl_export_round_trips(self, tmp_path):
        path = tmp_path / "records.jsonl"
        with StreamingRecordsManager(export_path=str(path)) as stream:
            RegionalCloud(config=_config(), records=stream).run_until_complete()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 12
        assert [row["job_id"] for row in rows] == sorted(row["job_id"] for row in rows)

    def test_failures_flow_into_the_event_counters(self):
        from repro.dynamics import SCENARIOS, MaintenanceWindow, Scenario, register_scenario
        from repro.region import RegionSpec, RegionTopology

        register_scenario(
            Scenario(
                name="stream-test-kill",
                maintenance=(
                    MaintenanceWindow(
                        start=50.0, duration=50_000.0, device=None, kill_running=True
                    ),
                ),
            )
        )
        try:
            topology = RegionTopology(
                name="stream-spill",
                regions=(
                    RegionSpec(
                        name="a",
                        device_names=("ibm_strasbourg", "ibm_brussels"),
                        workload_share=0.5,
                        scenario="stream-test-kill",
                    ),
                    RegionSpec(
                        name="b",
                        device_names=("ibm_kyiv", "ibm_quebec", "ibm_kawasaki"),
                        workload_share=0.5,
                    ),
                ),
            )
            stream = StreamingRecordsManager()
            cloud = RegionalCloud(
                config=_config(regions=None, num_jobs=10, max_requeues=0, seed=7),
                topology=topology,
                records=stream,
                max_migration_rounds=0,
            )
            cloud.run_until_complete()
        finally:
            SCENARIOS.pop("stream-test-kill")
        assert cloud.failed
        assert stream.event_counts.get("failed", 0) == len(cloud.failed)
        assert stream.completed + len(cloud.failed) == 10
