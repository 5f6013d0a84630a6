"""Streaming records manager and chunked JSONL export."""

from __future__ import annotations

import json

import pytest

from repro.cloud.records import JobRecord, JobRecordsManager
from repro.cloud.records_stream import JsonlRecordWriter, StreamingRecordsManager
from repro.metrics.quantiles import P2Quantile


def _record(job_id, *, arrival=0.0, start=1.0, finish=3.0, fidelity=0.9,
            tenant=None, retries=0, service=None, first_start=None):
    return JobRecord(
        job_id=job_id,
        num_qubits=4,
        depth=7,
        num_shots=100,
        arrival_time=arrival,
        start_time=start,
        finish_time=finish,
        fidelity=fidelity,
        communication_time=0.0,
        num_devices=1,
        devices=["ibm_kyiv"],
        allocation=[4],
        retries=retries,
        tenant=tenant,
        service_time=service,
        first_start_time=first_start,
    )


class TestStreamingManager:
    def test_keeps_event_detail_flags(self):
        assert JobRecordsManager.KEEPS_EVENT_DETAIL is True
        assert StreamingRecordsManager.KEEPS_EVENT_DETAIL is False

    def test_counts_instead_of_storing(self):
        mgr = StreamingRecordsManager()
        mgr.log_arrival(1, 0.0)
        mgr.log_event(1, "start", 1.0, detail="ibm_kyiv")
        mgr.log_event(1, "finish", 3.0)
        assert mgr.event_counts == {"arrival": 1, "start": 1, "finish": 1}
        assert mgr.events == []
        assert mgr.events_for(1) == []

    def test_unknown_event_still_rejected(self):
        with pytest.raises(ValueError, match="unknown event"):
            StreamingRecordsManager().log_event(1, "teleported", 0.0)

    def test_log_arrival_block_counts(self):
        mgr = StreamingRecordsManager()
        mgr.log_arrival_block([10, 11, 12, 13], 1, 4, 2.0)
        assert mgr.event_counts == {"arrival": 3}

    def test_base_log_arrival_block_matches_per_row(self):
        block, loop = JobRecordsManager(), JobRecordsManager()
        job_ids = [7, 8, 9]
        block.log_arrival_block(job_ids, 0, 3, 5.0)
        for job_id in job_ids:
            loop.log_arrival(job_id, 5.0)
        assert block.events == loop.events

    def test_records_aggregated_not_stored(self):
        mgr = StreamingRecordsManager()
        for i in range(10):
            mgr.add_record(_record(i, fidelity=0.8 + 0.01 * i))
        assert mgr.completed == 10
        assert len(mgr) == 10
        assert mgr.completed_records == []
        assert mgr.record_for(3) is None
        assert mgr.mean_fidelity == pytest.approx(sum(0.8 + 0.01 * i for i in range(10)) / 10)

    def test_mean_fidelity_none_when_empty(self):
        assert StreamingRecordsManager().mean_fidelity is None

    def test_percentiles_match_direct_sketches(self):
        mgr = StreamingRecordsManager()
        records = [
            _record(i, arrival=float(i), start=float(i) + 0.5 * i, finish=float(i) + i + 2.0)
            for i in range(25)
        ]
        waits, turnarounds = {}, {}
        for p in (0.5, 0.95, 0.99):
            waits[p], turnarounds[p] = P2Quantile(p), P2Quantile(p)
        for record in records:
            mgr.add_record(record)
            for p in waits:
                waits[p].add(record.wait_time)
                turnarounds[p].add(record.turnaround_time)
        got = mgr.latency_percentiles()
        for p in (50, 95, 99):
            assert got[f"wait_p{p}"] == waits[p / 100].value
            assert got[f"turnaround_p{p}"] == turnarounds[p / 100].value

    def test_retried_record_wait_uses_service_split(self):
        # The inlined wait arithmetic must equal the JobRecord property.
        record = _record(1, arrival=0.0, start=5.0, finish=20.0,
                         retries=2, service=6.0, first_start=1.0)
        mgr = StreamingRecordsManager()
        mgr.add_record(record)
        assert mgr.latency_percentiles()["wait_p50"] == record.wait_time

    def test_tenant_slicing(self):
        mgr = StreamingRecordsManager()
        for i in range(8):
            mgr.add_record(_record(i, finish=2.0 + i, tenant="premium"))
        for i in range(8, 12):
            mgr.add_record(_record(i, finish=30.0 + i, tenant="free"))
        premium = mgr.latency_percentiles("premium")
        free = mgr.latency_percentiles("free")
        assert premium["turnaround_p50"] < free["turnaround_p50"]
        assert mgr.latency_percentiles("unknown")["wait_p50"] is None

    def test_aggregates_payload(self):
        mgr = StreamingRecordsManager()
        mgr.log_arrival(0, 0.0)
        mgr.add_record(_record(0))
        payload = mgr.aggregates()
        assert payload["completed"] == 1
        assert payload["event_counts"] == {"arrival": 1}
        assert "wait_p50" in payload and "turnaround_p99" in payload
        assert json.dumps(payload)  # JSON-safe


class TestJsonlExport:
    def test_chunked_writing_and_close(self, tmp_path):
        path = tmp_path / "records.jsonl"
        writer = JsonlRecordWriter(str(path), chunk_size=10)
        for i in range(25):
            writer.write(_record(i))
        assert writer.rows_written == 20  # two full chunks flushed
        writer.close()
        assert writer.rows_written == 25
        lines = path.read_text().splitlines()
        assert len(lines) == 25
        rows = [json.loads(line) for line in lines]
        assert [row["job_id"] for row in rows] == list(range(25))
        assert rows[0] == {k: v for k, v in _record(0).as_dict().items()}

    def test_context_manager_flushes(self, tmp_path):
        path = tmp_path / "records.jsonl"
        with JsonlRecordWriter(str(path), chunk_size=100) as writer:
            writer.write(_record(1))
        assert len(path.read_text().splitlines()) == 1

    def test_invalid_chunk_size(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_size"):
            JsonlRecordWriter(str(tmp_path / "x.jsonl"), chunk_size=0)

    def test_manager_export_path(self, tmp_path):
        path = tmp_path / "export.jsonl"
        with StreamingRecordsManager(export_path=str(path), chunk_size=4) as mgr:
            for i in range(9):
                mgr.add_record(_record(i))
            payload = mgr.aggregates()
            # rows_written in aggregates includes the still-buffered tail.
            assert payload["rows_written"] == 9
            assert payload["export_path"] == str(path)
        assert len(path.read_text().splitlines()) == 9
