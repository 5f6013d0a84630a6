"""Unit tests for the job records manager."""

import csv

import pytest

from repro.cloud.records import JobRecord, JobRecordsManager, records_to_csv


def make_record(job_id=1, fidelity=0.66):
    return JobRecord(
        job_id=job_id,
        num_qubits=190,
        depth=10,
        num_shots=30_000,
        arrival_time=0.0,
        start_time=5.0,
        finish_time=105.0,
        fidelity=fidelity,
        communication_time=3.8,
        num_devices=2,
        devices=["ibm_kyiv", "ibm_quebec"],
        allocation=[127, 63],
        processing_time=95.0,
    )


class TestJobRecord:
    def test_derived_times(self):
        record = make_record()
        assert record.wait_time == 5.0
        assert record.turnaround_time == 105.0

    def test_as_dict_flattens_lists(self):
        payload = make_record().as_dict()
        assert payload["devices"] == "ibm_kyiv|ibm_quebec"
        assert payload["allocation"] == "127|63"
        assert payload["wait_time"] == 5.0


class TestRecordsManager:
    def test_event_logging_and_query(self):
        mgr = JobRecordsManager()
        mgr.log_arrival(1, 0.0)
        mgr.log_event(1, "start", 2.0, detail="ibm_kyiv")
        mgr.log_requeue(1, 5.0)
        mgr.log_event(1, "start", 6.0)
        mgr.log_arrival(2, 1.0)
        assert len(mgr.events) == 5
        events_1 = mgr.events_for(1)
        assert [e.event for e in events_1] == ["arrival", "start", "requeue", "start"]
        assert events_1[1].detail == "ibm_kyiv"

    def test_unknown_event_rejected(self):
        mgr = JobRecordsManager()
        with pytest.raises(ValueError):
            mgr.log_event(1, "teleported", 0.0)

    def test_records_sorted_and_unique(self):
        mgr = JobRecordsManager()
        mgr.add_record(make_record(job_id=5))
        mgr.add_record(make_record(job_id=2))
        assert [r.job_id for r in mgr.completed_records] == [2, 5]
        assert len(mgr) == 2
        assert mgr.record_for(5).job_id == 5
        assert mgr.record_for(99) is None
        with pytest.raises(ValueError):
            mgr.add_record(make_record(job_id=5))

    def test_records_csv_export(self, tmp_path):
        mgr = JobRecordsManager()
        mgr.add_record(make_record(job_id=1))
        mgr.add_record(make_record(job_id=2, fidelity=0.71))
        path = tmp_path / "records.csv"
        records_to_csv(mgr.completed_records, str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[1]["fidelity"] == "0.71"

    def test_csv_export_empty_writes_header_only(self, tmp_path):
        """A zero-completion run exports the full schema with no data rows."""
        path = tmp_path / "x.csv"
        records_to_csv(JobRecordsManager().completed_records, str(path))
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == list(JobRecord.CSV_FIELDS)
            assert list(reader) == []

    def test_csv_fields_match_as_dict(self):
        assert tuple(make_record().as_dict().keys()) == JobRecord.CSV_FIELDS
