"""Unit tests for record aggregation (Table 2 rows, Fig. 6 histograms)."""

import numpy as np
import pytest

from repro.metrics.aggregate import StrategySummary, summarize_records


def make_records():
    return [
        {
            "fidelity": 0.65,
            "arrival_time": 0.0,
            "start_time": 1.0,
            "finish_time": 11.0,
            "communication_time": 3.0,
            "num_devices": 2,
        },
        {
            "fidelity": 0.70,
            "arrival_time": 0.0,
            "start_time": 2.0,
            "finish_time": 30.0,
            "communication_time": 5.0,
            "num_devices": 3,
        },
        {
            "fidelity": 0.60,
            "arrival_time": 5.0,
            "start_time": 6.0,
            "finish_time": 20.0,
            "communication_time": 4.0,
            "num_devices": 2,
        },
    ]


class TestSummarize:
    def test_values(self):
        summary = summarize_records(make_records(), strategy="speed")
        assert summary.strategy == "speed"
        assert summary.num_jobs == 3
        assert summary.total_simulation_time == 30.0
        assert summary.mean_fidelity == pytest.approx(0.65)
        assert summary.std_fidelity == pytest.approx(np.std([0.65, 0.7, 0.6]))
        assert summary.total_communication_time == pytest.approx(12.0)
        assert summary.mean_devices_per_job == pytest.approx(7 / 3)
        assert summary.mean_wait_time == pytest.approx((1 + 2 + 1) / 3)
        assert summary.mean_turnaround_time == pytest.approx((11 + 30 + 15) / 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_records([])

    def test_as_row_and_format(self):
        summary = summarize_records(make_records(), strategy="fair")
        row = summary.as_row()
        assert row["strategy"] == "fair"
        assert row["T_sim_s"] == 30.0

    def test_accepts_objects_with_attributes(self):
        class R:
            fidelity = 0.5
            arrival_time = 0.0
            start_time = 0.0
            finish_time = 10.0
            communication_time = 1.0
            num_devices = 2

        summary = summarize_records([R(), R()], strategy="x")
        assert summary.mean_fidelity == 0.5
