"""Tests for the result store: round-trips, cache semantics, exports."""

import csv
import json
import os

import pytest

from repro.cloud.config import SimulationConfig
from repro.engine import ExperimentRunner, ExperimentSpec, ResultStore, execute_cell


@pytest.fixture(scope="module")
def cell_and_result():
    (cell,) = ExperimentSpec(
        base_config=SimulationConfig(num_jobs=8, seed=3), strategies=("speed",)
    ).cells()
    return cell, execute_cell(cell)


class TestCellRoundTrip:
    def test_summary_and_records_round_trip(self, tmp_path, cell_and_result):
        cell, result = cell_and_result
        store = ResultStore(str(tmp_path))
        key = cell.cache_key()
        store.save_cell(key, cell, result.summary, result.records)

        loaded = store.load_cell(key)
        assert loaded is not None
        summary, records = loaded
        assert summary == result.summary
        assert records == result.records

    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(str(tmp_path)).load_cell("0" * 64) is None

    def test_corrupt_cell_is_a_miss(self, tmp_path, cell_and_result):
        cell, result = cell_and_result
        store = ResultStore(str(tmp_path))
        key = cell.cache_key()
        path = store.save_cell(key, cell, result.summary, result.records)
        with open(path, "w") as fh:
            fh.write("{not json")
        assert store.load_cell(key) is None

    def test_keep_records_false_drops_records(self, tmp_path, cell_and_result):
        cell, result = cell_and_result
        store = ResultStore(str(tmp_path), keep_records=False)
        key = cell.cache_key()
        store.save_cell(key, cell, result.summary, result.records)
        summary, records = store.load_cell(key)
        assert summary == result.summary
        assert records == []

    def test_contains_len_clear(self, tmp_path, cell_and_result):
        cell, result = cell_and_result
        store = ResultStore(str(tmp_path))
        key = cell.cache_key()
        assert key not in store
        assert len(store) == 0
        store.save_cell(key, cell, result.summary, result.records)
        assert key in store
        assert len(store) == 1
        assert store.clear() == 1
        assert len(store) == 0


class TestSummaryExports:
    def test_csv_and_json(self, tmp_path):
        store = ResultStore(str(tmp_path))
        runner = ExperimentRunner(store=store)
        result = runner.run(
            ExperimentSpec(
                base_config=SimulationConfig(num_jobs=8, seed=3),
                strategies=("speed", "fair"),
            )
        )
        rows = result.summary_rows()

        csv_path = store.write_summaries_csv(rows)
        with open(csv_path) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 2
        assert {row["strategy"] for row in parsed} == {"speed", "fair"}

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(str(tmp_path)).write_summaries_csv([])
