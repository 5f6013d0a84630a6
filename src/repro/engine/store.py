"""Structured persistence of experiment results with content-keyed caching.

A :class:`ResultStore` is a directory of JSON cell results keyed by the
content hash of the cell that produced them (strategy, seed, full config,
policy spec, workload fingerprint — see
:meth:`~repro.engine.spec.ExperimentCell.cache_key`).  Repeated sweeps load
already-computed cells instead of re-simulating them; summary tables can be
exported as CSV or JSON for downstream analysis.

Everything round-trips losslessly: a cached
:class:`~repro.metrics.aggregate.StrategySummary` and its
:class:`~repro.cloud.records.JobRecord` list compare equal to the freshly
simulated originals (floats are serialised with full precision).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.cloud.records import JobRecord
from repro.metrics.aggregate import StrategySummary
from repro.metrics.fidelity import FidelityBreakdown

__all__ = ["ResultStore"]

#: Store layout version; bump when the serialisation format changes.
_FORMAT_VERSION = 1


def _summary_to_json(summary: StrategySummary) -> Dict[str, Any]:
    return dataclasses.asdict(summary)


def _summary_from_json(payload: Mapping[str, Any]) -> StrategySummary:
    return StrategySummary(**payload)


def _record_to_json(record: JobRecord) -> Dict[str, Any]:
    payload = dataclasses.asdict(record)
    payload["breakdowns"] = [dataclasses.asdict(b) for b in record.breakdowns]
    return payload


def _record_from_json(payload: Dict[str, Any]) -> JobRecord:
    payload = dict(payload)
    payload["breakdowns"] = [FidelityBreakdown(**b) for b in payload.get("breakdowns", [])]
    return JobRecord(**payload)


class ResultStore:
    """Directory-backed store of cell results and summary tables.

    Parameters
    ----------
    root:
        Directory to persist into (created on first use).
    keep_records:
        Persist the per-job records alongside each summary (default).  With
        ``False`` only summaries are stored — smaller on disk, and cache hits
        then restore results with an empty record list.
    """

    def __init__(self, root: str, keep_records: bool = True) -> None:
        self.root = str(root)
        self.keep_records = bool(keep_records)
        self._cells_dir = os.path.join(self.root, "cells")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ResultStore root={self.root!r} cells={len(self)}>"

    def _cell_path(self, key: str) -> str:
        return os.path.join(self._cells_dir, f"{key}.json")

    def __len__(self) -> int:
        if not os.path.isdir(self._cells_dir):
            return 0
        return sum(1 for name in os.listdir(self._cells_dir) if name.endswith(".json"))

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._cell_path(key))

    # -- cell cache ----------------------------------------------------------
    def save_cell(
        self,
        key: str,
        cell: Any,
        summary: StrategySummary,
        records: Sequence[JobRecord],
    ) -> str:
        """Persist one cell result under its content *key*; returns the path."""
        os.makedirs(self._cells_dir, exist_ok=True)
        payload: Dict[str, Any] = {
            "version": _FORMAT_VERSION,
            "cell": {
                "strategy": getattr(cell, "strategy", None),
                "seed": getattr(cell, "seed", None),
                "replicate": getattr(cell, "replicate", 0),
                "config": cell.config.as_dict() if hasattr(cell, "config") else None,
            },
            "summary": _summary_to_json(summary),
            "records": [_record_to_json(r) for r in records] if self.keep_records else [],
        }
        path = self._cell_path(key)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)  # atomic: concurrent sweeps never see half a cell
        return path

    def load_cell(self, key: str) -> Optional[Tuple[StrategySummary, List[JobRecord]]]:
        """Load one cell result, or ``None`` on a cache miss (or stale format)."""
        path = self._cell_path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("version") != _FORMAT_VERSION:
            return None
        summary = _summary_from_json(payload["summary"])
        records = [_record_from_json(r) for r in payload.get("records", [])]
        return summary, records

    def clear(self) -> int:
        """Delete every cached cell; returns the number removed."""
        if not os.path.isdir(self._cells_dir):
            return 0
        removed = 0
        for name in os.listdir(self._cells_dir):
            if name.endswith(".json"):
                os.remove(os.path.join(self._cells_dir, name))
                removed += 1
        return removed

    # -- summary tables --------------------------------------------------------
    def write_summaries_csv(
        self, rows: Iterable[Mapping[str, Any]], name: str = "summaries.csv"
    ) -> str:
        """Write summary rows (e.g. ``ExperimentResult.summary_rows()``) to CSV."""
        rows = [dict(row) for row in rows]
        if not rows:
            raise ValueError("no summary rows to write")
        os.makedirs(self.root, exist_ok=True)
        path = os.path.join(self.root, name)
        fieldnames = list(rows[0].keys())
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
        return path
