"""Scenario trace recording and deterministic replay (JSONL).

Any scenario run can be dumped to a JSONL trace and replayed exactly:

* line 1 — a ``header`` record: trace version, scenario name, the
  event-source creation order and the originating simulation config,
* one ``job`` line per workload job (arrival times included), in submission
  order,
* one ``event`` line per applied :class:`~repro.dynamics.scenario.WorldEvent`,
  in application order.

``float`` round-tripping through JSON is exact (Python serialises the
shortest repr, which parses back to the identical IEEE-754 double), so a
replayed run applies bit-identical drift factors at bit-identical times and
reproduces the original job records exactly — asserted by the round-trip
tests.

Usage::

    env = QCloudSimEnv(SimulationConfig(num_jobs=50, scenario="black-friday"))
    env.run_until_complete()
    env.save_trace("run.jsonl")

    replay = load_trace("run.jsonl")
    env2 = QCloudSimEnv(SimulationConfig(num_jobs=50), scenario=replay)
    assert env2.run_until_complete() == records
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.cloud.qjob import QJob
from repro.dynamics.scenario import Scenario, WorldEvent

__all__ = ["TRACE_VERSION", "save_trace", "load_trace"]

#: Current trace schema version.
TRACE_VERSION = 1


def save_trace(env: Any, path: str) -> str:
    """Write the scenario trace of a finished (or running) simulation.

    Parameters
    ----------
    env:
        A :class:`~repro.cloud.environment.QCloudSimEnv`.  Runs without a
        scenario are recorded too (zero world events) — replaying such a
        trace reproduces the plain run.
    path:
        Output path of the JSONL trace.

    Returns the path written.
    """
    engine = getattr(env, "scenario_engine", None)
    scenario = getattr(env, "scenario", None)
    header: Dict[str, Any] = {
        "type": "header",
        "version": TRACE_VERSION,
        "scenario": scenario.name if scenario is not None else None,
        "sources": list(engine.sources) if engine is not None else [],
        "config": env.config.as_dict(),
    }
    lines = [json.dumps(header, default=repr)]
    for job in env.job_generator.jobs:
        lines.append(json.dumps({"type": "job", **job.as_dict()}))
    for event in engine.applied_events if engine is not None else ():
        lines.append(json.dumps({"type": "event", **event.as_dict()}))
    Path(path).write_text("\n".join(lines) + "\n")
    return str(path)


def load_trace(path: str) -> Scenario:
    """Load a JSONL trace into a replay :class:`Scenario`.

    The returned scenario carries the recorded workload and world events; a
    simulation constructed with it schedules exactly those arrivals and world
    changes and reproduces the recorded run bit-for-bit (given the same
    simulation config and policy).

    Raises ``ValueError``, naming the line, for a world event of unknown
    kind, with a time that is not finite and non-negative, or earlier than
    its source's previous event.  Events naming a device the fleet lacks are
    refused when the scenario is installed.
    """
    text = Path(path).read_text()
    header: Optional[Dict[str, Any]] = None
    jobs: List[QJob] = []
    events: List[WorldEvent] = []
    #: Time of each source's latest event (a source's events never go back).
    last_time: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        payload = json.loads(line)
        kind = payload.get("type")
        if kind == "header":
            if payload.get("version") != TRACE_VERSION:
                raise ValueError(
                    f"unsupported trace version {payload.get('version')!r} "
                    f"(expected {TRACE_VERSION})"
                )
            header = payload
        elif kind == "job":
            jobs.append(QJob.from_dict(payload))
        elif kind == "event":
            try:
                event = WorldEvent.from_dict(payload)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if event.time < last_time.get(event.source, 0.0):
                raise ValueError(
                    f"{path}:{lineno}: world event at t={event.time} precedes source "
                    f"{event.source!r}'s event at t={last_time[event.source]}"
                )
            last_time[event.source] = event.time
            events.append(event)
        else:
            raise ValueError(f"{path}:{lineno}: unknown trace line type {kind!r}")
    if header is None:
        raise ValueError(f"{path} has no header line")

    name = header.get("scenario") or "trace"
    return Scenario(
        name=f"replay:{name}",
        replay_events=tuple(events),
        replay_sources=tuple(header.get("sources", ())),
        replay_jobs=tuple(jobs),
        description=f"replay of {Path(path).name}",
    )
