"""Benchmark: Table 1 — framework capability matrix.

Table 1 of the paper is a qualitative comparison of simulation frameworks;
the row claimed for "This work" is: *large-scale circuit simulation,
discrete-event simulation, noise-aware ✓, combined QPUs ✓*.  This benchmark
exercises (rather than asserts by fiat) each of those claims on a miniature
end-to-end run:

* discrete-event simulation — the run advances a DES clock through job
  events;
* noise awareness — calibration-derived error scores change which devices
  the error-aware policy selects, and fidelities respond to error rates;
* combined QPUs — every case-study job is larger than a single device and
  executes across several devices with classical communication.
"""

from __future__ import annotations

import pytest

from repro.cloud.config import SimulationConfig
from repro.cloud.environment import QCloudSimEnv

from benchmarks.conftest import BENCHMARK_SEED


def test_table1_capability_row(benchmark):
    """Demonstrate the 'This work' row of Table 1 on a miniature workload."""

    def run():
        config = SimulationConfig(policy="fidelity", num_jobs=10, seed=BENCHMARK_SEED)
        env = QCloudSimEnv(config)
        records = env.run_until_complete()
        return env, records

    env, records = benchmark.pedantic(run, rounds=1, iterations=1)

    # The discrete-event simulation: the simulated clock advanced and events were logged.
    assert env.now > 0
    assert any(e.event == "start" for e in env.records.events)
    benchmark.extra_info["discrete_event_simulation"] = True

    # Noise awareness: devices expose calibration-derived error scores and the
    # error-aware policy concentrated work on the lowest-error devices.
    scores = {d.name: d.error_score() for d in env.cloud.devices}
    assert len(set(round(s, 8) for s in scores.values())) == len(scores)
    best_two = sorted(scores, key=scores.get)[:2]
    used = {name for r in records for name in r.devices}
    assert used == set(best_two)
    benchmark.extra_info["noise_aware"] = True

    # Combined QPUs: every job exceeded one device and ran across several with
    # classical communication delays.
    assert all(r.num_qubits > env.cloud.max_device_qubits for r in records)
    assert all(r.num_devices >= 2 for r in records)
    assert all(r.communication_time > 0 for r in records)
    benchmark.extra_info["combined_qpus"] = True

    print("\nTable 1 ('This work' row) capabilities exercised: "
          "discrete-event ✓, noise-aware ✓, combined QPUs ✓")
