"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestDevices:
    def test_lists_catalogue(self, capsys):
        assert main(["devices", "--qubits", "20", "--qv", "32"]) == 0
        out = capsys.readouterr().out
        for name in ("ibm_strasbourg", "ibm_brussels", "ibm_kyiv", "ibm_quebec", "ibm_kawasaki"):
            assert name in out
        assert "220000" in out


class TestWorkload:
    def test_writes_csv(self, tmp_path, capsys):
        path = str(tmp_path / "jobs.csv")
        assert main(["workload", "-n", "12", "-o", path, "--seed", "3"]) == 0
        assert "Wrote 12 jobs" in capsys.readouterr().out
        from repro.cloud.io import jobs_from_csv

        assert len(jobs_from_csv(path)) == 12

    def test_writes_json(self, tmp_path):
        path = str(tmp_path / "jobs.json")
        assert main(["workload", "-n", "5", "-o", path]) == 0
        from repro.cloud.io import jobs_from_json

        assert len(jobs_from_json(path)) == 5


class TestSimulate:
    def test_simulate_speed(self, capsys, tmp_path):
        records_path = str(tmp_path / "records.csv")
        code = main(
            ["simulate", "--policy", "speed", "-n", "6", "--seed", "1", "--records", records_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs completed: 6" in out
        assert "fidelity" in out
        import csv

        with open(records_path) as fh:
            assert len(list(csv.DictReader(fh))) == 6

    def test_simulate_with_workload_file(self, capsys, tmp_path):
        jobs_path = str(tmp_path / "jobs.csv")
        main(["workload", "-n", "4", "-o", jobs_path, "--seed", "9"])
        capsys.readouterr()
        assert main(["simulate", "--policy", "fair", "--jobs", jobs_path]) == 0
        assert "jobs completed: 4" in capsys.readouterr().out

    def test_zero_completion_run_writes_header_only_records(self, tmp_path, capsys):
        """Every job infeasible: no crash, exit 1, header-only records CSV."""
        from repro.circuits.circuit import CircuitSpec
        from repro.cloud.io import jobs_to_csv
        from repro.cloud.qjob import QJob

        jobs = [QJob(job_id=0, circuit=CircuitSpec(
            num_qubits=5000, depth=5, num_shots=1000, num_two_qubit_gates=10))]
        workload = tmp_path / "huge.csv"
        jobs_to_csv(jobs, str(workload))
        records = tmp_path / "records.csv"

        code = main(["simulate", "--jobs", str(workload), "--records", str(records)])
        assert code == 1
        out = capsys.readouterr().out
        assert "jobs completed: 0" in out
        lines = records.read_text().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("job_id,")

    def test_zero_completion_run_with_trace(self, tmp_path, capsys):
        """--trace on a zero-completion run: no crash, exit 1, trace written."""
        from repro.circuits.circuit import CircuitSpec
        from repro.cloud.io import jobs_to_csv
        from repro.cloud.qjob import QJob

        jobs = [QJob(job_id=0, circuit=CircuitSpec(
            num_qubits=5000, depth=5, num_shots=1000, num_two_qubit_gates=10))]
        workload = tmp_path / "huge.csv"
        jobs_to_csv(jobs, str(workload))
        trace = tmp_path / "trace.jsonl"

        code = main(["simulate", "--jobs", str(workload), "--trace", str(trace)])
        assert code == 1
        assert "jobs completed: 0" in capsys.readouterr().out
        assert trace.exists()

    def test_rlbase_requires_model(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--policy", "rlbase", "-n", "2"])

    def test_rlbase_with_saved_model(self, capsys, tmp_path):
        # Save an untrained-but-valid policy and deploy it through the CLI.
        import numpy as np

        from repro.gymapi.spaces import Box
        from repro.rl.policies import ActorCriticPolicy

        model_path = str(tmp_path / "policy.npz")
        ActorCriticPolicy(
            Box(0.0, np.inf, shape=(16,), dtype=np.float64),
            Box(0.0, 1.0, shape=(5,), dtype=np.float64),
            seed=0,
        ).save(model_path)

        code = main(["simulate", "--policy", "rlbase", "-n", "4", "--model", model_path])
        assert code == 0
        assert "jobs completed: 4" in capsys.readouterr().out


class TestCompare:
    def test_compare_three_strategies(self, capsys):
        assert main(["compare", "-n", "10", "--seed", "2", "--histograms"]) == 0
        out = capsys.readouterr().out
        for name in ("speed", "fidelity", "fair"):
            assert name in out
        assert "#" in out  # histograms rendered


class TestTrain:
    def test_train_small_budget(self, capsys, tmp_path):
        model_path = str(tmp_path / "model.npz")
        curve_path = str(tmp_path / "curve.json")
        code = main(
            [
                "train",
                "--timesteps", "1024",
                "--model", model_path,
                "--curve", curve_path,
                "--seed", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "saved policy" in out
        curve = json.loads(open(curve_path).read())
        assert len(curve) >= 1
        assert "ep_rew_mean" in curve[0]

    def test_train_vectorized_n_envs(self, capsys, tmp_path):
        model_path = str(tmp_path / "model.npz")
        code = main(
            [
                "train",
                "--timesteps", "1024",
                "--model", model_path,
                "--seed", "0",
                "--n-envs", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "saved policy" in out

    def test_train_default_n_envs_is_serial(self):
        args = build_parser().parse_args(["train"])
        assert args.n_envs == 1


class TestSimulateFastPath:
    def test_fast_path_matches_legacy_records(self, capsys, tmp_path):
        # The CLI runs the flat engine by default; its records must equal
        # those of the per-job engine on the same configuration.
        from repro.cloud.config import SimulationConfig
        from repro.cloud.environment import QCloudSimEnv
        from repro.cloud.records import records_to_csv

        fast_path = str(tmp_path / "fast.csv")
        code = main(
            ["simulate", "--policy", "speed", "-n", "8", "--seed", "4",
             "--records", fast_path]
        )
        assert code == 0
        assert "jobs completed: 8" in capsys.readouterr().out
        env = QCloudSimEnv(SimulationConfig(policy="speed", num_jobs=8, seed=4),
                           fast_path=False)
        legacy_path = str(tmp_path / "legacy.csv")
        records_to_csv(env.run_until_complete(), legacy_path)
        assert open(fast_path).read() == open(legacy_path).read()

    def test_stats_reports_engine_and_counters(self, capsys):
        # A tenant mix runs on the flat engine like every configuration.
        assert main(["simulate", "-n", "5", "--seed", "2", "--stats",
                     "--tenants", "single"]) == 0
        out = capsys.readouterr().out
        assert "engine        : flat events" in out
        assert "events        :" in out
        assert "batches" in out
        assert "peak queue    :" in out
        assert "events/s" in out

    def test_stats_with_fast_path(self, capsys):
        assert main(["simulate", "-n", "5", "--seed", "2", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "engine        : flat events" in out
        assert "jobs completed: 5" in out

    def test_fast_path_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "-n", "5", "--fast-path"])
