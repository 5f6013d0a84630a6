"""CLI coverage for the scenario subsystem."""

import json

import pytest

from repro.cli import main

ALL_PRESETS = ("static", "drift", "flaky-fleet", "rush-hour", "black-friday")


class TestScenariosCommand:
    def test_lists_presets(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for preset in ALL_PRESETS:
            assert preset in out
        assert "mmpp" in out  # black-friday's traffic model column

    def test_columns_align_with_header(self, capsys):
        from repro.dynamics import available_scenarios

        assert main(["scenarios"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert len(rows) == len(available_scenarios())
        # Every row's drift cell starts at the header's offset, whatever the
        # length of the scenario name in front of it.
        start = header.index("drift")
        for row in rows:
            assert row[:start].rstrip() == row.split()[0], row
            assert row[start : start + 5] in ("  yes", "    -"), row


class TestSimulateScenario:
    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_simulate_runs_every_preset(self, preset, capsys):
        assert main(["simulate", "-n", "8", "--scenario", preset]) == 0
        out = capsys.readouterr().out
        assert "jobs completed: 8" in out

    def test_unknown_scenario_fails(self):
        with pytest.raises(KeyError):
            main(["simulate", "-n", "4", "--scenario", "nope"])

    def test_trace_record_and_replay(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        assert main(["simulate", "-n", "8", "--scenario", "flaky-fleet",
                     "--trace", trace]) == 0
        first = capsys.readouterr().out
        assert f"wrote scenario trace to {trace}" in first

        # Replaying the trace reproduces the same summary line.
        assert main(["simulate", "-n", "8", "--scenario", trace]) == 0
        second = capsys.readouterr().out

        def summary_lines(text):
            return [line for line in text.splitlines()
                    if line.startswith(("T_sim", "fidelity", "T_comm", "devices/job"))]

        assert summary_lines(second) == summary_lines(first)

    def test_trace_of_plain_run(self, tmp_path, capsys):
        trace = str(tmp_path / "plain.jsonl")
        assert main(["simulate", "-n", "5", "--trace", trace]) == 0
        lines = [json.loads(line) for line in open(trace)]
        assert lines[0]["type"] == "header"


class TestCompareScenario:
    def test_compare_with_scenario(self, capsys):
        assert main(["compare", "-n", "8", "--scenario", "rush-hour",
                     "--strategies", "speed", "fair"]) == 0
        out = capsys.readouterr().out
        assert "speed" in out and "fair" in out


class TestSweepScenario:
    def test_sweep_over_scenario_field(self, capsys):
        assert main(["sweep", "--param", "scenario",
                     "--values", "static", "drift", "-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "static" in out and "drift" in out


class TestCheckpointingFlag:
    def test_simulate_with_checkpointing(self, capsys):
        assert main(["simulate", "-n", "8", "--scenario", "flaky-fleet",
                     "--checkpointing"]) == 0
        out = capsys.readouterr().out
        assert "jobs completed: 8" in out

    def test_serve_with_checkpointing(self, capsys):
        assert main(["serve", "-n", "8", "--tenants", "single",
                     "--checkpointing"]) == 0
        out = capsys.readouterr().out
        assert "jobs completed: 8" in out

    def test_sweep_over_checkpointing_axis(self, capsys):
        """``checkpointing`` is sweepable as a boolean grid axis."""
        assert main(["sweep", "--param", "checkpointing",
                     "--values", "false", "true", "-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "False" in out and "True" in out

    def test_sweep_rejects_non_boolean_values(self):
        with pytest.raises(SystemExit, match="must be bool"):
            main(["sweep", "--param", "checkpointing",
                  "--values", "maybe", "-n", "6"])
