"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import build_parser, main

from tests.conftest import needs_compiled, run_tier


@pytest.fixture
def instance_path(tmp_path):
    """A small instance generated through the CLI itself."""
    path = tmp_path / "instance.json"
    code = main(
        [
            "generate",
            str(path),
            "--distribution",
            "normal",
            "--width",
            "24",
            "--height",
            "24",
            "--routers",
            "8",
            "--clients",
            "20",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    return path


#: Every subcommand that evaluates placements (all but ``generate``,
#: which only writes an instance) and the positional arguments its
#: parser needs.
EVALUATING_COMMANDS = {
    "solve": ["x.json"],
    "place": ["x.json"],
    "search": ["x.json"],
    "ga": ["x.json"],
    "scenario": ["x.json"],
    "scenario-fleet": ["x.json"],
    "reproduce": [],
    "replicate": ["x.json"],
    "sweep": [],
}


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in (
            "generate", "solve", "place", "search", "ga", "scenario",
            "reproduce",
        ):
            args = parser.parse_args(
                [command]
                + ([] if command in ("reproduce", "solve") else ["x.json"])
            )
            assert args.command == command

    @pytest.mark.parametrize("command", sorted(EVALUATING_COMMANDS))
    def test_no_engine_option(self, command):
        """The tier is worked out from the instance and the kernel build
        (``REPRO_COMPILED=0`` is the one switch), never passed."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [command, *EVALUATING_COMMANDS[command], "--engine", "auto"]
            )


class TestGenerate:
    def test_writes_valid_instance(self, instance_path, capsys):
        payload = json.loads(instance_path.read_text())
        assert payload["format"] == "repro.instance.v1"
        assert len(payload["radii"]) == 8
        assert len(payload["clients"]) == 20

    def test_invalid_parameters_exit_code(self, tmp_path, capsys):
        code = main(
            ["generate", str(tmp_path / "x.json"), "--routers", "0"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestPlace:
    def test_place_reports_metrics(self, instance_path, capsys):
        code = main(
            ["place", str(instance_path), "--method", "hotspot", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "giant=" in out

    def test_place_writes_placement(self, instance_path, tmp_path, capsys):
        out_path = tmp_path / "placement.json"
        code = main(
            [
                "place",
                str(instance_path),
                "--method",
                "near",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["format"] == "repro.placement.v1"
        assert len(payload["cells"]) == 8

    def test_place_render(self, instance_path, capsys):
        code = main(["place", str(instance_path), "--render"])
        assert code == 0
        out = capsys.readouterr().out
        assert "+---" in out or "+-" in out

    def test_missing_instance_file(self, tmp_path, capsys):
        code = main(["place", str(tmp_path / "nope.json")])
        assert code == 2


class TestSearch:
    @pytest.mark.parametrize("movement", ["swap", "swap-literal", "random"])
    def test_search_movements(self, instance_path, capsys, movement):
        code = main(
            [
                "search",
                str(instance_path),
                "--movement",
                movement,
                "--phases",
                "4",
                "--candidates",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phases" in out

    def test_search_trace_output(self, instance_path, capsys):
        code = main(
            [
                "search",
                str(instance_path),
                "--phases",
                "3",
                "--candidates",
                "2",
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phase    0" in out or "phase" in out


class TestReplicate:
    def test_replicate_prints_both_studies(self, instance_path, capsys):
        code = main(
            [
                "replicate",
                str(instance_path),
                "--seeds",
                "2",
                "--phases",
                "2",
                "--candidates",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stand-alone ad hoc methods" in out
        assert "neighborhood search movements" in out
        assert "+/-" in out

    def test_replicate_runs_on_the_loaded_instance(self, tmp_path, capsys):
        """A weibull instance's own clients and radii are replicated, not
        a Normal-law stand-in drawn for its frame."""
        from repro.experiments.replication import (
            format_replication,
            replicate_movements,
            replicate_standalone,
        )
        from repro.instances.serializer import load_instance

        path = tmp_path / "weibull.json"
        assert main(
            [
                "generate", str(path), "--distribution", "weibull",
                "--width", "24", "--height", "24", "--routers", "8",
                "--clients", "20", "--seed", "7",
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "replicate", str(path), "--seeds", "2", "--phases", "2",
                "--candidates", "2",
            ]
        ) == 0
        problem = load_instance(path)
        expected = (
            format_replication(
                replicate_standalone(problem, n_seeds=2),
                "stand-alone ad hoc methods",
            )
            + "\n"
            + format_replication(
                replicate_movements(
                    problem, n_seeds=2, n_candidates=2, max_phases=2
                ),
                "neighborhood search movements",
            )
            + "\n"
        )
        assert capsys.readouterr().out == expected


class TestSolve:
    def test_list_solvers(self, capsys):
        code = main(["solve", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        for family in ("adhoc", "search", "annealing", "tabu", "multistart", "ga"):
            assert family in out
        assert "tabu:swap" in out

    def test_missing_instance_is_an_error(self, capsys):
        code = main(["solve"])
        assert code == 2
        assert "instance JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec", ["adhoc:hotspot", "search:swap", "annealing:swap", "tabu:swap",
                 "multistart:swap", "ga:hotspot"]
    )
    def test_every_family_runs(self, instance_path, capsys, spec):
        code = main(
            ["solve", str(instance_path), "--solver", spec, "--budget", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"[{spec}]" in out
        assert "evaluations" in out

    def test_unknown_solver_exit_code(self, instance_path, capsys):
        code = main(["solve", str(instance_path), "--solver", "quantum:x"])
        assert code == 2
        assert "unknown solver family" in capsys.readouterr().err

    def test_warm_from_placement(self, instance_path, tmp_path, capsys):
        best = tmp_path / "best.json"
        assert main(
            [
                "solve", str(instance_path), "--solver", "search:swap",
                "--budget", "2", "--output", str(best),
            ]
        ) == 0
        code = main(
            [
                "solve", str(instance_path), "--solver", "tabu:swap",
                "--budget", "2", "--warm-from", str(best),
            ]
        )
        assert code == 0
        assert "warm start" in capsys.readouterr().out


class TestScenario:
    @pytest.mark.parametrize("kind", ["drift", "churn", "outage", "degrade"])
    def test_kinds_run_and_render_timeline(self, instance_path, capsys, kind):
        code = main(
            [
                "scenario", str(instance_path), "--kind", kind,
                "--steps", "2", "--budget", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "initial deployment" in out
        assert "warm" in out

    def test_cold_flag(self, instance_path, capsys):
        code = main(
            [
                "scenario", str(instance_path), "--steps", "2",
                "--budget", "2", "--cold",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "/ cold]" in out

    def test_chart_flag(self, instance_path, capsys):
        code = main(
            [
                "scenario", str(instance_path), "--steps", "2",
                "--budget", "2", "--chart",
            ]
        )
        assert code == 0
        assert "fitness" in capsys.readouterr().out

    def test_invalid_steps(self, instance_path, capsys):
        code = main(
            ["scenario", str(instance_path), "--steps", "0", "--budget", "2"]
        )
        assert code == 2


class TestScenarioFleet:
    def test_grid_runs_and_renders_tables(self, instance_path, capsys):
        code = main(
            [
                "scenario-fleet", str(instance_path),
                "--kinds", "drift,outage", "--steps", "2",
                "--solvers", "search:swap,tabu:swap",
                "--seeds", "2", "--budget", "2", "--candidates", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 scenarios x 2 solvers x 2 seeds" in out
        assert "mean fitness" in out
        assert "drift-2x2" in out and "outage-2x1" in out
        assert "tabu:swap" in out
        assert "event impact" in out

    def test_both_arms_add_regret_table(self, instance_path, capsys):
        code = main(
            [
                "scenario-fleet", str(instance_path),
                "--kinds", "drift", "--steps", "2",
                "--seeds", "2", "--budget", "2", "--candidates", "4",
                "--arms", "both",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warm-vs-cold regret" in out
        assert "warm" in out and "cold" in out

    def test_chart_flag(self, instance_path, capsys):
        code = main(
            [
                "scenario-fleet", str(instance_path),
                "--kinds", "drift", "--steps", "2",
                "--seeds", "2", "--budget", "2", "--candidates", "4",
                "--chart",
            ]
        )
        assert code == 0
        assert "recovery curves" in capsys.readouterr().out

    def test_workers_match_serial(self, instance_path, capsys):
        outputs = []
        for workers in ("1", "3"):
            code = main(
                [
                    "scenario-fleet", str(instance_path),
                    "--kinds", "drift", "--steps", "2",
                    "--seeds", "3", "--budget", "2", "--candidates", "4",
                    "--workers", workers,
                ]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_invalid_kind(self, instance_path, capsys):
        code = main(
            [
                "scenario-fleet", str(instance_path),
                "--kinds", "meteor", "--steps", "2", "--budget", "2",
            ]
        )
        assert code == 2
        assert "unknown scenario kind" in capsys.readouterr().err

    def test_invalid_steps(self, instance_path, capsys):
        code = main(
            [
                "scenario-fleet", str(instance_path),
                "--steps", "0", "--budget", "2",
            ]
        )
        assert code == 2


#: A quick run of every evaluating subcommand but ``reproduce`` (whose
#: quickest scale takes seconds per tier; CI compares its tiers);
#: ``{instance}`` is the ``instance_path`` fixture.
QUICK_RUNS = {
    "solve": ["{instance}", "--solver", "search:swap", "--budget", "2"],
    "place": ["{instance}", "--seed", "1"],
    "search": ["{instance}", "--phases", "3", "--candidates", "4"],
    "ga": [
        "{instance}", "--init", "hotspot", "--population", "6",
        "--generations", "3",
    ],
    "scenario": ["{instance}", "--steps", "2", "--budget", "2"],
    "scenario-fleet": [
        "{instance}", "--kinds", "drift", "--steps", "2",
        "--solvers", "search:swap,tabu:swap", "--seeds", "2",
        "--budget", "2", "--candidates", "4",
    ],
    "replicate": [
        "{instance}", "--seeds", "2", "--phases", "2", "--candidates", "2",
    ],
    "sweep": ["--values", "8,16", "--seed", "1"],
}

SECONDS = re.compile(r"\b\d+\.\d+s\b")


class TestTiersEndToEnd:
    def test_quick_runs_cover_every_evaluating_command(self):
        assert set(QUICK_RUNS) == set(EVALUATING_COMMANDS) - {"reproduce"}

    @pytest.mark.parametrize(
        "tier", ["sparse", pytest.param("compiled", marks=needs_compiled)]
    )
    @pytest.mark.parametrize("command", sorted(QUICK_RUNS))
    def test_each_tier_prints_the_dense_run(
        self, instance_path, capsys, command, tier
    ):
        """No subcommand takes an engine option: whichever tier ``auto``
        lands on, the output is byte-identical."""
        argv = [command] + [
            arg.format(instance=instance_path) for arg in QUICK_RUNS[command]
        ]
        outputs = []
        for run in ("dense", tier):
            with run_tier(run):
                assert main(argv) == 0
            # Wall-clock seconds are the one field two runs may differ in.
            outputs.append(SECONDS.sub("_s", capsys.readouterr().out))
        assert outputs[0]
        assert outputs[1] == outputs[0]

    def test_replicate_resume_prints_the_plain_run(
        self, instance_path, tmp_path, capsys
    ):
        command = [
            "replicate", str(instance_path), "--seeds", "2",
            "--phases", "2", "--candidates", "2",
        ]
        checkpoint = str(tmp_path / "ck")
        outputs = []
        for extra in ([], ["--checkpoint", checkpoint], ["--resume", checkpoint]):
            assert main(command + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert "stand-alone ad hoc methods" in outputs[0]
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestGa:
    def test_ga_runs(self, instance_path, tmp_path, capsys):
        out_path = tmp_path / "best.json"
        code = main(
            [
                "ga",
                str(instance_path),
                "--init",
                "hotspot",
                "--population",
                "6",
                "--generations",
                "3",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "generations" in out
        assert out_path.exists()
